"""Test-side Smith normal form with transforms, and what is built on it.

``smith_normal_form`` here computes ``d = u * m * v`` with unimodular ``u``,
``v`` and their inverses tracked through every row and column operation, in
the same deterministic pivot order as the library's diagonal-only
``rooslab.linalg.smith_normal_form``. ``kernel_basis`` and ``solve`` read
their answers off those transforms. None of this has a production caller:
it is the independent route that the tests hold the library's transform-free
Smith diagonal, its cohomology and the per-field echelon form of ``les``
against. ``dense`` and ``differential`` read the library's sparse form back
into dense matrices, and ``is_zero_over`` and ``matrices_equal`` test and
compare them, for the tests that multiply or compare densely; ``neg``,
``scale`` and ``matvec`` are the dense arithmetic those tests need.
"""

from __future__ import annotations

from dataclasses import dataclass

from rooslab.linalg import IntMatrix, Ring, ShapeMismatchError


def dense(rows, width: int) -> IntMatrix:
    """The dense matrix of sparse rows ({column: value}) of the given width."""
    return IntMatrix([[row.get(j, 0) for j in range(width)] for row in rows], width)


def differential(cx, n: int) -> IntMatrix:
    """The dense matrix of the differential of the complex cx into degree n."""
    return dense(cx.diffs[n], cx.total_ranks[n - 1] if n else 0)


def is_zero_over(ring: Ring, m: IntMatrix) -> bool:
    """Whether every entry of the dense matrix m is zero over the ring."""
    return all(ring.norm(x) == 0 for row in m.rows for x in row)


def matrices_equal(ring: Ring, a: IntMatrix, b: IntMatrix) -> bool:
    """Whether the dense matrices a and b have one shape and are equal,
    entry by entry, over the ring."""
    return a.shape == b.shape and all(
        ring.norm(x - y) == 0 for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)
    )


def neg(m: IntMatrix) -> IntMatrix:
    return IntMatrix([[-x for x in row] for row in m.rows], m.ncols)


def scale(m: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix([[c * x for x in row] for row in m.rows], m.ncols)


def matvec(m: IntMatrix, v) -> list[int]:
    """The product of m and the vector v, as a list."""
    v = list(v)
    if len(v) != m.ncols:
        raise ShapeMismatchError(f"matvec {m.shape} by vector of {len(v)}")
    return [sum(a * x for a, x in zip(row, v)) for row in m.rows]


@dataclass(frozen=True)
class SmithDecomposition:
    """Result of ``smith_normal_form``: d = u * m * v.

    ``u``/``v`` are unimodular; ``u_inv``/``v_inv`` their inverses, tracked
    during the reduction rather than recomputed. Transform fields are None
    exactly when the caller opted out of them.
    """

    d: IntMatrix
    u: IntMatrix | None
    v: IntMatrix | None
    u_inv: IntMatrix | None
    v_inv: IntMatrix | None

    @property
    def diagonal(self) -> list[int]:
        n = min(self.d.nrows, self.d.ncols)
        return [self.d.rows[i][i] for i in range(n)]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @property
    def invariant_factors(self) -> list[int]:
        return [x for x in self.diagonal if x != 0]


def _find_pivot(a, t, nrows, ncols):
    """Smallest |entry| in a[t:, t:], ties to lowest row then column.

    A row-major scan that stops at the first +-1 is equivalent to the full
    scan under this rule, since no smaller value exists and any later +-1 has
    a higher row, or the same row and a higher column.
    """
    best = None
    best_pos = None
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            v = row[j]
            if v:
                av = -v if v < 0 else v
                if av == 1:
                    return (i, j)
                if best is None or av < best:
                    best = av
                    best_pos = (i, j)
    return best_pos


def smith_normal_form(
    m: IntMatrix,
    *,
    want_u: bool = True,
    want_v: bool = True,
    want_u_inv: bool = True,
    want_v_inv: bool = True,
) -> SmithDecomposition:
    """Smith normal form over Z with deterministic pivoting.

    Returns ``d`` diagonal with nonnegative entries satisfying
    d_1 | d_2 | ... , and transforms with ``d = u * m * v``. Row operations on
    ``m`` are mirrored on ``u`` (and inverted on ``u_inv``); column operations
    on ``v`` / ``v_inv``. Heavy callers disable the transforms they do not
    need: the kernel-side only requires ``v`` and ``v_inv``.
    """
    nrows, ncols = m.nrows, m.ncols
    a = m.mutable_rows()
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] if want_u else None
    uinv = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] if want_u_inv else None
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if want_v else None
    vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if want_v_inv else None

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if uinv is not None:
            for r in uinv:
                r[i], r[k] = r[k], r[i]

    def row_sub(i, k, q, start):
        # row_i -= q * row_k
        ai, ak = a[i], a[k]
        for j in range(start, ncols):
            x = ak[j]
            if x:
                ai[j] -= q * x
        if u is not None:
            ui, uk = u[i], u[k]
            for j in range(nrows):
                x = uk[j]
                if x:
                    ui[j] -= q * x
        if uinv is not None:
            for r in uinv:
                x = r[i]
                if x:
                    r[k] += q * x

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if uinv is not None:
            for r in uinv:
                r[i] = -r[i]

    def swap_cols(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        if v is not None:
            for r in v:
                r[j], r[k] = r[k], r[j]
        if vinv is not None:
            vinv[j], vinv[k] = vinv[k], vinv[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for r in a:
            x = r[k]
            if x:
                r[j] -= q * x
        if v is not None:
            for r in v:
                x = r[k]
                if x:
                    r[j] -= q * x
        if vinv is not None:
            rj, rk = vinv[j], vinv[k]
            for idx in range(ncols):
                x = rj[idx]
                if x:
                    rk[idx] += q * x

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        piv = _find_pivot(a, t, nrows, ncols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # Clear column t. A nonzero remainder is strictly smaller than the
            # pivot; swapping it in and repeating is Euclid's algorithm.
            cleared = False
            while not cleared:
                if a[t][t] < 0:
                    negate_row(t)
                p = a[t][t]
                cleared = True
                for i in range(nrows):
                    if i == t:
                        continue
                    x = a[i][t]
                    if x:
                        q = x // p
                        if q:
                            row_sub(i, t, q, t)
                        if a[i][t]:
                            swap_rows(i, t)
                            cleared = False
                            break
            # Clear row t. A remainder swap here exchanges column j with
            # column t and can dirty column t again, hence the outer loop.
            cleared = False
            while not cleared:
                p = a[t][t]
                cleared = True
                for j in range(ncols):
                    if j == t:
                        continue
                    x = a[t][j]
                    if x:
                        q = x // p
                        if q:
                            col_sub(j, t, q)
                        if a[t][j]:
                            swap_cols(j, t)
                            cleared = False
                            break
            if any(a[i][t] for i in range(nrows) if i != t):
                continue
            # Divisibility sweep: the pivot must divide the whole tail block.
            p = a[t][t]
            if p != 1 and p != 0:
                viol = None
                for i in range(t + 1, nrows):
                    row = a[i]
                    for j in range(t + 1, ncols):
                        if row[j] % p:
                            viol = i
                            break
                    if viol is not None:
                        break
                if viol is not None:
                    row_sub(t, viol, -1, t)
                    continue
            break
        t += 1

    wrap = IntMatrix
    return SmithDecomposition(
        d=wrap(a, ncols),
        u=wrap(u, nrows) if u is not None else None,
        v=wrap(v, ncols) if v is not None else None,
        u_inv=wrap(uinv, nrows) if uinv is not None else None,
        v_inv=wrap(vinv, ncols) if vinv is not None else None,
    )


def _kernel_column_indices(snf: SmithDecomposition) -> list[int]:
    diag = snf.diagonal
    ncols = snf.d.ncols
    return [j for j in range(ncols) if j >= len(diag) or diag[j] == 0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice {x : m x = 0}."""
    snf = smith_normal_form(m, want_u=False, want_u_inv=False, want_v_inv=False)
    idx = _kernel_column_indices(snf)
    return IntMatrix([[row[j] for j in idx] for row in snf.v.rows], len(idx))


def solve(m: IntMatrix, b, ring: Ring) -> list[int] | None:
    """Canonical solution of m x = b over the ring, or None.

    Diagonalize, back-substitute c = u b through the divisor chain, set free
    coordinates to zero, map back through v. Over Z/m the system is augmented
    with the modulus columns first and answers are reduced to [0, m).
    """
    b = [int(x) for x in b]
    if len(b) != m.nrows:
        raise ShapeMismatchError(f"solve: matrix {m.shape} vs rhs of length {len(b)}")
    if ring.is_integers:
        a = m
    else:
        a = m.hstack(scale(IntMatrix.identity(m.nrows), ring.modulus))
    snf = smith_normal_form(a, want_u_inv=False, want_v_inv=False)
    c = matvec(snf.u, b)
    diag = snf.diagonal
    y = [0] * a.ncols
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d:
            if ci % d:
                return None
            y[i] = ci // d
        elif ci:
            return None
    x_full = matvec(snf.v, y)
    x = x_full[: m.ncols]
    if not ring.is_integers:
        x = [v % ring.modulus for v in x]
    return x
