"""Exact integer linear algebra over Z and Z/m.

Everything downstream (cochain complexes, derived limits, long exact
sequences) reduces to Smith diagonals computed here:

* ``smith_normal_form`` returns the nonzero Smith diagonal d_1 | d_2 | ... of
  a matrix and nothing else: no transform is tracked. The pivot rule is
  deterministic: smallest nonzero absolute value, ties broken by lowest row
  index, then lowest column index.
* ``eliminate`` is the one sparse elimination: Markowitz unit pivots over
  Z, Z/m or a field, to reduced row echelon form plus the rows left.
* ``invariant_factors`` is the production route to the Smith diagonal: its
  unit pivots over Z, counted, then ``smith_normal_form`` of the small
  residual block (Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
* ``subquotient`` presents ker(d_out)/im(d_in) of a free module as canonical
  invariants (free rank plus a divisor chain), read off the rank of d_out and
  the invariant factors of d_in. The Z/m case is handled by lifting to Z and
  adjoining ``m * identity`` relations. ``cohomology_at`` takes dense input.

Differentials, and every matrix reduced here, have one sparse form: a list
of rows, each {column: nonzero int}, of a width the caller knows. Only this
module builds it (``sparse``, ``product``, ``columns``) and compares it over
a ring (``Ring.is_zero``, ``Ring.equal``). ``IntMatrix`` is dense and
immutable, for documents, bonds and the residual block of the Smith form;
``sparse`` builds its form once and keeps it on the matrix, so every caller
shares that one form and only reads it. Entries are plain Python integers:
exactness matters, machine precision does not.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class ShapeMismatchError(ValueError):
    """Raised when matrix dimensions do not line up for an operation."""


class CompositionNotZeroError(ValueError):
    """Raised when a would-be complex has d_out * d_in != 0 over the ring."""


@dataclass(frozen=True)
class Ring:
    """Base ring for coefficients: Z (modulus 0) or Z/m with m >= 2."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ValueError(f"modulus must be 0 (for Z) or >= 2, got {self.modulus}")

    @classmethod
    def integers(cls) -> "Ring":
        return cls(0)

    @classmethod
    def modular(cls, m: int) -> "Ring":
        if m < 2:
            raise ValueError(f"modular ring needs m >= 2, got {m}")
        return cls(m)

    def render(self) -> str:
        """The tag documents carry: "Z" or "Z/m" (``io.parse_ring`` reads it)."""
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"

    @property
    def is_integers(self) -> bool:
        return self.modulus == 0

    def norm(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def unit(self, x: int) -> int | None:
        """The inverse of x, or None: over Z only +-1 is a unit, over Z/m
        every x prime to m."""
        if x == 1 or x == -1:
            return x
        k = self.modulus
        return pow(x, -1, k) if k and math.gcd(x, k) == 1 else None

    def is_zero(self, rows) -> bool:
        """Whether the sparse rows (``sparse``) are zero over the ring."""
        k = self.modulus
        if k == 0:
            return not any(rows)
        return all(x % k == 0 for row in rows for x in row.values())

    def equal(self, a: list, b: list) -> bool:
        """Whether two sparse matrices (lists of rows) are equal over the ring."""
        k = self.modulus
        if k == 0:
            return a == b
        return len(a) == len(b) and all(
            (ra.get(j, 0) - rb.get(j, 0)) % k == 0
            for ra, rb in zip(a, b)
            for j in ra.keys() | rb.keys()
        )


_Z = Ring.integers()


def _integral(x) -> int:
    """``int(x)``, refused with ValueError when that changes the value (1.5,
    Fraction(7, 2)); ``True`` is 1."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


class IntMatrix:
    """Immutable dense integer matrix with explicit shape (0-sized sides allowed).
    ``_form`` holds its sparse form once ``sparse`` has built it."""

    __slots__ = ("rows", "nrows", "ncols", "_form")

    def __init__(self, rows, ncols: int | None = None):
        frozen = tuple(
            tuple(x if type(x) is int else _integral(x) for x in row) for row in rows
        )
        if frozen:
            width = len(frozen[0])
            if any(len(r) != width for r in frozen):
                raise ShapeMismatchError("ragged rows in matrix literal")
            if ncols is not None and ncols != width:
                raise ShapeMismatchError(f"declared ncols={ncols} but rows have {width}")
        else:
            if ncols is None:
                ncols = 0
            width = ncols
        object.__setattr__(self, "rows", frozen)
        object.__setattr__(self, "nrows", len(frozen))
        object.__setattr__(self, "ncols", width)

    @classmethod
    def _trusted(cls, rows, ncols: int) -> "IntMatrix":
        """A matrix from rows that are already sequences of ``int``, each
        ``ncols`` long: the results linalg and the complex assembler build
        themselves, and document matrices, which ``io`` has checked. Nothing
        is coerced or checked; every other caller goes through ``__init__``.
        """
        self = object.__new__(cls)
        frozen = tuple(map(tuple, rows))
        _SET_ROWS(self, frozen)
        _SET_NROWS(self, len(frozen))
        _SET_NCOLS(self, ncols)
        return self

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls._trusted([(0,) * ncols] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        zero = (0,) * n
        return cls._trusted([zero[:i] + (1,) + zero[i + 1 :] for i in range(n)], n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r}, ncols={self.ncols})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def mutable_rows(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product; the zeros of both factors are skipped, the right
        one's through its sparse form."""
        if self.ncols != other.nrows:
            raise ShapeMismatchError(f"mul {self.shape} by {other.shape}")
        right = sparse(other)
        out = [[0] * other.ncols for _ in self.rows]
        for arow, target in zip(self.rows, out):
            for k, a in enumerate(arow):
                if a:
                    if a == 1:
                        for j, b in right[k].items():
                            target[j] += b
                    elif a == -1:
                        for j, b in right[k].items():
                            target[j] -= b
                    else:
                        for j, b in right[k].items():
                            target[j] += a * b
        return IntMatrix._trusted(out, other.ncols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ShapeMismatchError(f"hstack {self.shape} with {other.shape}")
        return IntMatrix._trusted(
            [ra + rb for ra, rb in zip(self.rows, other.rows)], self.ncols + other.ncols
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.ncols:
            raise ShapeMismatchError(f"vstack {self.shape} with {other.shape}")
        return IntMatrix._trusted(self.rows + other.rows, self.ncols)


# The slot descriptors' setters: ``_trusted`` fills a new matrix through them,
# and ``sparse`` keeps a form on one, past the ``__setattr__`` that keeps every
# matrix immutable.
_SET_ROWS = IntMatrix.rows.__set__
_SET_NROWS = IntMatrix.nrows.__set__
_SET_NCOLS = IntMatrix.ncols.__set__
_SET_FORM = IntMatrix._form.__set__


def sparse(m: IntMatrix) -> list[dict]:
    """The sparse form of m: each row as {column: entry} for its nonzero
    entries, of width ``m.ncols``. Built on the first call and kept on m,
    which is immutable, so every later call returns the same list: callers
    share it and must not change it."""
    form = getattr(m, "_form", None)
    if form is None:
        form = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        _SET_FORM(m, form)
    return form


def product(a: list, b: list) -> list[dict]:
    """The product of two sparse matrices, the width of a being the number of
    rows of b; a sum that comes to 0 is left out."""
    out = []
    for arow in a:
        acc = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return out


def columns(rows: list, width: int) -> list[dict]:
    """The transpose of a sparse matrix of the given width: its columns, each
    as {row: entry}."""
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


@dataclass(frozen=True)
class GroupInvariants:
    """A finitely generated abelian group in canonical form.

    ``free_rank`` copies of Z plus cyclic factors Z/d_1 + ... + Z/d_k with
    d_1 | d_2 | ... and every d_i >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_rank", _integral(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")
        object.__setattr__(self, "torsion", tuple(map(_integral, self.torsion)))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion divisor {d} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion chain {self.torsion} violates divisibility")

    @classmethod
    def trivial(cls) -> "GroupInvariants":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "GroupInvariants":
        return cls(rank, ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


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


def smith_normal_form(m: IntMatrix) -> list[int]:
    """The nonzero Smith diagonal d_1 | d_2 | ... of m over Z.

    Row and column operations act on a working copy of m alone; no
    transform is kept. The pivot is the smallest nonzero absolute value
    (``_find_pivot``), Euclid's algorithm clears its column and row, and a
    divisibility sweep adds a row the pivot does not divide into the pivot
    row and clears again.
    """
    nrows, ncols = m.nrows, m.ncols
    a = m.mutable_rows()
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        piv = _find_pivot(a, t, nrows, ncols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for r in a:
                r[pj], r[t] = r[t], r[pj]
        while True:
            # Clear column t. A nonzero remainder is strictly smaller than the
            # pivot; swapping it in and repeating is Euclid's algorithm.
            cleared = False
            while not cleared:
                if a[t][t] < 0:
                    a[t] = [-x for x in a[t]]
                prow = a[t]
                p = prow[t]
                cleared = True
                for i in range(nrows):
                    if i == t:
                        continue
                    row = a[i]
                    x = row[t]
                    if x:
                        q = x // p
                        if q:
                            for j in range(t, ncols):
                                y = prow[j]
                                if y:
                                    row[j] -= q * y
                        if row[t]:
                            a[i], a[t] = prow, row
                            cleared = False
                            break
            # Clear row t. A remainder swap here exchanges column j with
            # column t and can dirty column t again, hence the outer loop.
            cleared = False
            while not cleared:
                prow = a[t]
                p = prow[t]
                cleared = True
                for j in range(ncols):
                    if j == t:
                        continue
                    x = prow[j]
                    if x:
                        q = x // p
                        if q:
                            for r in a:
                                y = r[t]
                                if y:
                                    r[j] -= q * y
                        if prow[j]:
                            for r in a:
                                r[j], r[t] = r[t], r[j]
                            cleared = False
                            break
            if any(a[i][t] for i in range(nrows) if i != t):
                continue
            # Divisibility sweep: the pivot must divide the whole tail block.
            p = a[t][t]
            if p != 1:
                viol = next(
                    (i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1 :])),
                    None,
                )
                if viol is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[viol])]
                    continue
            break
        t += 1
    return [a[i][i] for i in range(t)]


def _unit_pivots(rows: dict, ring, width):
    """The one sparse elimination, in place on ``rows`` ({index: {column:
    nonzero entry reduced over the ring}}). Markowitz order: a column below
    ``width`` with the fewest entries (from a heap), an entry ``ring.unit``
    inverts, +-1 first, then the shortest row, then the lowest index. Each
    pivot row leaves ``rows``, cleared from the rows left, and is yielded as
    (column, inverse s of the pivot entry, row without that entry), 0 at
    every earlier pivot column. The rows left have no unit entry below
    ``width``.

    With one row every column holds one entry, so Markowitz order is column
    order: that row pivots at its lowest unit column below ``width``, and
    no column index or heap is built.
    """
    k = ring.modulus
    unit = ring.unit
    if len(rows) == 1:
        ((p, row),) = rows.items()
        for q in sorted(row):
            if q >= width:
                break
            s = unit(row[q])
            if s is not None:
                del rows[p], row[q]
                yield q, s, row
                break
        return
    cols = {}
    for i, row in rows.items():
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    # Candidate columns keyed by their entry count; an item is stale once the
    # column's count has changed, and every change pushes a fresh one.
    heap = [(len(members), j) for j, members in cols.items() if j < width]
    heapq.heapify(heap)
    while heap:
        count, q = heapq.heappop(heap)
        members = cols.get(q)
        if members is None or len(members) != count:
            continue
        ones = [i for i in members if rows[i][q] in (1, -1)]
        units = ones or [i for i in members if unit(rows[i][q]) is not None]
        if not units:
            continue
        p = units[0] if len(units) == 1 else min(units, key=lambda i: (len(rows[i]), i))
        s = unit(rows[p][q])
        del cols[q]
        members.discard(p)
        pivot_row = rows.pop(p)
        del pivot_row[q]
        for i in members:
            target = rows[i]
            f = target.pop(q) * s
            for j, x in pivot_row.items():
                y = target.get(j, 0) - f * x
                if k:
                    y %= k
                if y:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = y
                elif j in target:
                    del target[j]
                    cols[j].discard(i)
            if not target:
                del rows[i]
        for j in pivot_row:
            column = cols[j]
            column.discard(p)
            if not column:
                del cols[j]
            elif j < width:
                heapq.heappush(heap, (len(column), j))
        yield q, s, pivot_row


def eliminate(rows: list, ring, width) -> tuple[dict, list]:
    """Reduced row echelon form of copied sparse rows by ``_unit_pivots``,
    the columns from ``width`` on riding along; ``ring`` gives a ``modulus``
    and ``unit(x)``, the inverse of x or None. Returns {pivot column: row},
    each 1 at its pivot and 0 at every other pivot column, and the nonzero
    rows left, none with an entry below ``width`` over a field."""
    k = ring.modulus
    if k:
        work = ({j: y for j, x in row.items() if (y := x % k)} for row in rows)
        work = {i: row for i, row in enumerate(work) if row}
    else:
        work = {i: dict(row) for i, row in enumerate(rows) if row}
    pivots = {}
    for q, s, row in _unit_pivots(work, ring, width):
        if s != 1:
            row = {j: s * x % k if k else s * x for j, x in row.items()}
        row[q] = 1
        pivots[q] = row
    # Back substitution, last pivot first: a pivot row is 0 at every earlier
    # pivot column, and the later rows it meets are already reduced.
    for q in reversed(pivots):
        row = pivots[q]
        for j in [j for j in row if j != q and j in pivots]:
            f = row[j]
            for c, x in pivots[j].items():
                y = row.get(c, 0) - f * x
                row[c] = y % k if k else y
                if not row[c]:
                    del row[c]
    return pivots, list(work.values())


def invariant_factors(rows: list) -> list[int]:
    """The nonzero Smith diagonal d_1 | d_2 | ... of a sparse matrix, with no
    transforms: each pivot of ``_unit_pivots`` over Z is a factor 1 (the Schur
    complement on a unit is exact), its row counted and dropped, and the
    residual block, with no unit entry, goes to a diagonal-only
    ``smith_normal_form``. The Smith diagonal is canonical, so the pivot
    order never shows. A matrix with no entry costs no set-up."""
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    if not rows:
        return []
    factors = [1] * sum(1 for _ in _unit_pivots(rows, _Z, math.inf))
    if rows:
        col_ids = sorted({j for row in rows.values() for j in row})
        residual = IntMatrix._trusted(
            [[r.get(j, 0) for j in col_ids] for r in rows.values()], len(col_ids)
        )
        factors += smith_normal_form(residual)
    return factors


def cohomology_at(d_in: IntMatrix, d_out: IntMatrix, ring: Ring) -> GroupInvariants:
    """``subquotient`` of two dense matrices, whose shapes must line up."""
    if d_out.ncols != d_in.nrows:
        raise ShapeMismatchError(
            f"ambient rank mismatch: d_out has {d_out.ncols} columns, "
            f"d_in has {d_in.nrows} rows"
        )
    return subquotient(sparse(d_in), sparse(d_out), d_in.ncols, ring)


def subquotient(d_in: list, d_out: list, width: int, ring: Ring) -> GroupInvariants:
    """Invariants of ker(d_out)/im(d_in) at a single cochain position.

    ``d_in`` (sparse, ``width`` columns) maps into the ambient free module,
    one row per ambient coordinate; ``d_out`` (sparse) maps out of it, its
    width the ambient rank. d_out * d_in must vanish over the ring. For maps
    a (out) and b (in) over Z with a * b = 0,

        ker a / im b  =  Z^(ambient - rk a - rk b)  +  sum over d_i >= 2 of Z/d_i,

    where the d_i are the invariant factors of b: ker a is a direct summand
    of the ambient module (the quotient embeds in a free module), so it
    splits off the free part of the cokernel of b. Only Smith diagonals are
    needed (``invariant_factors``), no transforms.

    Over Z/m the formula does not apply to the matrices as given: it sees
    only invariant factors, and over Z/4, d_in = diag(2, 0) gives Z/2 + Z/2
    with d_out = diag(0, 2) but Z/4 with d_out = diag(2, 0). The pair is
    lifted to Z instead: d_out becomes [d_out | m I], whose kernel projects
    onto {x : d_out x = 0 mod m} bijectively, and the relations [d_in | m I]
    are lifted into that kernel. The lifted pair composes to exactly zero
    over Z and has the same subquotient, so the formula applies to it.
    [d_out | m I] has full row rank, so only the lifted relations are
    reduced. A zero ambient module gives the trivial group at once.
    """
    ambient = len(d_in)
    if ambient == 0:
        # A subquotient of the zero module; d_out * d_in is an empty sum.
        return GroupInvariants.trivial()
    composite = product(d_out, d_in)
    if not ring.is_zero(composite):
        raise CompositionNotZeroError("d_out * d_in is nonzero over " + ring.render())

    if ring.is_integers:
        kernel_rank = ambient - len(invariant_factors(d_out))
        relations = d_in
    else:
        # [d_out | m I] has full row rank and as many extra columns as rows.
        kernel_rank = ambient
        k = ring.modulus
        # The m I block of [d_in | m I] sits in columns width.. on; each
        # column of d_in lifts with second block -(d_out * column) / m,
        # integral by the check above, and each column m e_j of that block
        # with second block -d_out e_j.
        relations = [{**row, width + i: k} for i, row in enumerate(d_in)]
        relations += [
            {**{j: -x // k for j, x in lift.items()}, **{width + j: -x for j, x in row.items()}}
            for lift, row in zip(composite, d_out)
        ]
    factors = invariant_factors(relations)
    free_rank = kernel_rank - len(factors)
    if free_rank < 0:
        raise CompositionNotZeroError(
            "relations do not land in the kernel (inconsistent complex)"
        )
    torsion = tuple(d for d in factors if d >= 2)
    if not ring.is_integers and free_rank != 0:
        raise AssertionError("modular subquotient came out infinite")
    return GroupInvariants(free_rank, torsion)
