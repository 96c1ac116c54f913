"""Long exact sequence verification for levelwise short exact sequences.

A levelwise short exact sequence of systems induces a degreewise short
exact sequence of cochain complexes, and over any coefficient field where
the reduced levelwise sequence stays exact, the cohomologies thread into a
long exact sequence through connecting maps. ``les_of_ses`` computes the
base-ring derived limits of all three systems and then verifies exactness
of the long sequence position by position over several fields.

The field-side linear algebra is deliberately integer-backed: one Smith
decomposition per differential serves every field at once, because reducing
a divisor chain modulo p zeroes out a suffix, so field ranks, kernels
(columns of the column transform past the field rank), and cohomology
projections/sections (rows and columns of the relation matrix's row
transform) all come from integer matrices. Division in the field only
happens inside the two connecting-map lifts, which solve through the
integer decompositions of the inclusion and projection block matrices.

Equivalence classes of the index are collapsed to representatives first
(every element is isomorphic to its representative, so derived limits are
untouched — a reduction the test suite checks on random systems), and the
three complexes are the normalized (strict-tuple) ones on the resulting
partial order. The levelwise maps commute with every face, so they are
cochain maps of the normalized complexes too, and the groups agree with the
degenerate-tuple oracle (tested on random sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import RoosComplex, build_complex
from .linalg import (
    GroupInvariants,
    IntMatrix,
    Ring,
    SmithDecomposition,
    smith_normal_form,
)
from .systems import SystemSES, validate_ses


class Field:
    """The rationals (p = 0) or a prime field, acting on plain scalars.

    Rational scalars are ``fractions.Fraction`` (ints welcome wherever
    exactness allows); prime-field scalars are ints normalized to [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p:
            if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, *_):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def render(self) -> str:
        return "Q" if self.p == 0 else f"GF({self.p})"

    def of(self, x: int):
        return x % self.p if self.p else x

    def norm(self, x):
        return x % self.p if self.p else x

    def div(self, a, b):
        if self.p:
            return a * pow(b, -1, self.p) % self.p
        return Fraction(a) / Fraction(b)


class _FM:
    """Dense field matrix with explicit shape (sizes here are tiny)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, nrows, ncols):
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols

    @classmethod
    def from_int(cls, field: Field, m: IntMatrix) -> "_FM":
        return cls(
            [[field.of(x) for x in row] for row in m.rows], m.nrows, m.ncols
        )

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "_FM":
        zero = field.of(0)
        return cls([[zero] * ncols for _ in range(nrows)], nrows, ncols)

    def mul(self, field: Field, other: "_FM") -> "_FM":
        assert self.ncols == other.nrows
        out = []
        for arow in self.rows:
            row = [field.of(0)] * other.ncols
            for k, a in enumerate(arow):
                if a:
                    for j, b in enumerate(other.rows[k]):
                        if b:
                            row[j] = field.norm(row[j] + a * b)
            out.append(row)
        return _FM(out, self.nrows, other.ncols)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def rank(self, field: Field) -> int:
        rows = [list(r) for r in self.rows]
        rank = 0
        for col in range(self.ncols):
            piv = None
            for i in range(rank, len(rows)):
                if rows[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = field.div(field.of(1), rows[rank][col])
            rows[rank] = [field.norm(x * inv) for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    c = rows[i][col]
                    rows[i] = [
                        field.norm(x - c * y) for x, y in zip(rows[i], rows[rank])
                    ]
            rank += 1
        return rank


def _int_apply(field: Field, m: IntMatrix, vec: list) -> list:
    """Apply an integer matrix to a field vector."""
    out = []
    for row in m.rows:
        acc = 0
        for a, x in zip(row, vec):
            if a and x:
                acc += a * x
        out.append(field.norm(acc))
    return out


def _field_rank(field: Field, snf: SmithDecomposition) -> int:
    if field.p == 0:
        return snf.rank
    return sum(1 for d in snf.diagonal if d % field.p)


def _field_solve(field: Field, snf: SmithDecomposition, b: list) -> list | None:
    """Canonical field solution of m x = b from m's integer decomposition."""
    c = _int_apply(field, snf.u, b)
    diag = snf.diagonal
    y = [field.of(0)] * snf.d.ncols
    for i, ci in enumerate(c):
        d = field.of(diag[i]) if i < len(diag) else 0
        if d:
            y[i] = field.div(ci, d)
        elif ci:
            return None
    return _int_apply(field, snf.v, y)


class _HSpace:
    """Cohomology of one complex at one degree over one field.

    ``basis`` holds integer ambient representatives of a basis (one column
    per class); ``coords`` maps an ambient field cocycle to its class in the
    basis coordinates. Projection and section satisfy P S = I by
    construction, and basis columns map to the standard basis.
    """

    __slots__ = ("dim", "basis", "project", "_v_out_inv", "_r_out", "_field")

    def __init__(self, field, snf_out, snf_y, r_out):
        z = snf_out.d.ncols - r_out
        r_y = _field_rank(field, snf_y)
        self.dim = z - r_y
        self.project = snf_y.u.rows_at(range(r_y, z))
        section = snf_y.u_inv.cols_at(range(r_y, z))
        cocycles = snf_out.v.cols_at(range(r_out, snf_out.d.ncols))
        self.basis = cocycles @ section
        self._v_out_inv = snf_out.v_inv
        self._r_out = r_out
        self._field = field

    def coords(self, vec: list) -> list:
        full = _int_apply(self._field, self._v_out_inv, vec)
        return _int_apply(self._field, self.project, full[self._r_out :])

    def map_from(self, columns: IntMatrix) -> _FM:
        """Induced matrix on classes of the given integer cocycle columns."""
        field = self._field
        full = self._v_out_inv @ columns
        sliced = full.rows_at(range(self._r_out, full.nrows))
        return _FM.from_int(field, self.project @ sliced)


class _ComplexData:
    """Per-complex cache of integer decompositions shared across fields."""

    __slots__ = ("cx", "_snf_out", "_yfull", "_ysnf")

    def __init__(self, cx: RoosComplex):
        self.cx = cx
        self._snf_out = {}
        self._yfull = {}
        self._ysnf = {}

    def snf_out(self, n: int) -> SmithDecomposition:
        if n not in self._snf_out:
            self._snf_out[n] = smith_normal_form(
                self.cx.diffs[n + 1], want_u=False, want_u_inv=False
            )
        return self._snf_out[n]

    def _relations(self, n: int) -> IntMatrix:
        if n not in self._yfull:
            self._yfull[n] = self.snf_out(n).v_inv @ self.cx.diffs[n]
        return self._yfull[n]

    def hspace(self, n: int, field: Field) -> _HSpace:
        snf_out = self.snf_out(n)
        r_out = _field_rank(field, snf_out)
        if (n, r_out) not in self._ysnf:
            y = self._relations(n).rows_at(range(r_out, self.cx.dimension(n)))
            self._ysnf[(n, r_out)] = smith_normal_form(
                y, want_v=False, want_v_inv=False
            )
        return _HSpace(field, snf_out, self._ysnf[(n, r_out)], r_out)


@dataclass(frozen=True)
class LesPosition:
    field: str
    degree: int
    at: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class LesReport:
    ring: Ring
    n_max: int
    groups: dict
    fields: tuple
    skipped: dict
    positions: tuple

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.positions)


def _prime_divisors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _levelwise_matrix(n: int, cx_from: RoosComplex, cx_to: RoosComplex, maps: dict) -> IntMatrix:
    rows = [[0] * cx_from.total_ranks[n] for _ in range(cx_to.total_ranks[n])]
    for i, t in enumerate(cx_to.blocks[n]):
        m = maps[t[0]]
        row_off = cx_to.offsets[n][i]
        col_off = cx_from.offsets[n][i]
        for a, mrow in enumerate(m.rows):
            target = rows[row_off + a]
            for b, x in enumerate(mrow):
                if x:
                    target[col_off + b] = x
    return IntMatrix(rows, cx_from.total_ranks[n])


def _levelwise_field_reason(e: SystemSES, field: Field) -> str | None:
    """Why the reduced levelwise sequence fails to be exact over the field,
    or None if it is exact everywhere."""
    for lam in e.mid.index.elements:
        snf_i = smith_normal_form(
            e.inject[lam], want_u=False, want_v=False, want_u_inv=False, want_v_inv=False
        )
        snf_p = smith_normal_form(
            e.project[lam], want_u=False, want_v=False, want_u_inv=False, want_v_inv=False
        )
        ri, rp = _field_rank(field, snf_i), _field_rank(field, snf_p)
        if ri != e.sub.rank(lam):
            return f"inclusion at {lam!r} loses injectivity over {field.render()}"
        if rp != e.quot.rank(lam):
            return f"projection at {lam!r} loses surjectivity over {field.render()}"
        if ri + rp != e.mid.rank(lam):
            return f"middle exactness at {lam!r} fails over {field.render()}"
    return None


def _check_position(field, field_name, degree, at, dim, in_mat: _FM, out_mat: _FM):
    problems = []
    if in_mat.ncols and out_mat.nrows:
        if not out_mat.mul(field, in_mat).is_zero():
            problems.append("composite nonzero")
    ri = in_mat.rank(field)
    ro = out_mat.rank(field)
    if ri + ro != dim:
        problems.append("rank gap")
    detail = f"rank(in)={ri} rank(out)={ro} dim={dim}"
    if problems:
        detail += " [" + ", ".join(problems) + "]"
    return LesPosition(field_name, degree, at, not problems, detail)


def les_of_ses(e: SystemSES, n_max: int, fields=None) -> LesReport:
    """Derived limits of the three systems plus field-by-field exactness of
    the long sequence through degree ``n_max``.

    ``fields`` lists characteristics: 0 for the rationals, a prime p for
    GF(p); the default is (0, 2, 3, 5) over the integers and the prime
    divisors of the modulus over a modular ring. Fields where the reduced
    levelwise sequence stops being exact are skipped with a reason rather
    than failed — no long sequence is promised there.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rep = validate_ses(e)
    if not rep.ok:
        raise ValueError(f"not a levelwise short exact sequence: {rep.violations[:3]}")
    ring = e.mid.ring
    reps = [cls[0] for cls in e.mid.index.equivalence_classes()]
    if len(reps) < len(e.mid.index):
        e = SystemSES(
            sub=e.sub.restrict(reps),
            mid=e.mid.restrict(reps),
            quot=e.quot.restrict(reps),
            inject={r: e.inject[r] for r in reps},
            project={r: e.project[r] for r in reps},
        )
    # validate_ses checked all three systems before the collapse; their
    # restrictions inherit the verdict, so build_complex only looks it up.
    # The collapsed index is a partial order: normalized complexes.
    cx_sub = build_complex(e.sub, n_max + 2, strict=True)
    cx_mid = build_complex(e.mid, n_max + 1, strict=True)
    cx_quot = build_complex(e.quot, n_max + 1, strict=True)
    groups = {}
    for n in range(n_max + 2):
        groups[("sub", n)] = cx_sub.cohomology(n)
    for n in range(n_max + 1):
        groups[("mid", n)] = cx_mid.cohomology(n)
        groups[("quot", n)] = cx_quot.cohomology(n)

    inj = {n: _levelwise_matrix(n, cx_sub, cx_mid, e.inject) for n in range(n_max + 2)}
    prj = {n: _levelwise_matrix(n, cx_mid, cx_quot, e.project) for n in range(n_max + 1)}
    for n in range(n_max + 1):
        left = cx_mid.diffs[n + 1] @ inj[n]
        right = inj[n + 1] @ cx_sub.diffs[n + 1]
        if not ring.matrices_equal(left, right):
            raise ValueError(f"inclusion is not a cochain map at degree {n}")
    for n in range(n_max):
        left = cx_quot.diffs[n + 1] @ prj[n]
        right = prj[n + 1] @ cx_mid.diffs[n + 1]
        if not ring.matrices_equal(left, right):
            raise ValueError(f"projection is not a cochain map at degree {n}")

    if fields is None:
        fields = (0, 2, 3, 5) if ring.is_integers else tuple(_prime_divisors(ring.modulus))
    data_sub, data_mid, data_quot = (
        _ComplexData(cx_sub),
        _ComplexData(cx_mid),
        _ComplexData(cx_quot),
    )
    snf_inj = {}
    snf_prj = {}
    applied = []
    skipped = {}
    positions = []
    for p in fields:
        field = Field(p)
        name = field.render()
        if not ring.is_integers and p and ring.modulus % p:
            skipped[name] = f"{p} does not divide the modulus {ring.modulus}"
            continue
        if not ring.is_integers and p == 0:
            skipped[name] = "no rational coefficients over a modular ring"
            continue
        reason = _levelwise_field_reason(e, field)
        if reason:
            skipped[name] = reason
            continue
        applied.append(name)
        h_sub = {n: data_sub.hspace(n, field) for n in range(n_max + 2)}
        h_mid = {n: data_mid.hspace(n, field) for n in range(n_max + 1)}
        h_quot = {n: data_quot.hspace(n, field) for n in range(n_max + 1)}
        f_maps = {}
        g_maps = {}
        d_maps = {}
        for n in range(n_max + 1):
            f_maps[n] = h_mid[n].map_from(inj[n] @ h_sub[n].basis)
            g_maps[n] = h_quot[n].map_from(prj[n] @ h_mid[n].basis)
            if n + 1 not in snf_inj:
                snf_inj[n + 1] = smith_normal_form(inj[n + 1], want_u_inv=False, want_v_inv=False)
            if n not in snf_prj:
                snf_prj[n] = smith_normal_form(prj[n], want_u_inv=False, want_v_inv=False)
            cols = []
            basis = h_quot[n].basis
            for j in range(basis.ncols):
                b = [field.of(row[j]) for row in basis.rows]
                c = _field_solve(field, snf_prj[n], b)
                if c is None:
                    raise ArithmeticError("connecting lift through the projection failed")
                d = _int_apply(field, cx_mid.diffs[n + 1], c)
                eo = _field_solve(field, snf_inj[n + 1], d)
                if eo is None:
                    raise ArithmeticError("connecting lift through the inclusion failed")
                if any(_int_apply(field, cx_sub.diffs[n + 2], eo)):
                    raise ArithmeticError("connecting image is not a cocycle")
                cols.append(h_sub[n + 1].coords(eo))
            d_maps[n] = _FM(
                [[col[i] for col in cols] for i in range(h_sub[n + 1].dim)],
                h_sub[n + 1].dim,
                basis.ncols,
            )
        for n in range(n_max + 1):
            incoming = (
                d_maps[n - 1]
                if n
                else _FM.zeros(field, h_sub[0].dim, 0)
            )
            positions.append(
                _check_position(field, name, n, "sub", h_sub[n].dim, incoming, f_maps[n])
            )
            positions.append(
                _check_position(field, name, n, "mid", h_mid[n].dim, f_maps[n], g_maps[n])
            )
            positions.append(
                _check_position(field, name, n, "quot", h_quot[n].dim, g_maps[n], d_maps[n])
            )
    return LesReport(
        ring=ring,
        n_max=n_max,
        groups=groups,
        fields=tuple(applied),
        skipped=skipped,
        positions=tuple(positions),
    )
