"""Long exact sequence verification for levelwise short exact sequences.

A levelwise short exact sequence of systems induces a degreewise short
exact sequence of cochain complexes, and over any coefficient field where
the reduced levelwise sequence stays exact, the cohomologies thread into a
long exact sequence through connecting maps. ``les_of_ses`` computes the
base-ring derived limits of all three systems and then verifies exactness
of the long sequence position by position over several fields. Levelwise,
the sequence is one of free modules over R = Z or Z/m that ``validate_ses``
proves exact; with a free quotient it splits, so it stays exact over Q and
every GF(p) when R = Z, and over GF(p) for every p dividing m.

The field-side linear algebra is ``linalg.eliminate``, the elimination of
``invariant_factors`` too: reduced row echelon form by unit pivots over a
field (or the base ring of a shared run, below), through ``_echelon``. It
reads a complex's rows as they are, and ``linalg.columns`` gives their
columns. Ranks are its pivot counts. A cocycle's coordinates are its
entries at the free (pivot-less) columns of d_out; the coboundaries, the
columns of d_in, are brought to echelon form in those coordinates, and a
class's coordinates are a cocycle's coordinates reduced modulo that form,
read at the free columns where it has no pivot. The kernel vector with a 1
at one such column and 0 at every other free column represents the matching
standard basis class. The two connecting-map lifts are multi-column solves:
the echelon form of the lifting map with the right-hand sides riding along
as extra columns.

Each induced map (f_n into the middle, g_n onto the quotient, and the
connecting map) is the out-map at one position and the in-map at the next;
it is ranked once per run and its rank read at both. The levelwise maps
are read in the sparse form ``linalg.sparse`` keeps on each matrix.

Over Z or Z/m one run can serve every field. When more than one applies,
the route first runs once over the base ring R, whose units alone are
pivots (+-1 over Z, residues prime to m over Z/m). A run that completes
left no row and made only row operations invertible over R, and its pivot
rows are 1 at their pivot and 0 at every other pivot, so over Q and mod
each p it is a complete run with the same pivots, ranks and dimensions.
Every composite, cocycle and lift check that is zero over R is zero over
each field, and a position records only ranks and dimensions, so each field
takes the run's positions under its own name when every position holds.
When a row is left with no unit to pivot on, on any ArithmeticError or on
a failing position the run is dropped and every field runs on its own, as
it does when only one field applies, where a shared run saves nothing.

The route pays only for the spaces the core carries; on a one-point core
every cochain space above degree 0 is zero. ``_echelon`` never sees an empty
list of rows: a rank of no vectors, or of zero vectors only, is 0, a
cohomology whose neighbouring space is zero has no differential to
eliminate, and a solve with no rows or no right-hand sides has the zero
solutions. Every zero-dimensional space shares one empty cohomology object.
A position whose in-map or out-map is empty has a zero composite without a
scan, and a cochain-map square whose product has no rows or no columns is
the same empty matrix on both sides, so it is not multiplied. Every check
still runs wherever it can fail.

Nor does the route run past the core's height h, one less than the number
of entries of its longest strict chain (``_height``). A normalized cochain
sits on a strict chain, so C^k = 0 for every k > h in all three complexes:
every group above h is trivial, every map into or out of a zero space is
zero, and every position above h reads rank(in)=0 rank(out)=0 dim=0 and
holds. The complexes, groups, cochain-map checks and field loop run to
degree min(n_max, h) (sub one degree further), and the degrees above are
filled in by that shape, which no input can make fail.

All three systems and both levelwise maps are first restricted to the
homotopy-final core of the index (``systems.core_elements``: equivalence
classes collapsed to representatives, then up beat points removed), which
leaves every derived limit and every map of the long sequence unchanged, a
reduction the test suite checks against the collapsed index and the
degenerate-tuple oracle. ``validate_ses`` proves the three indices equal, so
the index is restricted once, the three systems onto that one order, and its
strict chains are enumerated once for all three complexes, the normalized
(strict-tuple) ones on that partial order. The levelwise maps commute with
every face, so they are cochain maps of the normalized complexes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .complexes import RoosComplex, build_complex
from .linalg import GroupInvariants, Ring, columns, eliminate, product, sparse
from .orders import QuasiOrder, chains_upto
from .systems import SystemSES, core_elements, require_exact

# Miller-Rabin with the primes up to 41 as bases decides primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n >= _PRIME_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: the primality test is proven "
            f"only below {_PRIME_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Field:
    """The rationals (modulus 0) or a prime field GF(p), acting on plain
    scalars, with the ``modulus``, ``norm`` and ``unit`` of ``linalg.Ring``.

    Rational scalars are ints or ``fractions.Fraction``; prime-field scalars
    are ints normalized to [0, p).
    """

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus and not _is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")

    def render(self) -> str:
        return "Q" if self.modulus == 0 else f"GF({self.modulus})"

    norm = Ring.norm

    def unit(self, x):
        """Inverse of a nonzero scalar; a rational +-1 stays an int."""
        if x == 1 or x == -1:
            return x
        return pow(x, -1, self.modulus) if self.modulus else 1 / Fraction(x)


def _axpy(field: Field, target: dict, c, source: dict) -> None:
    """target += c * source in place, touching only source's entries."""
    k = field.modulus
    for j, y in source.items():
        z = target.get(j, 0) + c * y
        if k:
            z %= k
        if z:
            target[j] = z
        else:
            target.pop(j, None)


def _combine(field: Field, columns: list, coeffs: dict) -> dict:
    """The sparse vector sum of coeffs[k] * columns[k]."""
    out = {}
    for k, c in coeffs.items():
        _axpy(field, out, c, columns[k])
    return out


def _echelon(field, rows, width) -> tuple[dict, list]:
    """``linalg.eliminate``; an ArithmeticError when a row is left with an
    entry below ``width``, which only the base ring of a shared run leaves."""
    pivots, rest = eliminate(rows, field, width)
    if rest and any(j < width for row in rest for j in row):
        raise ArithmeticError(f"no unit pivot over {field.render()}")
    return pivots, rest


def _pivots(field: Field, rows: list, width) -> dict:
    """The pivot rows of ``_echelon``; a list of empty rows, or of none, has
    none."""
    return _echelon(field, rows, width)[0] if any(rows) else {}


def _rank(field: Field, vectors) -> int:
    return len(_pivots(field, vectors, math.inf))


def _solve(field: Field, rows: list, width: int, rhs: list, what: str) -> list:
    """Solutions x_k of A x_k = rhs[k], free coordinates zero, for the matrix
    A with sparse ``rows`` and ``width`` columns. With no right-hand side
    there is nothing to solve; with no rows, each right-hand side is the
    empty vector and x_k = 0."""
    if not (rows and rhs):
        return [{} for _ in rhs]
    augmented = [dict(row) for row in rows]
    for k, b in enumerate(rhs):
        for i, x in b.items():
            augmented[i][width + k] = x
    pivots, rest = _echelon(field, augmented, width)
    if rest:
        raise ArithmeticError(f"connecting lift through the {what} failed")
    solutions = [{} for _ in rhs]
    for j, row in pivots.items():
        for c, x in row.items():
            if c >= width:
                solutions[c - width][j] = x
    return solutions


class _Cohomology:
    """H^n of one complex over one field, in coordinates.

    ``coords`` takes an ambient cocycle (sparse) to its class in the
    coordinates of ``basis``, whose k-th vector, an ambient cocycle, maps to
    the k-th standard vector. Build one with ``_cohomology``.
    """

    __slots__ = ("field", "basis", "_out", "_relations", "_position")

    def __init__(self, field: Field, d_out_rows: list, d_in_cols: list, ambient: int):
        self.field = field
        out = _pivots(field, d_out_rows, ambient)
        coboundaries = [
            {j: x for j, x in col.items() if j not in out} for col in d_in_cols
        ]
        relations = _pivots(field, coboundaries, ambient)
        classes = [j for j in range(ambient) if j not in out and j not in relations]
        self.basis = [
            {q: 1, **{p: field.norm(-row[q]) for p, row in out.items() if q in row}}
            for q in classes
        ]
        self._out = out
        self._relations = relations
        self._position = {q: k for k, q in enumerate(classes)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, cocycle: dict) -> dict:
        w = {j: x for j, x in cocycle.items() if j not in self._out}
        for j, row in self._relations.items():
            if j in w:
                _axpy(self.field, w, -w[j], row)
        return {self._position[j]: x for j, x in w.items()}


# H^n of a zero-dimensional space, one object for every field: it has no
# basis, no relations, and its only cocycle, the empty one, has no coordinates.
_ZERO_COHOMOLOGY = _Cohomology(None, [], [], 0)


def _cohomology(field: Field, d_out_rows: list, d_in_cols: list, ambient: int) -> _Cohomology:
    return _Cohomology(field, d_out_rows, d_in_cols, ambient) if ambient else _ZERO_COHOMOLOGY


class LesPosition(NamedTuple):
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


# Trial division for the default fields of Z/m stops here; what is left of m
# must then pass _is_prime.
_TRIAL_BOUND = 1 << 16


def _prime_divisors(modulus: int) -> list[int]:
    out = []
    m, d = modulus, 2
    while d < _TRIAL_BOUND and d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        if m >= _PRIME_BOUND or not _is_prime(m):
            raise ValueError(
                f"cannot find the prime divisors of the modulus {modulus}: {m} has "
                f"no prime factor below {_TRIAL_BOUND} and is not provably prime; "
                "name the fields with --fields"
            )
        out.append(m)
    return out


def _levelwise_matrix(n: int, cx_from: RoosComplex, cx_to: RoosComplex, table) -> list:
    """The levelwise maps in degree n, from C^n of cx_from to C^n of cx_to,
    as one block-diagonal sparse matrix: at the block of each tuple t, the
    sparse form of the map ``table`` holds at its first entry."""
    rows = []
    for t, col_off in zip(cx_to.blocks[n], cx_from.offsets[n]):
        rows += ({col_off + b: x for b, x in row.items()} for row in sparse(table[t[0]]))
    return rows


def _height(q: QuasiOrder) -> int:
    """One less than the number of entries of a longest strict chain of the
    partial order q: no strict tuple has more entries, so a normalized
    complex on q has no cochains above this degree."""
    up = q.up_sets()
    height = {}
    # Strictly above e, an element has a strictly smaller up-set: visiting
    # elements by the size of their up-sets settles every one above e first.
    for e in sorted(q.elements, key=lambda e: len(up[e])):
        height[e] = max((height[b] + 1 for b in up[e] if b != e), default=0)
    return max(height.values(), default=0)


def _check_position(field, name, degree, at, dim, in_map: list, out_map: list, ri: int, ro: int):
    """Exactness at one position over the field rendered as ``name``; each
    map is the list of its columns, the classes of the images of its source
    basis, and ``ri`` and ``ro`` are the ranks of the in-map and the
    out-map. With either map empty the composite has no column or sums no
    term, so it is zero without a scan."""
    problems = []
    if in_map and out_map and any(_combine(field, out_map, col) for col in in_map):
        problems.append("composite nonzero")
    if ri + ro != dim:
        problems.append("rank gap")
    detail = f"rank(in)={ri} rank(out)={ro} dim={dim}"
    if problems:
        detail += " [" + ", ".join(problems) + "]"
    return LesPosition(name, degree, at, not problems, detail)


def les_of_ses(e: SystemSES, n_max: int, fields=None) -> LesReport:
    """Derived limits of the three systems plus field-by-field exactness of
    the long sequence through degree ``n_max``.

    ``fields`` lists characteristics: 0 for the rationals, a prime p for
    GF(p); the default is (0, 2, 3, 5) over the integers and the prime
    divisors of the modulus over a modular ring (a ValueError when what
    trial division below ``_TRIAL_BOUND`` leaves of it is not provably
    prime); a repeated characteristic counts once. A field is skipped, with
    its reason, only when the ring rules it out (Q, or a prime not dividing
    m, over Z/m); over every other field the split levelwise sequence stays
    exact.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    require_exact(e)
    ring = e.mid.ring
    # validate_ses proved the three orders equal, so the core of one order is
    # the core of each, and all three systems restrict onto that one order,
    # keeping their passing verdicts: build_complex only looks them up.
    index = e.mid.index
    keep = core_elements(index)
    sub, mid, quot = e.sub, e.mid, e.quot
    if len(keep) < len(index):
        index = index.restrict(keep)
        sub, mid, quot = (s._onto(index) for s in (sub, mid, quot))
    # The core is a partial order: normalized complexes, with no cochains
    # above its height. The route runs to top = min(n_max, height) only, on
    # one enumeration of its strict chains.
    top = min(n_max, _height(index))
    blocks = chains_upto(index, top + 2, strict=True)
    cx_sub = build_complex(sub, top + 2, strict=True, blocks=blocks)
    cx_mid = build_complex(mid, top + 1, strict=True, blocks=blocks)
    cx_quot = build_complex(quot, top + 1, strict=True, blocks=blocks)
    groups = {}
    trivial = GroupInvariants.trivial()
    for n in range(n_max + 2):
        groups[("sub", n)] = cx_sub.cohomology(n) if n <= top + 1 else trivial
    for n in range(n_max + 1):
        groups[("mid", n)] = cx_mid.cohomology(n) if n <= top else trivial
        groups[("quot", n)] = cx_quot.cohomology(n) if n <= top else trivial

    inj = {n: _levelwise_matrix(n, cx_sub, cx_mid, e.inject) for n in range(top + 2)}
    prj = {n: _levelwise_matrix(n, cx_mid, cx_quot, e.project) for n in range(top + 1)}
    # Both sides of a cochain-map square are C^n(from) -> C^{n+1}(to); with
    # either space zero they are the same empty matrix.
    for n in range(top + 1):
        if cx_sub.dimension(n) and cx_mid.dimension(n + 1):
            left = product(cx_mid.diffs[n + 1], inj[n])
            right = product(inj[n + 1], cx_sub.diffs[n + 1])
            if not ring.equal(left, right):
                raise ValueError(f"inclusion is not a cochain map at degree {n}")
    for n in range(top):
        if cx_mid.dimension(n) and cx_quot.dimension(n + 1):
            left = product(cx_quot.diffs[n + 1], prj[n])
            right = product(prj[n + 1], cx_mid.diffs[n + 1])
            if not ring.equal(left, right):
                raise ValueError(f"projection is not a cochain map at degree {n}")

    if fields is None:
        fields = (0, 2, 3, 5) if ring.is_integers else tuple(_prime_divisors(ring.modulus))
    complexes = {"sub": cx_sub, "mid": cx_mid, "quot": cx_quot}
    diff_cols = {
        part: [columns(d, w) for d, w in zip(cx.diffs, (0, *cx.total_ranks))]
        for part, cx in complexes.items()
    }
    inj_cols = {n: columns(m, cx_sub.dimension(n)) for n, m in inj.items()}
    prj_cols = {n: columns(m, cx_mid.dimension(n)) for n, m in prj.items()}
    applied = {}
    skipped = {}
    for p in dict.fromkeys(fields):
        field = Field(p)
        name = field.render()
        if not ring.is_integers and p and ring.modulus % p:
            skipped[name] = f"{p} does not divide the modulus {ring.modulus}"
        elif not ring.is_integers and p == 0:
            skipped[name] = "no rational coefficients over a modular ring"
        else:
            applied[name] = field

    def run(field, name) -> list:
        """The positions of the long sequence over the field, as ``name``."""
        h = {}
        for part, cx in complexes.items():
            for n in range(cx.n_max):
                h[part, n] = _cohomology(
                    field, cx.diffs[n + 1], diff_cols[part][n], cx.dimension(n)
                )
        positions = []
        d_prev, rd_prev = [], 0
        for n in range(top + 1):
            f = [h["mid", n].coords(_combine(field, inj_cols[n], b)) for b in h["sub", n].basis]
            g = [h["quot", n].coords(_combine(field, prj_cols[n], b)) for b in h["mid", n].basis]
            # Connecting map: lift each class of quot through the projection,
            # apply the middle differential, pull back through the inclusion.
            lifts = _solve(field, prj[n], cx_mid.dimension(n), h["quot", n].basis, "projection")
            images = _solve(
                field,
                inj[n + 1],
                cx_sub.dimension(n + 1),
                [_combine(field, diff_cols["mid"][n + 1], c) for c in lifts],
                "inclusion",
            )
            if any(_combine(field, diff_cols["sub"][n + 2], v) for v in images):
                raise ArithmeticError("connecting image is not a cocycle")
            d = [h["sub", n + 1].coords(v) for v in images]
            rf, rg, rd = _rank(field, f), _rank(field, g), _rank(field, d)
            positions += (
                _check_position(field, name, n, "sub", h["sub", n].dim, d_prev, f, rd_prev, rf),
                _check_position(field, name, n, "mid", h["mid", n].dim, f, g, rf, rg),
                _check_position(field, name, n, "quot", h["quot", n].dim, g, d, rg, rd),
            )
            d_prev, rd_prev = d, rd
        # Every space above the height is zero, and so is every map there.
        for n in range(top + 1, n_max + 1):
            positions += (
                LesPosition(name, n, at, True, "rank(in)=0 rank(out)=0 dim=0")
                for at in ("sub", "mid", "quot")
            )
        return positions

    # One run over the base ring serves every field when it completes on unit
    # pivots and every position holds; else each field runs on its own.
    shared = None
    if len(applied) > 1:
        try:
            base = run(ring, None)
        except ArithmeticError:
            pass
        else:
            if all(p.ok for p in base):
                shared = base
    positions = []
    for name, field in applied.items():
        if shared is None:
            positions += run(field, name)
        else:
            positions += [tuple.__new__(LesPosition, (name,) + p[1:]) for p in shared]
    return LesReport(
        ring=ring,
        n_max=n_max,
        groups=groups,
        fields=tuple(applied),
        skipped=skipped,
        positions=tuple(positions),
    )
