"""Finite laboratory for families of grid colourings.

An eventually constant function is a finite prefix of naturals plus a tail
value; the grid under it is the set of cells (column, row) with
row < value(column).  A grid colouring assigns elements of Z/k to those
cells as a default value plus a finite exception table.  Everything decided
here — domination everywhere or at all but finitely many positions,
pairwise coherence of a family within a disagreement budget, exhaustive
search for one colouring that agrees with every member up to the budget —
is computed exactly from the finite data, never sampled.  The search
memoizes its failed states, so each is searched once, and still reports
every assignment the plain lexicographic search would try.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import le


class HorizonTooSmallError(ValueError):
    """A member's grid does not fit inside the requested search horizon."""


@dataclass(frozen=True)
class EvcFun:
    """Eventually constant function on the naturals.

    ``prefix`` lists the first values; ``tail`` is the value at every later
    position.  Canonical form is enforced — the prefix never ends with the
    tail value — so equal functions compare equal as values.  Build through
    :meth:`of` to canonicalize a raw value list.
    """

    prefix: tuple[int, ...] = ()
    tail: int = 0

    def __post_init__(self):
        if self.tail < 0 or any(v < 0 for v in self.prefix):
            raise ValueError("values must be naturals")
        if self.prefix and self.prefix[-1] == self.tail:
            raise ValueError("prefix ends with the tail value; use EvcFun.of")

    @classmethod
    def of(cls, values, tail: int = 0) -> "EvcFun":
        values = list(values)
        while values and values[-1] == tail:
            values.pop()
        return cls(tuple(values), tail)

    def value(self, i: int) -> int:
        if i < 0:
            raise ValueError("positions are naturals")
        prefix = self.prefix
        return prefix[i] if i < len(prefix) else self.tail

    def contains(self, point) -> bool:
        i, j = point
        prefix = self.prefix
        return i >= 0 and 0 <= j < (prefix[i] if i < len(prefix) else self.tail)

    def cells(self) -> list[tuple[int, int]]:
        """The grid as an explicit cell list, in lexicographic order.

        Only meaningful for tail 0; a nonzero tail means the grid has a
        cell in every late column.
        """
        if self.tail:
            raise ValueError("grid is infinite (nonzero tail)")
        return [(i, j) for i, v in enumerate(self.prefix) for j in range(v)]


@dataclass(frozen=True)
class EvcComparison:
    leq_star: bool
    eq_star: bool
    leq_everywhere: bool


def evc_compare(f: EvcFun, g: EvcFun) -> EvcComparison:
    """Decide f <= g everywhere, f <= g at all but finitely many positions
    (leq_star), and f = g at all but finitely many positions (eq_star).

    Beyond both prefixes each function sits at its tail, so the cofinite
    relations reduce to tail comparison and the everywhere relation to a
    finite scan; all three answers are exact.
    """
    fp, gp = f.prefix, g.prefix
    everywhere = (
        f.tail <= g.tail
        and all(map(le, fp, gp))
        and all(v <= g.tail for v in fp[len(gp):])
        and all(f.tail <= v for v in gp[len(fp):])
    )
    return EvcComparison(
        leq_star=f.tail <= g.tail,
        eq_star=f.tail == g.tail,
        leq_everywhere=everywhere,
    )


def evc_join(f: EvcFun, g: EvcFun) -> EvcFun:
    """Pointwise maximum: the least upper bound for everywhere domination."""
    span = max(len(f.prefix), len(g.prefix))
    return EvcFun.of(
        [max(f.value(i), g.value(i)) for i in range(span)], max(f.tail, g.tail)
    )


def evc_meet(f: EvcFun, g: EvcFun) -> EvcFun:
    """Pointwise minimum; its grid is the overlap of the two grids."""
    span = max(len(f.prefix), len(g.prefix))
    return EvcFun.of(
        [min(f.value(i), g.value(i)) for i in range(span)], min(f.tail, g.tail)
    )


def _require_in_carrier(carrier: EvcFun, point) -> None:
    if not carrier.contains(point):
        raise ValueError(f"exception point {point} outside the carrier grid")


@dataclass(frozen=True)
class GridFun:
    """Z/``modulus``-valued colouring of the grid under ``carrier``.

    ``exceptions`` is a sorted tuple of ((column, row), value) pairs and is
    kept minimal: points are distinct, lie inside the carrier grid, and the
    values never equal ``default``.  :meth:`make` canonicalizes a raw
    mapping (reduces modulo k, drops entries equal to the default).
    """

    carrier: EvcFun
    modulus: int
    default: int
    exceptions: tuple = ()

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not 0 <= self.default < self.modulus:
            raise ValueError("default value out of range")
        prev = None
        for point, v in self.exceptions:
            if prev is not None and point <= prev:
                raise ValueError("exception table must be sorted by point")
            prev = point
            _require_in_carrier(self.carrier, point)
            if not 0 <= v < self.modulus:
                raise ValueError(f"exception value at {point} out of range")
            if v == self.default:
                raise ValueError(f"exception at {point} equals the default")
        object.__setattr__(self, "_table", dict(self.exceptions))

    @classmethod
    def make(cls, carrier, modulus, default=0, exceptions=None) -> "GridFun":
        """Reducing modulo k, dropping the defaults and sorting leave one
        fact of the invariant to check: each point lies in the carrier grid.
        It is checked once, in sorted order, so the least bad point is
        named, and the construction checks are not run again."""
        default %= modulus
        table = {}
        for point, v in (exceptions or {}).items():
            v %= modulus
            if v != default:
                table[tuple(point)] = v
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        exceptions = tuple(sorted(table.items()))
        for point, _ in exceptions:
            _require_in_carrier(carrier, point)
        self = object.__new__(cls)
        for name, value in (
            ("carrier", carrier),
            ("modulus", modulus),
            ("default", default),
            ("exceptions", exceptions),
            ("_table", table),
        ):
            object.__setattr__(self, name, value)
        return self

    def value(self, point) -> int:
        return self._table.get(point, self.default)

    def table(self) -> dict:
        return dict(self.exceptions)

    def shifted(self, points, amount: int = 1) -> "GridFun":
        """Colouring with ``amount`` added (mod k) at each listed point;
        repeated points accumulate."""
        counts = {}
        for p in points:
            p = tuple(p)
            if not self.carrier.contains(p):
                raise ValueError(f"shift point {p} outside the carrier grid")
            counts[p] = counts.get(p, 0) + 1
        table = {p: v for p, v in self.exceptions}
        for p, c in counts.items():
            table[p] = (self.value(p) + amount * c) % self.modulus
        return GridFun.make(self.carrier, self.modulus, self.default, table)


@dataclass(frozen=True)
class FamilySpec:
    """Finite family of grid colourings with pairwise distinct carriers,
    all over the same modulus.  ``members`` pairs each carrier with its
    colouring; the colouring's carrier must be that same function.
    """

    modulus: int
    members: tuple

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        members = tuple((f, phi) for f, phi in self.members)
        object.__setattr__(self, "members", members)
        seen = set()
        for i, (f, phi) in enumerate(members):
            if not isinstance(f, EvcFun):
                raise ValueError(f"member {i}: carrier is not an EvcFun")
            if phi.carrier != f:
                raise ValueError(f"member {i}: colouring lives on a different carrier")
            if phi.modulus != self.modulus:
                raise ValueError(
                    f"member {i}: modulus {phi.modulus} differs from the family's {self.modulus}"
                )
            if f in seen:
                raise ValueError(f"member {i}: duplicate carrier")
            seen.add(f)

    @classmethod
    def of(cls, modulus, colourings) -> "FamilySpec":
        return cls(modulus, tuple((phi.carrier, phi) for phi in colourings))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PairDisagreement:
    first: int
    second: int
    points: tuple
    infinite: bool
    witness: tuple | None
    ok: bool


@dataclass(frozen=True)
class CoherenceReport:
    budget: object
    pairs: tuple

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)


def coherence_check(family: FamilySpec, budget="finite") -> CoherenceReport:
    """Pairwise disagreement of the members on their grid overlaps.

    When two defaults agree, disagreements can only sit at exception
    points, so the set is computed exactly even over an infinite overlap.
    When the defaults differ, a finite overlap is enumerated exactly, and
    an infinite one makes the disagreement cofinite: the pair is flagged
    infinite with a witness region (start column, height) in which every
    cell disagrees.  Budget "finite" accepts any finite disagreement set;
    a numeric budget accepts at most that many points per pair.
    """
    if budget != "finite" and (not isinstance(budget, int) or budget < 0):
        raise ValueError('budget must be a natural number or "finite"')
    pairs = []
    members = family.members
    for a in range(len(members)):
        fa, pa = members[a]
        for b in range(a + 1, len(members)):
            fb, pb = members[b]
            overlap = evc_meet(fa, fb)
            infinite = False
            witness = None
            if pa.default == pb.default:
                cand = {p for p, _ in pa.exceptions} | {p for p, _ in pb.exceptions}
                points = tuple(
                    sorted(
                        p
                        for p in cand
                        if overlap.contains(p) and pa.value(p) != pb.value(p)
                    )
                )
            elif overlap.tail == 0:
                points = tuple(
                    p for p in overlap.cells() if pa.value(p) != pb.value(p)
                )
            else:
                start = max(
                    [len(fa.prefix), len(fb.prefix)]
                    + [p[0] + 1 for p, _ in chain(pa.exceptions, pb.exceptions)]
                )
                points = ()
                infinite = True
                witness = (start, overlap.tail)
            ok = not infinite and (budget == "finite" or len(points) <= budget)
            pairs.append(PairDisagreement(a, b, points, infinite, witness, ok))
    return CoherenceReport(budget, tuple(pairs))


@dataclass(frozen=True)
class TrivializationReport:
    found: GridFun | None
    budget: int
    horizon: int
    cells: tuple
    space: int
    explored: int


def _check_horizon(family: FamilySpec, horizon: int) -> None:
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    for i, (f, _) in enumerate(family.members):
        if f.tail:
            raise HorizonTooSmallError(
                f"member {i}: nonzero tail {f.tail}, the grid exceeds every horizon"
            )
        if len(f.prefix) > horizon or any(v > horizon for v in f.prefix):
            raise HorizonTooSmallError(
                f"member {i}: grid leaves the {horizon} x {horizon} square"
            )


def trivialize_report(
    family: FamilySpec, budget: int, horizon: int
) -> TrivializationReport:
    """Exhaustive search for one colouring of the union grid that disagrees
    with every member at most ``budget`` times on that member's grid.

    Deterministic: cells are ordered lexicographically and values tried in
    increasing order, so the witness returned is the lexicographically
    least one.  ``space`` certifies exhaustiveness when nothing is found —
    it is the full number of candidate colourings the search covered
    (modulus to the number of union cells).

    The depth-first search runs on an explicit stack, one level per cell,
    so its depth is not bounded by Python's recursion limit.  A subtree
    depends only on its cell index and the vector of per-member misses, and
    the search stops at its first success, so a state met again has already
    failed: each level remembers the failed miss vectors with the number of
    assignments their subtrees tried, and a revisit adds that number instead
    of searching again.  ``explored`` is therefore still the count of every
    assignment the plain lexicographic search tries.

    The miss vector is packed into one int: each member has a field of
    ``budget.bit_length() + 1`` bits starting at ``top - budget``, where
    ``top`` is the field's largest value, and a guard bit above it that
    turns on exactly when the member's misses exceed the budget.  Trying
    value v at cell t is then one addition of ``step[t][v]`` (a 1 in the
    field of every member that v misses there) and one test of the guards.
    """
    if not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be a natural number")
    _check_horizon(family, horizon)
    k = family.modulus
    cells = sorted({c for f, _ in family.members for c in f.cells()})
    n = len(cells)
    index = {c: t for t, c in enumerate(cells)}
    width = budget.bit_length() + 1
    top = (1 << width) - 1
    start = guard = 0
    step = [[0] * k for _ in cells]
    for m, (f, phi) in enumerate(family.members):
        shift = m * (width + 1)
        start |= (top - budget) << shift
        guard |= 1 << (shift + width)
        for c in f.cells():
            row, want = step[index[c]], phi.value(c)
            for v in range(k):
                if v != want:
                    row[v] += 1 << shift

    # failed[t]: miss vector on entering cell t -> assignments its subtree
    # tried; failed[n] stays empty, reaching cell n is success.
    failed = [{} for _ in range(n + 1)]
    state = [start] * n  # miss vector on entering each cell of the path
    resume = [0] * n  # next value to try at each cell; on success, its value + 1
    entered = [0] * n  # explored when the path entered each cell
    explored = 0
    t = 0
    while 0 <= t < n:
        here, row, below = state[t], step[t], failed[t + 1]
        v = resume[t]
        while v < k:
            explored += 1
            after = here + row[v]
            v += 1
            if after & guard:
                continue
            tries = below.get(after)
            if tries is None:
                break
            explored += tries
        else:
            failed[t][here] = explored - entered[t]
            t -= 1
            continue
        resume[t] = v
        t += 1
        if t < n:
            state[t], resume[t], entered[t] = after, 0, explored

    found = None
    if t == n:
        carrier = EvcFun.of(())
        for f, _ in family.members:
            carrier = evc_join(carrier, f)
        found = GridFun.make(
            carrier, k, 0, {c: v - 1 for c, v in zip(cells, resume)}
        )
    return TrivializationReport(
        found, budget, horizon, tuple(cells), k ** len(cells), explored
    )


def trivialize(family: FamilySpec, budget: int, horizon: int) -> GridFun | None:
    """The witness from :func:`trivialize_report`, or None."""
    return trivialize_report(family, budget, horizon).found
