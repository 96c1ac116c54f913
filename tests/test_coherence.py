"""Eventually constant functions, grid colourings, coherence, trivialization."""

import random
from itertools import product

import pytest

from rooslab.coherence import (
    EvcFun,
    FamilySpec,
    GridFun,
    HorizonTooSmallError,
    coherence_check,
    evc_compare,
    evc_join,
    evc_meet,
    trivialize,
    trivialize_report,
)
from rooslab.gen import random_evc_fun, random_family


def test_evc_canonical_form():
    assert EvcFun.of([2, 1, 0, 0]) == EvcFun((2, 1), 0)
    assert EvcFun.of([1, 1, 1], tail=1) == EvcFun((), 1)
    assert EvcFun.of([]).value(7) == 0
    f = EvcFun.of([2, 1])
    assert [f.value(i) for i in range(4)] == [2, 1, 0, 0]
    with pytest.raises(ValueError, match="canonical|tail value"):
        EvcFun((2, 0), 0)
    with pytest.raises(ValueError, match="natural"):
        EvcFun((-1,), 0)
    with pytest.raises(ValueError, match="natural"):
        f.value(-1)


def test_evc_cells_and_contains():
    f = EvcFun.of([2, 1])
    assert f.cells() == [(0, 0), (0, 1), (1, 0)]
    assert f.contains((0, 1)) and not f.contains((1, 1))
    g = EvcFun.of([], tail=1)
    assert g.contains((100, 0)) and not g.contains((100, 1))
    with pytest.raises(ValueError, match="infinite"):
        g.cells()


def test_evc_compare_frozen():
    f = EvcFun.of([5])
    same = evc_compare(f, f)
    assert same.leq_star and same.eq_star and same.leq_everywhere
    c = evc_compare(EvcFun.of([5]), EvcFun.of([], tail=1))
    assert c.leq_star and not c.leq_everywhere and not c.eq_star
    c2 = evc_compare(EvcFun.of([], tail=2), EvcFun.of([], tail=1))
    assert not c2.leq_star and not c2.eq_star and not c2.leq_everywhere


def test_evc_compare_matches_scan():
    rng = random.Random(404)
    for _ in range(150):
        f = random_evc_fun(rng, max_prefix=8, max_value=4, tails=(0, 1, 2, 3, 4))
        g = random_evc_fun(rng, max_prefix=8, max_value=4, tails=(0, 1, 2, 3, 4))
        c = evc_compare(f, g)
        span = max(len(f.prefix), len(g.prefix)) + 1
        scan_ok = all(f.value(i) <= g.value(i) for i in range(span))
        assert c.leq_everywhere == (scan_ok and f.tail <= g.tail)
        # Violations beyond the prefixes exist exactly when the tails flip.
        assert c.leq_star == (f.tail <= g.tail)
        assert c.eq_star == (f.tail == g.tail)


def test_evc_join_meet():
    assert evc_join(EvcFun.of([3]), EvcFun.of([], tail=1)) == EvcFun((3,), 1)
    rng = random.Random(405)
    for _ in range(80):
        f = random_evc_fun(rng, tails=(0, 1, 2))
        g = random_evc_fun(rng, tails=(0, 1, 2))
        j = evc_join(f, g)
        m = evc_meet(f, g)
        assert evc_join(f, f) == f
        assert evc_compare(f, j).leq_everywhere
        assert evc_compare(g, j).leq_everywhere
        # Least among upper bounds: any bound built above both dominates j.
        h = evc_join(j, random_evc_fun(rng, tails=(0, 1, 2)))
        assert evc_compare(j, h).leq_everywhere
        for i in range(8):
            for row in range(5):
                both = f.contains((i, row)) and g.contains((i, row))
                assert m.contains((i, row)) == both


def test_gridfun_validation():
    f = EvcFun.of([2, 1])
    with pytest.raises(ValueError, match="outside the carrier"):
        GridFun(f, 2, 0, (((1, 1), 1),))
    with pytest.raises(ValueError, match="equals the default"):
        GridFun(f, 2, 0, (((0, 0), 0),))
    with pytest.raises(ValueError, match="sorted"):
        GridFun(f, 2, 0, (((1, 0), 1), ((0, 0), 1)))
    with pytest.raises(ValueError, match="modulus"):
        GridFun(f, 1, 0)
    with pytest.raises(ValueError, match="sorted"):
        GridFun(f, 2, 0, (((0, 0), 1), ((0, 0), 1)))
    with pytest.raises(ValueError, match=r"value at \(0, 1\) out of range"):
        GridFun(f, 2, 0, (((0, 1), 2),))
    with pytest.raises(ValueError, match="default value out of range"):
        GridFun(f, 2, 2)
    # make checks its one remaining fact in sorted order: the least bad
    # point is named, whatever order the mapping lists them in.
    with pytest.raises(ValueError, match=r"point \(1, 5\) outside the carrier"):
        GridFun.make(f, 2, 0, {(3, 0): 1, (0, 0): 1, (1, 5): 1})
    with pytest.raises(ValueError, match="modulus"):
        GridFun.make(f, 1, 0, {(0, 0): 1})
    phi = GridFun.make(f, 2, 0, {(0, 0): 3, (0, 1): 2})
    assert phi.exceptions == (((0, 0), 1),)  # 3 reduced, 2 dropped as default
    assert phi.value((0, 0)) == 1 and phi.value((1, 0)) == 0
    bumped = phi.shifted([(1, 0), (1, 0)], amount=1)
    assert bumped.value((1, 0)) == 0  # two bumps cancel mod 2
    assert phi.shifted([(1, 0)]).value((1, 0)) == 1


def _make_reference(carrier, modulus, default, exceptions):
    """GridFun.make as it was: canonicalize, then every construction check."""
    default %= modulus
    table = {}
    for point, v in exceptions.items():
        v %= modulus
        if v != default:
            table[tuple(point)] = v
    return GridFun(carrier, modulus, default, tuple(sorted(table.items())))


def _outcome(build, *args):
    try:
        phi = build(*args)
    except ValueError as err:
        return str(err)
    return phi, phi.table(), [phi.value((i, j)) for i in range(6) for j in range(6)]


def test_make_matches_the_fully_checked_construction():
    rng = random.Random(405)
    errors = 0
    for _ in range(400):
        f = random_evc_fun(rng, tails=(0, 1, 2))
        modulus = rng.choice((1, 2, 3, 5))
        table = {
            (rng.randrange(7), rng.randrange(4)): rng.randrange(-6, 7)
            for _ in range(rng.randrange(6))
        }
        default = rng.randrange(-3, 4)
        want = _outcome(_make_reference, f, modulus, default, table)
        assert _outcome(GridFun.make, f, modulus, default, table) == want
        errors += isinstance(want, str)
    assert 100 <= errors <= 300


def test_family_validation():
    f = EvcFun.of([1])
    g = EvcFun.of([2])
    phi_f = GridFun.make(f, 2, 0)
    phi_g = GridFun.make(g, 2, 0)
    FamilySpec(2, ((f, phi_f), (g, phi_g)))
    with pytest.raises(ValueError, match="duplicate carrier"):
        FamilySpec(2, ((f, phi_f), (f, phi_f)))
    with pytest.raises(ValueError, match="different carrier"):
        FamilySpec(2, ((f, phi_g),))
    with pytest.raises(ValueError, match="modulus"):
        FamilySpec(3, ((f, phi_f),))


def _two_column_family():
    f = EvcFun.of([2, 1])
    g = EvcFun.of([1, 2])
    phi_f = GridFun.make(f, 2, 0, {(0, 0): 1})
    phi_g = GridFun.make(g, 2, 0)
    return FamilySpec(2, ((f, phi_f), (g, phi_g)))


def test_coherence_frozen_two_columns():
    fam = _two_column_family()
    overlap = evc_meet(fam.members[0][0], fam.members[1][0])
    assert overlap.cells() == [(0, 0), (1, 0)]
    rep0 = coherence_check(fam, 0)
    assert not rep0.ok
    assert rep0.pairs[0].points == ((0, 0),)
    assert coherence_check(fam, 1).ok
    assert coherence_check(fam, "finite").ok


def test_coherence_infinite_disagreement():
    f = EvcFun.of([3], tail=1)
    g = EvcFun.of([], tail=2)
    fam = FamilySpec(
        2,
        (
            (f, GridFun.make(f, 2, 0, {(0, 2): 1})),
            (g, GridFun.make(g, 2, 1)),
        ),
    )
    rep = coherence_check(fam, "finite")
    assert not rep.ok
    pair = rep.pairs[0]
    assert pair.infinite and pair.points == ()
    start, height = pair.witness
    assert height == 1
    # Every cell in the witness region genuinely disagrees.
    for i in range(start, start + 5):
        for j in range(height):
            pf, pg = fam.members[0][1], fam.members[1][1]
            assert pf.value((i, j)) != pg.value((i, j))


def test_coherence_finite_overlap_despite_defaults():
    f = EvcFun.of([2])
    g = EvcFun.of([], tail=3)
    fam = FamilySpec(
        2,
        (
            (f, GridFun.make(f, 2, 0)),
            (g, GridFun.make(g, 2, 1, {(0, 0): 0})),
        ),
    )
    rep = coherence_check(fam, "finite")
    assert rep.ok
    assert rep.pairs[0].points == ((0, 1),)
    assert not coherence_check(fam, 0).ok
    assert coherence_check(fam, 1).ok


def test_coherence_symmetric_and_monotone():
    rng = random.Random(406)
    for _ in range(30):
        fam = random_family(rng, defaults=(0, 0, 1), max_exceptions=4)
        rep = coherence_check(fam, "finite")
        flipped = FamilySpec(fam.modulus, tuple(reversed(fam.members)))
        rep_flip = coherence_check(flipped, "finite")
        key = lambda members, p: frozenset(
            (members[p.first][0], members[p.second][0])
        )
        forward = {
            key(fam.members, p): (set(p.points), p.infinite) for p in rep.pairs
        }
        backward = {
            key(flipped.members, p): (set(p.points), p.infinite)
            for p in rep_flip.pairs
        }
        assert forward == backward
        for b in range(4):
            if coherence_check(fam, b).ok:
                assert coherence_check(fam, b + 1).ok
                assert rep.ok


def test_trivialize_frozen_two_columns():
    fam = _two_column_family()
    rep = trivialize_report(fam, 0, horizon=4)
    assert rep.found is None
    assert rep.space == 2 ** 4 and len(rep.cells) == 4
    psi = trivialize(fam, 1, horizon=4)
    assert psi is not None
    assert psi.exceptions == ()  # the all-zero colouring
    assert psi.carrier == EvcFun.of([2, 2])


def test_trivialize_glues_under_a_maximum():
    top = EvcFun.of([2, 2])
    small = EvcFun.of([1])
    phi_top = GridFun.make(top, 2, 0, {(0, 0): 1, (1, 1): 1})
    phi_small = GridFun.make(small, 2, 0, {(0, 0): 1})
    fam = FamilySpec(2, ((small, phi_small), (top, phi_top)))
    assert coherence_check(fam, 0).ok
    psi = trivialize(fam, 0, horizon=4)
    assert psi is not None
    assert psi.carrier == top
    assert psi.exceptions == phi_top.exceptions


def test_trivialize_matches_flat_enumeration():
    rng = random.Random(407)
    for _ in range(25):
        while True:
            fam = random_family(
                rng, max_members=3, defaults=(0, 1), max_exceptions=3, tails=(0,)
            )
            if len({c for f, _ in fam.members for c in f.cells()}) <= 12:
                break
        budget = rng.randint(0, 2)
        rep = trivialize_report(fam, budget, horizon=9)
        cells = rep.cells
        oracle = None
        for values in product(range(2), repeat=len(cells)):
            table = dict(zip(cells, values))
            if all(
                sum(1 for c in f.cells() if table[c] != phi.value(c)) <= budget
                for f, phi in fam.members
            ):
                oracle = values
                break
        if oracle is None:
            assert rep.found is None
        else:
            assert rep.found is not None
            got = tuple(rep.found.value(c) for c in cells)
            assert got == oracle  # lexicographically least, bit for bit
        assert rep.space == 2 ** len(cells)


def _reference_search(family, budget):
    """The plain recursive lexicographic search: the least witness as a
    value per union cell (or None) and the number of assignments tried."""
    k = family.modulus
    cells = sorted({c for f, _ in family.members for c in f.cells()})
    index = {c: t for t, c in enumerate(cells)}
    wants = [[] for _ in cells]
    for m, (f, phi) in enumerate(family.members):
        for c in f.cells():
            wants[index[c]].append((m, phi.value(c)))
    misses = [0] * len(family.members)
    assignment = [0] * len(cells)
    explored = 0

    def search(t):
        nonlocal explored
        if t == len(cells):
            return True
        for v in range(k):
            explored += 1
            assignment[t] = v
            failed_at = None
            for pos, (m, want) in enumerate(wants[t]):
                if v != want:
                    misses[m] += 1
                    if misses[m] > budget:
                        failed_at = pos
                        break
            if failed_at is None:
                if search(t + 1):
                    return True
                undo = len(wants[t])
            else:
                undo = failed_at + 1
            for m, want in wants[t][:undo]:
                if v != want:
                    misses[m] -= 1
        return False

    return (tuple(assignment) if search(0) else None), explored


def test_trivialize_memo_matches_the_plain_search():
    # The memo of failed miss vectors must change neither the witness nor
    # the count of assignments the plain search tries.
    rng = random.Random(409)
    for _ in range(2000):
        k = rng.choice((2, 3))
        fam = random_family(
            rng, max_members=5, modulus=k, defaults=tuple(range(k)),
            max_exceptions=4, tails=(0,),
        )
        budget = rng.randint(0, 4)
        rep = trivialize_report(fam, budget, horizon=9)
        witness, explored = _reference_search(fam, budget)
        got = None if rep.found is None else tuple(rep.found.value(c) for c in rep.cells)
        assert got == witness
        assert rep.explored == explored


def test_trivialize_budget_zero_iff_exact_gluing():
    rng = random.Random(408)
    for _ in range(40):
        fam = random_family(rng, defaults=(0, 1), max_exceptions=3, tails=(0,))
        found = trivialize(fam, 0, horizon=9)
        assert (found is not None) == coherence_check(fam, 0).ok


def test_trivialize_horizon_errors():
    f = EvcFun.of([], tail=1)
    fam = FamilySpec(2, ((f, GridFun.make(f, 2, 0)),))
    with pytest.raises(HorizonTooSmallError, match="tail"):
        trivialize(fam, 0, horizon=100)
    g = EvcFun.of([3])
    fam2 = FamilySpec(2, ((g, GridFun.make(g, 2, 0)),))
    with pytest.raises(HorizonTooSmallError, match="square"):
        trivialize(fam2, 0, horizon=2)
    assert trivialize(fam2, 0, horizon=3) is not None
    with pytest.raises(ValueError, match="budget"):
        trivialize(fam2, -1, horizon=3)
    with pytest.raises(ValueError, match="budget"):
        coherence_check(fam2, "all")


def test_trivialize_empty_and_single():
    empty = FamilySpec(2, ())
    rep = trivialize_report(empty, 0, horizon=0)
    assert rep.found is not None and rep.space == 1 and rep.cells == ()
    f = EvcFun.of([2])
    phi = GridFun.make(f, 3, 0, {(0, 1): 2})
    fam = FamilySpec(3, ((f, phi),))
    psi = trivialize(fam, 0, horizon=3)
    assert psi.exceptions == phi.exceptions
