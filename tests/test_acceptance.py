"""Acceptance gate: the twelve advertised guarantees, one test and one
printed pass/fail line each (run with -s or -rP to see the lines).

Each test regenerates its instances from a fixed seed, so the batches are
stable across runs; the two time-budgeted tests assert their wall-clock
bounds as part of the verdict.  Random index orders are resampled when the
degree-4 complex would exceed a dimension cap: quasi-orders with large
equivalence classes make tuple counts grow geometrically, and the stated
runtime budgets are only meetable on instances below the cap.
"""

import random
import time
from itertools import product

from rooslab.category import corepresented_system, nerve_complex
from rooslab.coherence import EvcFun, FamilySpec, GridFun, trivialize_report
from rooslab.complexes import build_complex, derived_limit, limit_complex, limit_direct
from rooslab.les import les_of_ses
from rooslab.gen import (
    random_category,
    random_cofinal_subset,
    random_quasi_order,
    random_ses,
    random_system,
    random_tree_instance,
)
from rooslab.linalg import GroupInvariants, IntMatrix, Ring, cohomology_at
from rooslab.orders import QuasiOrder, chains
from rooslab.systems import InverseSystem
from rooslab.trees import branch_separation, branch_state

from oracle_complexes import contract, delta, random_cochain
from oracle_linalg import differential, is_zero_over


def _report(num: int, ok: bool, summary: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {summary}")
    assert ok, f"{num:02d} {summary}"


def _degree4_dimension(s: InverseSystem) -> int:
    return sum(s.rank(t[0]) for t in chains(s.index, 4))


def _capped_system(rng, cap: int, **kw) -> InverseSystem:
    while True:
        s = random_system(rng, max_rank=3, lo=-3, hi=3, **kw)
        if _degree4_dimension(s) <= cap:
            return s


def _batch_200():
    rng = random.Random(20260823)
    return [_capped_system(rng, 2000, max_elements=5) for _ in range(200)]


def test_01_differentials_square_to_zero():
    start = time.perf_counter()
    bad = 0
    for s in _batch_200():
        cx = build_complex(s, 4)
        for n in range(4):
            if not is_zero_over(s.ring, differential(cx, n + 1) @ differential(cx, n)):
                bad += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        bad == 0 and elapsed <= 60.0,
        f"cochain validity: consecutive differentials compose to zero on 200 "
        f"random systems through degree 4 ({bad} failures, {elapsed:.1f}s <= 60s)",
    )


def test_02_degree_zero_matches_direct_limit():
    bad = sum(1 for s in _batch_200() if derived_limit(s, 0) != limit_direct(s))
    _report(
        2,
        bad == 0,
        f"degree-0 oracle: complex kernel equals the equalizer limit on the "
        f"same 200 systems ({bad} disagreements)",
    )


def test_03_cofinal_restriction_invariance():
    rng = random.Random(3033)
    bad = 0
    for _ in range(100):
        s = _capped_system(rng, 1200, max_elements=4, ensure_max=True)
        sub = s.restrict(random_cofinal_subset(rng, s.index))
        if any(derived_limit(s, n) != derived_limit(sub, n) for n in range(4)):
            bad += 1
    _report(
        3,
        bad == 0,
        f"cofinal invariance: degrees 0..3 agree between 100 directed systems "
        f"and their random cofinal restrictions ({bad} disagreements)",
    )


def test_04_maximum_element_forces_vanishing():
    rng = random.Random(3044)
    bad = 0
    for _ in range(100):
        s = _capped_system(rng, 1200, max_elements=4, ensure_max=True)
        if any(not derived_limit(s, n).is_trivial for n in (1, 2, 3)):
            bad += 1
    _report(
        4,
        bad == 0,
        f"vanishing above degree 0: 100 systems with a maximum have trivial "
        f"limits in degrees 1..3 ({bad} failures)",
    )


def test_05_cospan_witness_against_cokernel_oracle():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    ring = Ring.integers()
    s = InverseSystem(
        q,
        ring,
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): IntMatrix([[2]]), ("x", "z"): IntMatrix([[2]])},
    )
    lim0 = derived_limit(s, 0)
    lim1 = derived_limit(s, 1)
    # Independent route: the difference map (a, b) -> 2a - 2b lands in the
    # bottom object; its cokernel is the degree-1 invariant of a cospan.
    oracle = cohomology_at(IntMatrix([[2, -2]]), IntMatrix.zeros(0, 1), ring)
    ok = (
        lim0 == GroupInvariants.free(1)
        and lim1 == GroupInvariants(0, (2,))
        and lim1 == oracle
    )
    _report(
        5,
        ok,
        f"doubling cospan: degree 0 = {lim0}, degree 1 = {lim1}, "
        f"cokernel oracle = {oracle}",
    )


def test_06_corepresented_nerves_are_acyclic():
    rng = random.Random(3066)
    bad = 0
    for _ in range(50):
        cat = random_category(rng, max_objects=3, max_morphisms=8)
        base = rng.choice(cat.objects)
        copies = rng.randint(0, 2)
        fun = corepresented_system(cat, base, copies=copies)
        cx = nerve_complex(cat, fun, 4)
        if cx.cohomology(0) != GroupInvariants.free(copies) or any(
            not cx.cohomology(n).is_trivial for n in (1, 2, 3)
        ):
            bad += 1
    _report(
        6,
        bad == 0,
        f"corepresented acyclicity: 50 random categories, nerve cohomology is "
        f"free of the chosen rank in degree 0 and zero in degrees 1..3 "
        f"({bad} failures)",
    )


def test_07_contraction_identity_entrywise():
    rng = random.Random(3077)
    bad = 0
    for _ in range(100):
        s = _capped_system(rng, 1200, max_elements=3, ensure_max=True)
        top = s.index.maximum()
        degree = rng.randint(1, 3)
        cx = build_complex(s, degree + 1)
        u = random_cochain(rng, cx, degree)
        lhs = delta(contract(u, top, s))
        rhs = contract(delta(u), top, s) - u.scale((-1) ** (degree + 1))
        if lhs.vector != rhs.vector:
            bad += 1
    _report(
        7,
        bad == 0,
        f"contraction identity: 100 random cochains in degrees 1..3 satisfy "
        f"the coboundary-contraction relation entrywise ({bad} failures)",
    )


def test_08_long_exact_sequence_over_four_fields():
    rng = random.Random(3088)
    bad = 0
    for i in range(70):
        e = random_ses(rng, max_elements=4, split=(i < 50))
        rep = les_of_ses(e, 3)
        if (
            rep.fields != ("Q", "GF(2)", "GF(3)", "GF(5)")
            or len(rep.positions) != 48
            or not rep.ok
        ):
            bad += 1
    _report(
        8,
        bad == 0,
        f"long exact sequence: 50 split + 20 coupled levelwise systems exact "
        f"at all 48 positions over Q, GF(2), GF(3), GF(5), degrees 0..3 "
        f"({bad} failures)",
    )


def _carrier_universe(columns: int, height: int):
    return [
        EvcFun.of(list(heights))
        for heights in product(range(height + 1), repeat=columns)
    ]


def _oracle_agrees(fam: FamilySpec, budget: int, horizon: int) -> bool:
    rep = trivialize_report(fam, budget, horizon)
    cells = rep.cells
    if rep.space != 2 ** len(cells):
        return False
    flat = None
    for values in product(range(2), repeat=len(cells)):
        table = dict(zip(cells, values))
        if all(
            sum(1 for c in f.cells() if table[c] != phi.value(c)) <= budget
            for f, phi in fam.members
        ):
            flat = values
            break
    if flat is None:
        return rep.found is None
    if rep.found is None:
        return False
    return tuple(rep.found.value(c) for c in cells) == flat


def test_09_trivialization_matches_flat_enumeration():
    checked = 0
    bad = 0

    def run(phi_f, phi_g):
        nonlocal checked, bad
        fam = FamilySpec.of(2, [phi_f, phi_g])
        for budget in (0, 1, 2):
            checked += 1
            if not _oracle_agrees(fam, budget, horizon=8):
                bad += 1

    # Every two-member instance over two columns of height <= 2: all ordered
    # carrier pairs, all colourings of both grids.
    small = _carrier_universe(2, 2)
    for f in small:
        for g in small:
            if f == g:
                continue
            fc, gc = f.cells(), g.cells()
            for fv in product(range(2), repeat=len(fc)):
                for gv in product(range(2), repeat=len(gc)):
                    run(
                        GridFun.make(f, 2, 0, dict(zip(fc, fv))),
                        GridFun.make(g, 2, 0, dict(zip(gc, gv))),
                    )

    # All carrier pairs over three columns of height <= 2, random colourings.
    rng = random.Random(3099)
    mid = _carrier_universe(3, 2)
    for f in mid:
        for g in mid:
            if f == g:
                continue
            run(
                GridFun.make(f, 2, 0, {c: rng.randint(0, 1) for c in f.cells()}),
                GridFun.make(g, 2, 0, {c: rng.randint(0, 1) for c in g.cells()}),
            )

    # Sampled pairs over the full 12-cell grid (four columns, height <= 3).
    big = [f for f in _carrier_universe(4, 3) if f.cells()]
    for _ in range(40):
        f, g = rng.sample(big, 2)
        run(
            GridFun.make(f, 2, 0, {c: rng.randint(0, 1) for c in f.cells()}),
            GridFun.make(g, 2, 0, {c: rng.randint(0, 1) for c in g.cells()}),
        )

    _report(
        9,
        bad == 0,
        f"search equivalence: witness search matches the flat enumeration on "
        f"{checked} two-member instances over grids of <= 12 cells, budgets "
        f"0..2 ({bad} disagreements)",
    )


def test_10_branch_separation_certificates():
    rng = random.Random(3100)
    bad = 0
    pairs = 0
    for _ in range(50):
        t = random_tree_instance(rng, max_stages=4, rungs=16)
        codes = list(product((0, 1), repeat=t.length))
        states = {code: branch_state(t, code) for code in codes}
        for i, left in enumerate(codes):
            for right in codes[i + 1 :]:
                split = next(k for k in range(t.length) if left[k] != right[k])
                pool = list(t.stages[split].points)
                probe = rng.sample(pool, min(len(pool), rng.randint(0, 4)))
                cert = branch_separation(t, left, right, probe=probe)
                pairs += 1
                if cert.split != split:
                    bad += 1
                    continue
                if len(cert.points) < 16 - cert.perturbation - len(probe):
                    bad += 1
                    continue
                lv, rv = states[left], states[right]
                if any(lv.value(p) == rv.value(p) for p in cert.points):
                    bad += 1
    _report(
        10,
        bad == 0,
        f"branch separation: {pairs} branch pairs across 50 instances of 16 "
        f"rungs certify >= 16 - perturbation - probe genuine disagreements, "
        f"every certified point rechecked ({bad} failures)",
    )


def test_11_strict_tuple_variant_agrees():
    # The default route (collapse, then strictly increasing tuples) against
    # the degenerate-tuple complex of the system as given, each built once.
    def disagrees(s):
        normalized = limit_complex(s, 4)
        degenerate = limit_complex(s, 4, degenerate=True)
        return any(normalized.cohomology(n) != degenerate.cohomology(n) for n in range(4))

    rng = random.Random(3111)
    bad = 0
    for _ in range(50):
        index = random_quasi_order(rng, 5, partial=True)
        s = random_system(rng, index=index, max_rank=3, lo=-3, hi=3)
        bad += disagrees(s)
    quasi = 0
    while quasi < 30:
        s = _capped_system(rng, 300, max_elements=4)
        if s.index.is_partial():
            continue
        quasi += 1
        bad += disagrees(s)
    _report(
        11,
        bad == 0,
        f"degenerate-tuple equivalence: the normalized complex of the collapsed "
        f"index and the degenerate-tuple complex give identical invariants in "
        f"degrees 0..3 on 50 partial orders and {quasi} quasi-orders with "
        f"nontrivial equivalence classes ({bad} disagreements)",
    )


def test_12_twelve_chain_performance_floor():
    labels = [f"t{i:02d}" for i in range(12)]
    q = QuasiOrder(labels, [(a, b) for a, b in zip(labels, labels[1:])])
    s = InverseSystem(
        q,
        Ring.integers(),
        {e: 1 for e in labels},
        {(a, b): IntMatrix([[1]]) for a, b in zip(labels, labels[1:])},
    )
    start = time.perf_counter()
    cx = build_complex(s, 3)
    h2 = cx.cohomology(2)
    elapsed = time.perf_counter() - start
    counts = [len(cx.blocks[n]) for n in range(4)]
    ok = counts == [12, 78, 364, 1365] and h2.is_trivial and elapsed <= 10.0
    _report(
        12,
        ok,
        f"performance floor: 12-chain blocks {counts}, degree-2 cohomology "
        f"{h2} in {elapsed:.2f}s <= 10s",
    )
