"""Tree instances: pick rule, branch states, separation certificates."""

import random
from collections import Counter

import pytest

from rooslab.coherence import EvcFun, GridFun
from rooslab.gen import random_tree_instance
from rooslab.trees import (
    TreeInstance,
    TreeReport,
    TreeStage,
    basecase_tree,
    branch_separation,
    branch_state,
    build_tree,
    pick_point,
    validate_tree,
)


def _ones_ladder(n_rungs):
    return tuple(EvcFun.of([1] * (n + 1)) for n in range(n_rungs))


def _frozen_tree(rungs=4):
    """Stage 0: outlier constant 1, rungs = longer and longer blocks of
    ones, so the picks march along row zero: (1,0), (2,0), ...  Stage 1
    lives higher (tail 2 outlier over tail-1 rungs)."""
    stage0 = (EvcFun.of([], tail=1), _ones_ladder(rungs))
    stage1 = (
        EvcFun.of([], tail=2),
        tuple(EvcFun.of([2] * (n + 1), tail=1) for n in range(rungs)),
    )
    return build_tree([stage0, stage1])


def test_pick_rule_frozen_example():
    t = _frozen_tree()
    assert t.stages[0].points == ((1, 0), (2, 0), (3, 0), (4, 0))
    assert validate_tree(t).ok
    # Depth-1 branches differ exactly on the first stage's points.
    zero, one = basecase_tree(t, 1)
    assert zero.code == (0,) and one.code == (1,)
    assert zero.state == t.base
    assert {p for p, _ in one.state.exceptions} == set(t.stages[0].points)


def test_stored_verdict_survives_mutation_of_the_callers_lists():
    out = EvcFun.of([], tail=1)
    ladder = list(_ones_ladder(3))
    points = [[1, 0], [2, 0], [3, 0]]
    stage = TreeStage(out, ladder, points)
    stages = [stage]
    t = TreeInstance(1, stages, GridFun.make(out, 2, 0, {}))
    report = validate_tree(t)
    assert report.ok
    points[2] = [0, 0]
    points.append([4, 0])
    ladder.reverse()
    stages.append(stage)
    assert t.stages == (stage,)
    assert stage.points == ((1, 0), (2, 0), (3, 0)) and stage.ladder == _ones_ladder(3)
    assert validate_tree(t) is report
    # The same lists, read afresh, make an invalid instance.
    fresh = TreeInstance(1, stages, GridFun.make(out, 2, 0, {}))
    assert not validate_tree(fresh).ok


def test_pick_scans_past_used_points():
    out = EvcFun.of([], tail=1)
    rung = EvcFun.of([1])
    assert pick_point(out, rung) == (1, 0)
    assert pick_point(out, rung, used={(1, 0), (2, 0)}) == (3, 0)
    with pytest.raises(ValueError, match="exhausted"):
        pick_point(EvcFun.of([3]), EvcFun.of([], tail=1), used={(0, 1), (0, 2)})


def test_basecase_depth_zero_and_bounds():
    t = _frozen_tree()
    (only,) = basecase_tree(t, 0)
    assert only.code == () and only.state == t.base
    assert len(basecase_tree(t, 2)) == 4
    with pytest.raises(ValueError, match="depth"):
        basecase_tree(t, 3)
    with pytest.raises(ValueError, match="binary"):
        branch_state(t, (0, 2))


def test_branch_update_formula():
    rng = random.Random(902)
    for _ in range(20):
        t = random_tree_instance(rng, max_stages=3, rungs=5)
        depth = rng.randint(0, t.length)
        code = tuple(rng.randint(0, 1) for _ in range(depth))
        state = branch_state(t, code)
        probes = [p for s in t.stages for p in s.points]
        probes += [(i, 0) for i in range(3) if t.base.carrier.contains((i, 0))]
        for x in probes:
            flips = sum(
                1
                for a, b in enumerate(code)
                if b and x in t.stages[a].points
            )
            want = (t.base.value(x) + flips) % t.base.modulus
            assert state.value(x) == want


def test_validation_reports_offenders():
    ladder = _ones_ladder(3)
    out = EvcFun.of([], tail=1)
    base = GridFun.make(EvcFun.of([], tail=5), 2, 0)
    good = TreeInstance(
        1, (TreeStage(out, ladder, ((1, 0), (2, 0), (3, 0))),), base
    )
    assert validate_tree(good).ok
    # A point inside its own rung's grid.
    bad = TreeInstance(1, (TreeStage(out, ladder, ((1, 0), (2, 0), (0, 0))),), base)
    rep = validate_tree(bad)
    assert not rep.ok
    assert any("stage 0, rung 2" in v and "inside the rung grid" in v for v in rep.violations)
    # Later pick falling where an earlier rung already reaches.
    shuffled = TreeInstance(
        1, (TreeStage(out, ladder, ((3, 0), (4, 0), (1, 0))),), base
    )
    rep2 = validate_tree(shuffled)
    assert any("prefix containment" in v for v in rep2.violations)
    # A dominated outlier.
    lame = TreeInstance(
        1,
        (TreeStage(EvcFun.of([9]), ladder, ((0, 3), (0, 4), (0, 5))),),
        base,
    )
    rep3 = validate_tree(lame)
    assert any("eventually dominates the outlier" in v for v in rep3.violations)
    # Decreasing ladder.
    down = TreeInstance(
        1,
        (TreeStage(out, (EvcFun.of([1, 1]), EvcFun.of([1])), ((2, 0), (3, 0))),),
        base,
    )
    assert any("decreases" in v for v in validate_tree(down).violations)
    with pytest.raises(ValueError, match="invalid tree"):
        basecase_tree(bad, 1)


def test_prefix_containment_holds_on_random_instances():
    rng = random.Random(903)
    for _ in range(30):
        t = random_tree_instance(rng, rungs=6)
        assert validate_tree(t).ok
        for s in t.stages:
            for n, rung in enumerate(s.ladder):
                hits = [m for m, x in enumerate(s.points) if rung.contains(x)]
                assert all(m < n for m in hits)


def test_branch_separation_frozen():
    t = _frozen_tree()
    cert = branch_separation(t, (0, 0), (1, 0))
    assert cert.split == 0
    assert cert.perturbation == 0 and cert.floor == 4
    assert cert.points == t.stages[0].points
    assert all(lv != rv for lv, rv in cert.values)
    probe = t.stages[0].points[:2]
    cert2 = branch_separation(t, (0, 0), (1, 0), probe=probe)
    assert cert2.floor == 2 and cert2.points == t.stages[0].points[2:]
    # A later differing stage perturbs: its points inside the split
    # outlier's grid are subtracted from the guarantee.
    cert3 = branch_separation(t, (0, 0), (1, 1))
    overlap = sum(
        1 for x in t.stages[1].points if t.stages[0].outlier.contains(x)
    )
    assert cert3.perturbation == overlap
    assert cert3.floor == 4 - overlap
    assert len(cert3.points) >= cert3.floor
    with pytest.raises(ValueError, match="equal"):
        branch_separation(t, (1, 0), (1, 0))
    with pytest.raises(ValueError, match="depth"):
        branch_separation(t, (1,), (0, 1))


def test_branch_separation_certificates_random():
    rng = random.Random(904)
    for _ in range(30):
        t = random_tree_instance(rng, rungs=8)
        depth = rng.randint(1, t.length)
        while True:
            left = tuple(rng.randint(0, 1) for _ in range(depth))
            right = tuple(rng.randint(0, 1) for _ in range(depth))
            if left != right:
                break
        split = next(i for i in range(depth) if left[i] != right[i])
        probe = list(rng.sample(t.stages[split].points, rng.randint(0, 4)))
        probe.append((99, 0))  # junk outside every grid is harmless
        cert = branch_separation(t, left, right, probe=probe)
        assert len(cert.points) >= cert.floor
        assert cert.stage_size == 8
        sl, sr = branch_state(t, left), branch_state(t, right)
        for x, (lv, rv) in zip(cert.points, cert.values):
            assert x in t.stages[cert.split].points
            assert x not in probe
            assert sl.value(x) == lv and sr.value(x) == rv and lv != rv


def test_build_tree_rejects_dominated_outlier():
    with pytest.raises(ValueError, match="dominates|invalid tree"):
        build_tree([(EvcFun.of([5]), (EvcFun.of([], tail=1),))])


def _inside(f, x):
    i, j = x
    return i >= 0 and 0 <= j < f.value(i)


def _below_everywhere(f, g):
    span = max(len(f.prefix), len(g.prefix))
    return f.tail <= g.tail and all(f.value(i) <= g.value(i) for i in range(span))


def _validate_tree_reference(t):
    """The quadratic check as it was before the linear verdict: an
    everywhere scan per ladder step, a tail comparison per rung, and every
    later point tested against every rung."""
    bad = []
    if t.length != len(t.stages):
        bad.append(f"length {t.length} does not match {len(t.stages)} stages")
    sizes = {len(s.ladder) for s in t.stages}
    if len(sizes) > 1:
        bad.append(f"stages disagree on ladder length: {sorted(sizes)}")
    for a, s in enumerate(t.stages):
        if len(s.points) != len(s.ladder):
            bad.append(f"stage {a}: {len(s.points)} points for {len(s.ladder)} rungs")
            continue
        for n in range(len(s.ladder) - 1):
            if not _below_everywhere(s.ladder[n], s.ladder[n + 1]):
                bad.append(f"stage {a}: ladder decreases at rung {n}")
        if len(set(s.points)) != len(s.points):
            bad.append(f"stage {a}: repeated points")
        for n, rung in enumerate(s.ladder):
            if s.outlier.tail <= rung.tail:
                bad.append(f"stage {a}, rung {n}: rung eventually dominates the outlier")
            x = s.points[n]
            if not _inside(s.outlier, x):
                bad.append(f"stage {a}, rung {n}: point {x} outside the outlier grid")
            if _inside(rung, x):
                bad.append(f"stage {a}, rung {n}: point {x} inside the rung grid")
            if not _inside(t.base.carrier, x):
                bad.append(f"stage {a}, rung {n}: point {x} outside the base carrier")
            for m in range(n + 1, len(s.points)):
                if _inside(rung, s.points[m]):
                    bad.append(
                        f"stage {a}, rung {n}: point {m} breaks the prefix containment"
                    )
    return TreeReport(not bad, tuple(bad))


def _mutants(t, rng):
    """Broken copies of a valid instance, one per kind: swapped points, a
    replaced point, swapped rungs (a falling ladder when they differ), a
    dropped point, and a stage one rung short (a ladder-length mismatch)."""
    a = rng.randrange(t.length)
    s = t.stages[a]
    size = len(s.ladder)

    def with_stage(ladder, points):
        stages = list(t.stages)
        stages[a] = TreeStage(s.outlier, ladder, points)
        return TreeInstance(t.length, stages, t.base)

    n, m = sorted(rng.sample(range(size), 2))
    points = list(s.points)
    points[n], points[m] = points[m], points[n]
    yield "swapped points", with_stage(s.ladder, points)
    points = list(s.points)
    points[n] = (rng.randrange(8), rng.randrange(5))
    yield "replaced point", with_stage(s.ladder, points)
    ladder = list(s.ladder)
    ladder[n], ladder[m] = ladder[m], ladder[n]
    yield "swapped rungs", with_stage(ladder, s.points)
    yield "dropped point", with_stage(s.ladder, s.points[:n] + s.points[n + 1:])
    yield "short stage", with_stage(s.ladder[:-1], s.points[:-1])


KINDS = (
    "decreases",
    "prefix containment",
    "inside the rung grid",
    "outside the outlier grid",
    "outside the base carrier",
    "repeated points",
    "points for",
    "disagree on ladder length",
)


def test_linear_tree_verdict_matches_the_quadratic_reference():
    rng = random.Random(905)
    drawn = mutants = 0
    kinds = Counter()
    while drawn < 320 or mutants < 3200:
        t = random_tree_instance(rng, max_stages=3, rungs=rng.choice((2, 3, 4, 8, 16)))
        want = _validate_tree_reference(t)
        assert want.ok and validate_tree(t) == want
        drawn += 1
        for _ in range(2):
            for kind, broken in _mutants(t, rng):
                want = _validate_tree_reference(broken)
                assert validate_tree(broken) == want, kind
                mutants += 1
                kinds.update(k for v in want.violations for k in KINDS if k in v)
    assert all(kinds[k] >= 50 for k in KINDS), kinds


def test_valid_stage_costs_a_few_contains_per_rung(monkeypatch):
    calls = [0]
    contains = EvcFun.contains

    def counted(self, point):
        calls[0] += 1
        return contains(self, point)

    monkeypatch.setattr(EvcFun, "contains", counted)
    rng = random.Random(906)
    for _ in range(20):
        t = random_tree_instance(rng, max_stages=1, rungs=16)
        calls[0] = 0
        assert validate_tree(t).ok
        assert calls[0] <= 4 * 16
