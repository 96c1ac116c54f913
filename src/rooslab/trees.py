"""Two-branch tree bookkeeping over materialized escape points.

A tree instance stacks stages; each stage holds a weakly increasing ladder
of eventually constant functions, an outlier function that escapes every
rung infinitely often, and one materialized escape point per rung (inside
the outlier's grid, outside the rung's).  Branches are binary codes over
the stages: following bit 1 at a stage shifts the running base colouring by
one at that stage's points.  Because a stage's points avoid all its rungs
up to a finite prefix, two branches that split at a stage keep a certified,
recheckable set of cells where their colourings must differ — everything
here is finite data with explicit bounds, never a claim about the
unmaterialized tails.  Each instance is checked once: ``validate_tree``
stores its verdict on the immutable instance.  The check is linear in the
rungs on a valid stage: on a rising ladder, prefix containment holds
exactly when rung m-1 misses point m for every m, and the pairwise scan
that names each breach runs only when that test fails or the ladder falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .coherence import EvcFun, GridFun, evc_compare, evc_join


@dataclass(frozen=True)
class TreeStage:
    outlier: EvcFun
    ladder: tuple
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "ladder", tuple(self.ladder))
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))


@dataclass(frozen=True)
class TreeInstance:
    """Immutable: ``validate_tree`` stores its verdict on it (``_report``)."""

    length: int
    stages: tuple
    base: GridFun
    _report: TreeReport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def stage_size(self) -> int:
        """Rungs (and points) per stage; validation requires all equal."""
        return len(self.stages[0].ladder) if self.stages else 0


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    violations: tuple


def validate_tree(t: TreeInstance) -> TreeReport:
    """Every invariant of the instance, each violation naming its stage and
    rung: ladders weakly increase, outliers escape every rung cofinally,
    points sit in the outlier grid minus the rung grid and inside the base
    colouring's carrier, no stage repeats a point, and a stage's points hit
    rung n's grid only among the first n picks (prefix containment). The
    violations come in that order for each stage, and each rung's prefix
    breaches follow its own checks. Stored on the instance."""
    if t._report is not None:
        return t._report
    bad = []
    if t.length != len(t.stages):
        bad.append(f"length {t.length} does not match {len(t.stages)} stages")
    sizes = {len(s.ladder) for s in t.stages}
    if len(sizes) > 1:
        bad.append(f"stages disagree on ladder length: {sorted(sizes)}")
    carrier = t.base.carrier
    for a, s in enumerate(t.stages):
        ladder, points, outlier = s.ladder, s.points, s.outlier
        if len(points) != len(ladder):
            bad.append(f"stage {a}: {len(points)} points for {len(ladder)} rungs")
            continue
        rises = True
        for n in range(len(ladder) - 1):
            low, high = ladder[n], ladder[n + 1]
            if low != high and not evc_compare(low, high).leq_everywhere:
                bad.append(f"stage {a}: ladder decreases at rung {n}")
                rises = False
        if len(set(points)) != len(points):
            bad.append(f"stage {a}: repeated points")
        # On a rising ladder rung n's grid lies inside rung m-1's for n < m,
        # so no earlier rung reaches point m when rung m-1 misses it.
        nested = rises and not any(
            ladder[m - 1].contains(points[m]) for m in range(1, len(points))
        )
        for n, rung in enumerate(ladder):
            if outlier.tail <= rung.tail:
                bad.append(f"stage {a}, rung {n}: rung eventually dominates the outlier")
            x = points[n]
            if not outlier.contains(x):
                bad.append(f"stage {a}, rung {n}: point {x} outside the outlier grid")
            if rung.contains(x):
                bad.append(f"stage {a}, rung {n}: point {x} inside the rung grid")
            if not carrier.contains(x):
                bad.append(f"stage {a}, rung {n}: point {x} outside the base carrier")
            if nested:
                continue
            for m in range(n + 1, len(points)):
                if rung.contains(points[m]):
                    bad.append(
                        f"stage {a}, rung {n}: point {m} breaks the prefix containment"
                    )
    object.__setattr__(t, "_report", TreeReport(not bad, tuple(bad)))
    return t._report


def _checked(t: TreeInstance) -> None:
    rep = validate_tree(t)
    if not rep.ok:
        raise ValueError(f"invalid tree instance: {list(rep.violations[:3])}")


def _code(bits, length: int):
    bits = tuple(bits)
    if len(bits) > length:
        raise ValueError(f"branch of depth {len(bits)} in a tree of length {length}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("branch codes are binary")
    return bits


def branch_state(t: TreeInstance, bits) -> GridFun:
    """The base colouring shifted by one at the points of every stage the
    branch passes with bit 1."""
    bits = _code(bits, t.length)
    bumped = []
    for a, b in enumerate(bits):
        if b:
            bumped.extend(t.stages[a].points)
    return t.base.shifted(bumped)


@dataclass(frozen=True)
class Branch:
    code: tuple
    state: GridFun


def basecase_tree(t: TreeInstance, depth: int) -> tuple[Branch, ...]:
    """All 2^depth branch states, codes in lexicographic order."""
    _checked(t)
    if not 0 <= depth <= t.length:
        raise ValueError(f"depth must lie in [0, {t.length}]")
    return tuple(
        Branch(bits, branch_state(t, bits)) for bits in product((0, 1), repeat=depth)
    )


@dataclass(frozen=True)
class SeparationCertificate:
    """Cells provably colouring two branches apart.

    ``points`` are the split stage's materialized points minus the probe
    set and minus every point of a later stage where the branches also
    differ; at each, the two branch states are evaluated and recorded in
    ``values``.  ``floor`` = stage size - perturbation - probe size is the
    guaranteed lower bound on how many such cells survive, where the
    perturbation counts later differing stages' points inside the split
    outlier's grid.
    """

    split: int
    points: tuple
    values: tuple
    perturbation: int
    probe_size: int
    floor: int
    stage_size: int


def branch_separation(t: TreeInstance, left, right, probe=()) -> SeparationCertificate:
    _checked(t)
    left = _code(left, t.length)
    right = _code(right, t.length)
    if len(left) != len(right):
        raise ValueError("branches must have equal depth")
    if left == right:
        raise ValueError("branches are equal; nothing separates them")
    split = next(a for a in range(len(left)) if left[a] != right[a])
    stage = t.stages[split]
    probe_set = {tuple(p) for p in probe}
    later = [a for a in range(split + 1, len(left)) if left[a] != right[a]]
    perturbation = sum(
        1 for a in later for x in t.stages[a].points if stage.outlier.contains(x)
    )
    touched = {x for a in later for x in t.stages[a].points}
    state_l = branch_state(t, left)
    state_r = branch_state(t, right)
    points = []
    values = []
    for x in stage.points:
        if x in probe_set or x in touched:
            continue
        lv, rv = state_l.value(x), state_r.value(x)
        if lv == rv:
            raise RuntimeError(f"certified point {x} fails its own recheck")
        points.append(x)
        values.append((lv, rv))
    floor = len(stage.points) - perturbation - len(probe_set)
    return SeparationCertificate(
        split=split,
        points=tuple(points),
        values=tuple(values),
        perturbation=perturbation,
        probe_size=len(probe_set),
        floor=floor,
        stage_size=len(stage.points),
    )


def pick_point(outlier: EvcFun, rung: EvcFun, used=()):
    """Lexicographically least cell of the outlier's grid outside the
    rung's grid and not in ``used``.  Always terminates: when the rung
    eventually dominates, the escape region is confined to the prefixes and
    exhaustion raises instead of scanning forever."""
    used = set(used)
    escape_is_finite = evc_compare(outlier, rung).leq_star
    span = max(len(outlier.prefix), len(rung.prefix))
    i = 0
    while True:
        if escape_is_finite and i >= span:
            raise ValueError("escape cells exhausted: the rung eventually dominates")
        for j in range(rung.value(i), outlier.value(i)):
            if (i, j) not in used:
                return (i, j)
        i += 1


def build_tree(stages, modulus: int = 2, base: GridFun | None = None) -> TreeInstance:
    """Assemble a validated instance from (outlier, ladder) pairs, picking
    each rung's point by the rule of :func:`pick_point` with points unused
    across the whole tree.  The base colouring defaults to all zeros on the
    join of every function involved."""
    used = set()
    built = []
    carrier = EvcFun.of(())
    for outlier, ladder in stages:
        points = []
        for rung in ladder:
            x = pick_point(outlier, rung, used)
            used.add(x)
            points.append(x)
        built.append(TreeStage(outlier, ladder, points))
        carrier = evc_join(carrier, outlier)
        for rung in ladder:
            carrier = evc_join(carrier, rung)
    if base is None:
        base = GridFun.make(carrier, modulus, 0, {})
    t = TreeInstance(len(built), built, base)
    _checked(t)
    return t
