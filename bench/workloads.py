"""Seeded benchmark workloads: the input documents, the CLI calls that make
up one operation, and the untimed answer check that follows it.

A workload draws its instances straight from the program's own generators
(``rooslab.gen``, with the acceptance-gate settings), in their natural
proportions, all from ``random.Random(f"{workload}/{seed}")``.  The only
instances dropped are those over a shape cap stated next to the workload.
The workload's pass is an evenly spaced sample (every k-th instance in shape
order) of a large pool; for systems and grid families, whose cost varies
most, it is taken per stratum of shape, each stratum in its natural share as
measured once over 20,000 draws (``measure_shares``).  Either way two seeds
give passes of nearly the same mix and cost.  The harness measures whole
passes, so the inputs a run measures do not depend on how fast the program
is.  Instances are chosen by shape at generation, never by measured time or
by whether they fail.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from rooslab.coherence import EvcFun, FamilySpec, GridFun
from rooslab.complexes import limit_direct
from rooslab.gen import random_category, random_ses, random_system, random_tree_instance
from rooslab.io import (
    family_to_doc,
    render_invariants,
    ses_to_doc,
    system_to_doc,
    tree_to_doc,
    write_document,
)
from rooslab.linalg import GroupInvariants, IntMatrix, Ring
from rooslab.orders import QuasiOrder, chains
from rooslab.systems import InverseSystem
from rooslab.trees import branch_state


@dataclass
class Op:
    """One operation: ``calls`` are CLI argument lists (each run with
    --json); ``check`` gets their parsed reports and returns None or what is
    wrong."""

    label: str
    calls: list
    check: Callable[[list], str | None]


# limits: systems from random_system with the acceptance-gate settings (at
# most 5 index elements, every other draw with an adjoined maximum, ranks
# <= 3, entries in [-3, 3], rings Z, Z, Z/2, Z/3, Z/4), keeping those of
# degree-4 dimension <= GATE_CAP.  Z/m systems with degree-4 dimension above
# ZM_CAP are left out too: one costs 2 to 50 s, more than a run can hold
# steadily.  About 6% of draws fall to the two caps.
GATE_CAP = 1200
ZM_CAP = 300
DIMENSION_BANDS = (25, 100, 200, 300, 600, GATE_CAP)
# Share of each draw_system stratum (ring is Z, band of degree-4
# dimension) among the kept systems, as measure_shares(draw_system, 20_000)
# measures it.  A pass holds each stratum in this share, every k-th within
# it by dimension, so two seeds' passes differ only inside the strata.
SYSTEM_SHARES = {
    (False, 0): 0.3220, (False, 1): 0.1741, (False, 2): 0.0628, (False, 3): 0.0233,
    (True, 0): 0.2139, (True, 1): 0.1114, (True, 2): 0.0424, (True, 3): 0.0180,
    (True, 4): 0.0176, (True, 5): 0.0146,
}
LIMIT_POOL = 4000
LIMIT_SYSTEMS = 300
LIMIT_NERVES = 60
CHAIN_LENGTH = 12
CHAIN_BOND = 2
CHAIN_DEGREE = 2
# les-coupled: random_ses over Z with up to 4 index elements, every other
# one split, ordered by the degree-6 dimension of the middle system (les
# --max-degree 3 works up to there; of the dimensions tried, it tracks an
# operation's time best).
LES_POOL = 2000
LES_SEQUENCES = 500

FIELDS = ["Q", "GF(2)", "GF(3)", "GF(5)"]


def _dimension(s: InverseSystem, degree: int) -> int:
    """Rank of the degree-``degree`` cochain module of s's Roos complex."""
    return sum(s.rank(t[0]) for t in chains(s.index, degree))


def evenly(pool: list, picks: int) -> list:
    """``picks`` evenly spaced items of ``pool``, a list in shape order."""
    n = len(pool)
    if picks > n:
        raise ValueError(f"{picks} picks from a pool of {n}")
    return [pool[(2 * i + 1) * n // (2 * picks)] for i in range(picks)]


def apportion(shares: dict, total: int) -> dict:
    """Whole counts summing to ``total`` in proportion to ``shares``
    (largest remainder)."""
    scale = total / sum(shares.values())
    counts = {key: int(share * scale) for key, share in shares.items()}
    short = total - sum(counts.values())
    for key in sorted(shares, key=lambda k: counts[k] - shares[k] * scale)[:short]:
        counts[key] += 1
    return counts


def fill(rng, draw, shares: dict, picks: int, least: int) -> list:
    """``picks`` instances: each stratum in its share, every k-th of the
    stratum's instances in shape order.  ``draw(rng, i)`` gives the i-th
    draw as (stratum, shape, instance), or None for one over a cap; drawing
    goes on past ``least`` until every stratum can give its count."""
    need = apportion(shares, picks)
    strata = defaultdict(list)
    i = 0
    while i < least or any(len(strata[key]) < n for key, n in need.items()):
        got = draw(rng, i)
        i += 1
        if got is not None:
            strata[got[0]].append(got[1:])
    out = []
    for key, n in need.items():
        if n:
            out += evenly(sorted(strata[key], key=lambda item: item[0]), n)
    return out


def measure_shares(draw, draws: int) -> dict:
    """Share of each stratum among the kept ones of ``draws`` draws; this
    measured SYSTEM_SHARES and FAMILY_SHARES (draws=20_000)."""
    rng = random.Random("shares")
    counts = defaultdict(int)
    for i in range(draws):
        got = draw(rng, i)
        if got is not None:
            counts[got[0]] += 1
    kept = sum(counts.values())
    return {key: round(n / kept, 4) for key, n in sorted(counts.items())}


def _limit_op(label, path, system) -> Op:
    def check(reports):
        direct = render_invariants(limit_direct(system))
        if reports[0]["results"]["lim^0"] != direct:
            return f"lim^0 {reports[0]['results']['lim^0']} != equalizer {direct}"
        if system.index.maximum() is not None:
            for n in (1, 2, 3):
                if reports[n]["results"][f"lim^{n}"] != "0":
                    return f"lim^{n} nonzero although the index has a maximum"
        return None

    calls = [["limit", "--system", path, "--degree", str(n)] for n in range(4)]
    return Op(label, calls, check)


def _chain_system() -> InverseSystem:
    labels = [f"t{i:02d}" for i in range(CHAIN_LENGTH)]
    q = QuasiOrder(labels, list(zip(labels, labels[1:])))
    return InverseSystem(
        q,
        Ring.integers(),
        {e: 1 for e in labels},
        {pair: IntMatrix([[CHAIN_BOND]]) for pair in zip(labels, labels[1:])},
    )


def _chain_op(label, path) -> Op:
    key = f"lim^{CHAIN_DEGREE}"

    def check(reports):
        got = reports[0]["results"][key]
        return None if got == "0" else f"{key} of a chain is {got}, not 0"

    return Op(label, [["limit", "--system", path, "--degree", str(CHAIN_DEGREE)]], check)


def _category_doc(cat) -> dict:
    """Category document with morphisms renamed to strings m0, m1, ..."""
    name = {m: f"m{i}" for i, m in enumerate(cat.morphism_names)}
    return {
        "objects": list(cat.objects),
        "morphisms": {name[m]: [cat.src(m), cat.tgt(m)] for m in cat.morphism_names},
        "identities": {o: name[m] for o, m in cat.identity.items()},
        "compose": [
            [name[g], name[f], name[cat.compose(g, f)]]
            for g in cat.morphism_names
            for f in cat.morphism_names
            if cat.tgt(f) == cat.src(g)
        ],
    }


def _nerve_op(label, path, base, rank) -> Op:
    def check(reports):
        rep = reports[0]
        if not rep["ok"] or len(rep["verdicts"]) != 4:
            return "nerve verdicts do not all pass"
        expected = render_invariants(GroupInvariants.free(rank))
        if rep["results"]["H^0"] != expected:
            return f"H^0 {rep['results']['H^0']} != {expected}"
        return None

    calls = [["nerve", "--category", path, "--object", base, "--rank", str(rank)]]
    return Op(label, calls, check)


def draw_system(rng, i: int):
    """The i-th gate-generator system (every other one with a maximum) as
    (stratum, degree-4 dimension, system), or None if over a cap."""
    s = random_system(rng, max_rank=3, lo=-3, hi=3, max_elements=5, ensure_max=i % 2 == 0)
    d4 = _dimension(s, 4)
    if d4 > GATE_CAP or (not s.ring.is_integers and d4 > ZM_CAP):
        return None
    band = next(b for b, top in enumerate(DIMENSION_BANDS) if d4 <= top)
    return (s.ring.is_integers, band), d4, s


def build_limits(seed: int, workdir: str, pool: int = LIMIT_POOL,
                 systems: int = LIMIT_SYSTEMS, nerves: int = LIMIT_NERVES,
                 chain: bool = True) -> list:
    rng = random.Random(f"limits/{seed}")
    ops = []
    for i, (d4, s) in enumerate(fill(rng, draw_system, SYSTEM_SHARES, systems, pool)):
        path = os.path.join(workdir, f"system-{i}.json")
        write_document(system_to_doc(s), path)
        ring = "Z" if s.ring.is_integers else "Z/m"
        ops.append(_limit_op(f"limit:{ring}:{d4}#{i}", path, s))
    for i in range(nerves):
        cat = random_category(rng, max_objects=3, max_morphisms=8)
        base = rng.choice(cat.objects)
        rank = rng.randint(0, 2)
        path = os.path.join(workdir, f"category-{i}.json")
        write_document(_category_doc(cat), path)
        ops.append(_nerve_op(f"nerve#{i}", path, base, rank))
    if chain:
        path = os.path.join(workdir, "chain12.json")
        write_document(system_to_doc(_chain_system()), path)
        ops.append(_chain_op("chain12", path))
    rng.shuffle(ops)
    return ops


def _les_op(label, path) -> Op:
    def check(reports):
        rep = reports[0]
        if rep["results"]["fields"] != FIELDS:
            return f"fields {rep['results']['fields']} != {FIELDS}"
        if len(rep["verdicts"]) != 48 or not rep["ok"]:
            return "not exact at all 48 positions"
        return None

    return Op(label, [["les", "--ses", path, "--max-degree", "3"]], check)


def build_les(seed: int, workdir: str, pool: int = LES_POOL,
              sequences: int = LES_SEQUENCES) -> list:
    rng = random.Random(f"les-coupled/{seed}")
    drawn = []
    for i in range(pool):
        split = i % 2 == 0
        e = random_ses(rng, max_elements=4, split=split)
        drawn.append(((_dimension(e.mid, 6), split), e))
    drawn.sort(key=lambda item: item[0])
    ops = []
    for i, ((d6, split), e) in enumerate(evenly(drawn, sequences)):
        path = os.path.join(workdir, f"ses-{i}.json")
        write_document(ses_to_doc(e), path)
        kind = "split" if split else "coupled"
        ops.append(_les_op(f"les:{kind}:{d6}#{i}", path))
    rng.shuffle(ops)
    return ops


# grid-search: moderate families have 4 members on grids of 7 columns and
# height <= 5, mod 2, each member with up to MAX_EXCEPTIONS cells coloured 1.
# The budget sits within one of the pairwise lower bound.  Families whose
# ``search_bound`` (the assignments an exhaustive search would try) exceeds
# SEARCH_CAP are left out, a cut by shape that keeps one family's search
# under about 0.2 s.  About half the draws pass the cap, too few (each draw
# costs a search count) for every-k-th sampling alone to hold the mix of
# search sizes steady from seed to seed, so the pass takes each stratum
# (witness or not, band of search size) in its natural share, measured once
# over 20,000 draws, and every-k-th within it.
MEMBERS = 4
COLUMNS = 7
HEIGHT = 5
MAX_EXCEPTIONS = 16
SEARCH_CAP = 100_000
BOUND_BANDS = (300, 1_000, 3_000, 10_000, 30_000, SEARCH_CAP)
# Share of each draw_family stratum among the families under the cap, as
# measure_shares(draw_family, 20_000) measures it.
FAMILY_SHARES = {
    (False, 0): 0.0566, (False, 1): 0.0832, (False, 2): 0.1282, (False, 3): 0.1781,
    (False, 4): 0.1683, (False, 5): 0.1525,
    (True, 2): 0.0092, (True, 3): 0.0254, (True, 4): 0.0639, (True, 5): 0.1346,
}
FAMILY_POOL = 1000
GRID_FAMILIES = 300
TREE_POOL = 600
GRID_TREES = 300
DEEP_FAMILIES = 30
DEEP_COLUMNS = 30
DEEP_HEIGHT = 40


def _disagreements(a: GridFun, b: GridFun) -> int:
    cells = set(a.carrier.cells()) & set(b.carrier.cells())
    return sum(1 for c in cells if a.value(c) != b.value(c))


def _misses(table: dict, default: int, phi: GridFun) -> int:
    return sum(1 for c in phi.carrier.cells() if table.get(c, default) != phi.value(c))


def search_bound(family: FamilySpec, budget: int, stop: float = float("inf")):
    """Assignments an exhaustive ``trivialize_report`` search tries, and
    whether a witness exists.

    The search tries every value at every surviving partial colouring of
    the first t union cells, where surviving means within ``budget`` of each
    member on that member's cells.  Counting survivors by their vector of
    per-member misses gives the exact total when no witness exists, and an
    upper bound when one does (the search stops at its first witness); a
    witness exists when some colouring of every cell survives.  Counting
    ends early once it passes ``stop``, and then reports no witness.
    """
    k = family.modulus
    wants = defaultdict(list)
    for m, (f, phi) in enumerate(family.members):
        for c in f.cells():
            wants[c].append((m, phi.value(c)))
    states = {(0,) * len(family.members): 1}
    total = 0
    for c in sorted(wants):
        total += k * sum(states.values())
        if total > stop:
            return total, False
        # For each value of cell c, the members that value misses.
        missed = [[m for m, want in wants[c] if want != v] for v in range(k)]
        nxt = defaultdict(int)
        for misses, count in states.items():
            for members in missed:
                after = list(misses)
                for m in members:
                    after[m] += 1
                    if after[m] > budget:
                        break
                else:
                    nxt[tuple(after)] += count
        states = nxt
    return total, bool(states)


def _moderate_family(rng):
    """A family, its budget, its search bound and whether it has a
    witness."""
    carriers = []
    while len(carriers) < MEMBERS:
        f = EvcFun.of([rng.randint(0, HEIGHT) for _ in range(COLUMNS)])
        if f.cells() and f not in carriers:
            carriers.append(f)
    members = []
    for f in carriers:
        cells = f.cells()
        marked = rng.sample(cells, min(len(cells), rng.randint(0, MAX_EXCEPTIONS)))
        members.append(GridFun.make(f, 2, 0, {c: 1 for c in marked}))
    family = FamilySpec.of(2, members)
    # Two members more than 2B apart on their overlap rule out budget B.
    worst = max(_disagreements(a, b) for a, b in combinations(members, 2))
    budget = max(0, (worst + 1) // 2 + rng.choice((-1, 0, 1)))
    return (family, budget, *search_bound(family, budget, SEARCH_CAP))


def _deep_family(rng):
    """Two members on about DEEP_COLUMNS x DEEP_HEIGHT cells, budget above
    the cell count: the search succeeds on its first descent, one level per
    cell."""
    tall = EvcFun.of([DEEP_HEIGHT] * DEEP_COLUMNS)
    short = EvcFun.of([DEEP_HEIGHT - rng.randint(1, 3) for _ in range(DEEP_COLUMNS)])
    members = []
    for f in (tall, short):
        marked = rng.sample(f.cells(), rng.randint(0, 4))
        members.append(GridFun.make(f, 2, 0, {c: 1 for c in marked}))
    return FamilySpec.of(2, members), len(tall.cells())


def _trivialize_op(label, path, family, budget, horizon) -> Op:
    def check(reports):
        rep = reports[0]
        witness = rep["results"]["witness"]
        cells = {c for f, _ in family.members for c in f.cells()}
        if rep["results"]["exhaustive over"] != family.modulus ** len(cells):
            return "search space is not the full colouring count"
        if witness == "none":
            return None if not rep["ok"] else "no witness but the verdict passes"
        table = {tuple(p): v for p, v in witness["exceptions"]}
        for i, (_, phi) in enumerate(family.members):
            if _misses(table, witness["default"], phi) > budget:
                return f"witness misses member {i} more than {budget} times"
        return None

    calls = [["cohere", "trivialize", "--family", path, "--budget", str(budget),
              "--horizon", str(horizon)]]
    return Op(label, calls, check)


def _check_op(label, path, family, budget) -> Op:
    members = [phi for _, phi in family.members]
    expected = [_disagreements(a, b) <= budget for a, b in combinations(members, 2)]

    def check(reports):
        got = [v["ok"] for v in reports[0]["verdicts"]]
        return None if got == expected else f"pair verdicts {got} != recount {expected}"

    return Op(label, [["cohere", "check", "--family", path, "--budget", str(budget)]], check)


def _separate_op(label, path, t, left, right, probe) -> Op:
    split = next(a for a in range(t.length) if left[a] != right[a])

    def check(reports):
        rep = reports[0]
        if not rep["ok"] or rep["results"]["split stage"] != split:
            return "certificate verdicts fail or the split stage is wrong"
        state_l, state_r = branch_state(t, left), branch_state(t, right)
        for p, v in zip(rep["results"]["certified points"], rep["results"]["values"]):
            lv, rv = state_l.value(tuple(p)), state_r.value(tuple(p))
            if lv == rv or [lv, rv] != v:
                return f"certified point {p} does not separate on recheck"
        return None

    bits = lambda code: "".join(map(str, code))
    calls = [["tree", "separate", "--instance", path, "--depth", str(t.length),
              "--left", bits(left), "--right", bits(right),
              "--probe", ";".join(f"{i},{j}" for i, j in probe)]]
    return Op(label, calls, check)


def draw_family(rng, i: int):
    """A moderate family as (stratum, search size, (family, budget,
    witness)), or None if over the cap.  The stratum is (has a witness,
    band of the search size); families with a witness and a search size up
    to 3,000 are rare and share one band."""
    family, budget, bound, witness = _moderate_family(rng)
    if bound > SEARCH_CAP:
        return None
    band = next(b for b, top in enumerate(BOUND_BANDS) if bound <= top)
    return (witness, max(band, 2) if witness else band), bound, (family, budget, witness)


def _tree_case(rng):
    """A tree instance, two branch codes that first differ at a random
    stage, and up to four probe points of that stage."""
    t = random_tree_instance(rng, max_stages=4, rungs=16)
    left = tuple(rng.randint(0, 1) for _ in range(t.length))
    split = rng.randrange(t.length)
    right = left[:split] + (1 - left[split],) + tuple(
        rng.randint(0, 1) for _ in range(t.length - split - 1)
    )
    points = list(t.stages[split].points)
    probe = rng.sample(points, min(len(points), rng.randint(0, 4)))
    return t, left, right, probe


def build_grid(seed: int, workdir: str, pool: int = FAMILY_POOL,
               families: int = GRID_FAMILIES, tree_pool: int = TREE_POOL,
               trees: int = GRID_TREES, deep: int = 0, name: str = "grid-search") -> list:
    rng = random.Random(f"{name}/{seed}")
    drawn = fill(rng, draw_family, FAMILY_SHARES, families, pool)
    cases = []
    for _ in range(tree_pool):
        t, left, right, probe = _tree_case(rng)
        cases.append(((t.length, len(probe)), (t, left, right, probe)))
    cases.sort(key=lambda item: item[0])
    ops = []
    for i, (bound, (family, budget, witness)) in enumerate(drawn):
        path = os.path.join(workdir, f"family-{i}.json")
        write_document(family_to_doc(family), path)
        label = f"trivialize:{'witness' if witness else 'none'}:{bound}#{i}"
        ops.append(_trivialize_op(label, path, family, budget, COLUMNS))
        ops.append(_check_op(f"check#{i}", path, family, budget))
    for i in range(deep):
        family, budget = _deep_family(rng)
        path = os.path.join(workdir, f"deep-{i}.json")
        write_document(family_to_doc(family), path)
        ops.append(_trivialize_op(f"trivialize:deep#{i}", path, family, budget, DEEP_HEIGHT))
    for i, (_, (t, left, right, probe)) in enumerate(evenly(cases, trees)):
        path = os.path.join(workdir, f"tree-{i}.json")
        write_document(tree_to_doc(t), path)
        ops.append(_separate_op(f"separate#{i}", path, t, left, right, probe))
    rng.shuffle(ops)
    return ops


def build_grid_deep(seed: int, workdir: str) -> list:
    return build_grid(seed, workdir, deep=DEEP_FAMILIES, name="grid-search-deep")


# grid-search-deep is left out of BENCHMARK.json, whose workloads must not
# fail; the report runs it.
WORKLOADS = {
    "limits": build_limits,
    "les-coupled": build_les,
    "grid-search": build_grid,
    "grid-search-deep": build_grid_deep,
}
