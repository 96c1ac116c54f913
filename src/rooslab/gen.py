"""Seeded random generators for orders, systems, and exact sequences.

Shared between the test suite and the CLI's randomized verification
commands. Every generator takes an explicit ``random.Random`` so runs are
reproducible from a single seed.

Valid random systems are built by pulling a system on a finite chain back
along a monotone "height" map: bonds on a chain are functorial by
construction (composites are unambiguous products of step matrices), and
pullback preserves functoriality, so the result is valid over any index
quasi-order, including non-directed ones. The "proj" style keeps every bond
entry in {-1, 0, 1} (at most one nonzero per row, a class closed under
products); the "dense" style draws step entries from a bounded window, with
composite bonds whatever the products give.
"""

from __future__ import annotations

from .category import FiniteCategory, thin_category
from .linalg import IntMatrix, Ring
from .orders import QuasiOrder
from .systems import InverseSystem, SystemSES


def random_quasi_order(
    rng, max_elements: int = 5, ensure_max: bool = False, partial: bool = False
) -> QuasiOrder:
    n = rng.randint(1, max_elements)
    labels = [f"e{i}" for i in range(n)]
    pairs = []
    if partial:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    pairs.append((labels[i], labels[j]))
    else:
        for _ in range(rng.randint(0, 2 * n)):
            pairs.append((rng.choice(labels), rng.choice(labels)))
    if ensure_max:
        top = f"e{n}"
        pairs.extend((e, top) for e in labels)
        labels.append(top)
    return QuasiOrder(labels, pairs)


def heights(q: QuasiOrder) -> dict:
    """Length of the longest strictly increasing chain ending at each element.

    Strictly-below steps cannot cycle (equivalent elements are not strictly
    related), so this is a DAG recursion; equivalent elements share a height,
    which makes the map monotone into a chain.
    """
    out = {}

    def h(e):
        if e in out:
            return out[e]
        best = 0
        for x in q.elements:
            if q.leq(x, e) and not q.leq(e, x):
                best = max(best, h(x) + 1)
        out[e] = best
        return best

    for e in q.elements:
        h(e)
    return out


def _random_step(rng, nrows, ncols, style, lo, hi):
    if style == "proj":
        rows = []
        for _ in range(nrows):
            row = [0] * ncols
            if ncols and rng.random() < 0.85:
                row[rng.randrange(ncols)] = rng.choice([1, 1, -1])
            rows.append(row)
        return IntMatrix(rows, ncols)
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


def _chain_bonds(rng, level_ranks, style, lo, hi):
    """bond[i][j] for i <= j on the chain of levels, as prefix products."""
    depth = len(level_ranks)
    steps = [
        _random_step(rng, level_ranks[i], level_ranks[i + 1], style, lo, hi)
        for i in range(depth - 1)
    ]
    bond = [[None] * depth for _ in range(depth)]
    for i in range(depth):
        bond[i][i] = IntMatrix.identity(level_ranks[i])
        for j in range(i + 1, depth):
            bond[i][j] = bond[i][j - 1] @ steps[j - 1]
    return bond


def random_system(
    rng,
    index: QuasiOrder | None = None,
    ring: Ring | None = None,
    max_rank: int = 3,
    lo: int = -3,
    hi: int = 3,
    max_elements: int = 5,
    ensure_max: bool = False,
    style: str | None = None,
) -> InverseSystem:
    if index is None:
        index = random_quasi_order(rng, max_elements, ensure_max=ensure_max)
    if ring is None:
        ring = rng.choice(
            [Ring.integers(), Ring.integers(), Ring.modular(2), Ring.modular(3), Ring.modular(4)]
        )
    if style is None:
        style = rng.choice(["dense", "proj"])
    lvl = heights(index)
    depth = max(lvl.values()) + 1
    level_ranks = [
        rng.randint(1, max_rank) if rng.random() < 0.9 else 0 for _ in range(depth)
    ]
    bond = _chain_bonds(rng, level_ranks, style, lo, hi)
    ranks = {e: level_ranks[lvl[e]] for e in index.elements}
    bonds = {
        (a, b): bond[lvl[a]][lvl[b]]
        for a, b in index.related_pairs(include_diagonal=False)
    }
    return InverseSystem(index, ring, ranks, bonds)


def random_cofinal_subset(rng, q: QuasiOrder) -> list:
    """A random subset guaranteed cofinal; requires a maximum element."""
    m = q.maximum()
    if m is None:
        raise ValueError("cofinal subsets are only generated for orders with a maximum")
    keep = {m}
    for e in q.elements:
        if rng.random() < 0.5:
            keep.add(e)
    return [e for e in q.elements if e in keep]


def _free_path_count(objects, edges) -> int:
    """Morphism count of the free category: identities plus edge paths."""
    total = len(objects)
    pos = {o: i for i, o in enumerate(objects)}
    for i, start in enumerate(objects):
        cnt = [0] * len(objects)
        cnt[i] = 1
        for j in range(i + 1, len(objects)):
            cnt[j] = sum(cnt[pos[s]] for s, t in edges.values() if t == objects[j])
        total += sum(cnt[i + 1 :])
    return total


def _free_category(objects, edges) -> FiniteCategory:
    """Free category on an acyclic quiver; morphisms are (start, edge path)."""
    mor = {}
    identities = {}
    for o in objects:
        name = (o, ())
        mor[name] = (o, o)
        identities[o] = name
    cur = list(identities.values())
    while cur:
        nxt = []
        for start, p in cur:
            end = edges[p[-1]][1] if p else start
            for e, (s, t) in edges.items():
                if s == end:
                    name = (start, p + (e,))
                    mor[name] = (start, t)
                    nxt.append(name)
        cur = nxt
    compose = {}
    for f, (fs, ft) in mor.items():
        for g, (gs, gt) in mor.items():
            if ft == gs:
                compose[(g, f)] = (fs, f[1] + g[1])
    return FiniteCategory(objects, mor, identities, compose)


def random_category(rng, max_objects: int = 3, max_morphisms: int = 8) -> FiniteCategory:
    """Either a thin category of a quasi-order (loops and equivalences
    possible) or a free category on an acyclic quiver (parallel arrows and
    genuinely distinct composites possible)."""
    if rng.random() < 0.5:
        while True:
            q = random_quasi_order(rng, max_objects)
            if len(q.related_pairs(include_diagonal=True)) <= max_morphisms:
                return thin_category(q)
    n = rng.randint(1, max_objects)
    objects = [f"o{i}" for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i + 1, n) for _ in range(2)]
    rng.shuffle(slots)
    edges = {}
    for i, j in slots:
        if rng.random() < 0.4:
            continue
        trial = dict(edges)
        trial[f"a{len(edges)}"] = (objects[i], objects[j])
        if _free_path_count(objects, trial) <= max_morphisms:
            edges = trial
    return _free_category(objects, edges)


def random_ses(
    rng,
    max_elements: int = 4,
    max_rank: int = 2,
    split: bool = True,
    ring: Ring = Ring.integers(),
    lo: int = -2,
    hi: int = 2,
) -> SystemSES:
    """Levelwise SES of free-module systems, exact by construction.

    Split: middle chain bonds are block diagonal diag(sub, quot). Non-split:
    upper block triangular with a nonzero random coupling block, still a
    levelwise SES but generally not split as systems (connecting maps in the
    long exact sequence can be nonzero).
    """
    index = random_quasi_order(rng, max_elements)
    lvl = heights(index)
    depth = max(lvl.values()) + 1
    r_sub = [rng.randint(0, max_rank) for _ in range(depth)]
    r_quot = [rng.randint(0, max_rank) for _ in range(depth)]
    if all(r == 0 for r in r_sub):
        r_sub[rng.randrange(depth)] = 1
    if all(r == 0 for r in r_quot):
        r_quot[rng.randrange(depth)] = 1

    steps_sub = [
        _random_step(rng, r_sub[i], r_sub[i + 1], "dense", lo, hi)
        for i in range(depth - 1)
    ]
    steps_quot = [
        _random_step(rng, r_quot[i], r_quot[i + 1], "dense", lo, hi)
        for i in range(depth - 1)
    ]
    couplings = []
    for i in range(depth - 1):
        if split:
            couplings.append(IntMatrix.zeros(r_sub[i], r_quot[i + 1]))
        else:
            couplings.append(_random_step(rng, r_sub[i], r_quot[i + 1], "dense", lo, hi))

    def prefix(steps, ranks):
        bond = [[None] * depth for _ in range(depth)]
        for i in range(depth):
            bond[i][i] = IntMatrix.identity(ranks[i])
            for j in range(i + 1, depth):
                bond[i][j] = bond[i][j - 1] @ steps[j - 1]
        return bond

    bond_sub = prefix(steps_sub, r_sub)
    bond_quot = prefix(steps_quot, r_quot)
    steps_mid = []
    for i in range(depth - 1):
        top = steps_sub[i].hstack(couplings[i])
        bot = IntMatrix.zeros(r_quot[i], r_sub[i + 1]).hstack(steps_quot[i])
        steps_mid.append(top.vstack(bot))
    r_mid = [r_sub[i] + r_quot[i] for i in range(depth)]
    bond_mid = prefix(steps_mid, r_mid)

    def assemble(bond, ranks):
        return InverseSystem(
            index,
            ring,
            {e: ranks[lvl[e]] for e in index.elements},
            {
                (a, b): bond[lvl[a]][lvl[b]]
                for a, b in index.related_pairs(include_diagonal=False)
            },
        )

    sub = assemble(bond_sub, r_sub)
    quot = assemble(bond_quot, r_quot)
    mid = assemble(bond_mid, r_mid)
    inject = {}
    project = {}
    for e in index.elements:
        i = lvl[e]
        inject[e] = IntMatrix.identity(r_sub[i]).vstack(
            IntMatrix.zeros(r_quot[i], r_sub[i])
        )
        project[e] = IntMatrix.zeros(r_quot[i], r_sub[i]).hstack(
            IntMatrix.identity(r_quot[i])
        )
    return SystemSES(sub=sub, mid=mid, quot=quot, inject=inject, project=project)


def random_evc_fun(rng, max_prefix: int = 5, max_value: int = 3, tails=(0, 1)):
    from .coherence import EvcFun

    return EvcFun.of(
        [rng.randint(0, max_value) for _ in range(rng.randint(0, max_prefix))],
        rng.choice(tails),
    )


def random_family(
    rng,
    max_members: int = 4,
    modulus: int = 2,
    defaults=(0,),
    max_exceptions: int = 3,
    tails=(0, 1),
):
    """Random grid family; carrier tails default to {0, 1} so both finite
    and infinite grids appear. Restrict ``tails`` to (0,) for families that
    fit under a trivialization horizon."""
    from .coherence import FamilySpec, GridFun

    carriers = []
    want = rng.randint(1, max_members)
    while len(carriers) < want:
        f = random_evc_fun(rng, tails=tails)
        if f not in carriers:
            carriers.append(f)
    members = []
    for f in carriers:
        pool = [
            (i, j)
            for i in range(len(f.prefix) + 3)
            for j in range(f.value(i))
        ]
        table = {
            p: rng.randrange(modulus)
            for p in rng.sample(pool, min(len(pool), rng.randint(0, max_exceptions)))
        }
        phi = GridFun.make(f, modulus, rng.choice(defaults), table)
        members.append((f, phi))
    return FamilySpec(modulus, tuple(members))


def random_tree_instance(rng, max_stages: int = 4, rungs: int = 16, modulus: int = 2):
    """Valid tree instance built by the pick rule: ladders grow by joins so
    they weakly increase with a fixed low tail, while each stage's outlier
    has a strictly larger tail, so it escapes every rung cofinally."""
    from .coherence import EvcFun, GridFun, evc_join
    from .trees import TreeInstance, build_tree

    stages = []
    for _ in range(rng.randint(1, max_stages)):
        low = rng.choice((0, 1))
        rung = EvcFun.of(
            [rng.randint(0, 2) for _ in range(rng.randint(0, 3))], low
        )
        ladder = [rung]
        while len(ladder) < rungs:
            bump = EvcFun.of(
                [rng.randint(0, 3) for _ in range(rng.randint(0, 4))], low
            )
            ladder.append(evc_join(ladder[-1], bump))
        outlier = EvcFun.of(
            [rng.randint(0, 4) for _ in range(rng.randint(0, 3))],
            rng.choice((2, 3)),
        )
        stages.append((outlier, tuple(ladder)))
    t = build_tree(stages, modulus=modulus)
    carrier = t.base.carrier
    pool = [
        (i, j) for i in range(len(carrier.prefix) + 4) for j in range(carrier.value(i))
    ]
    table = {
        p: rng.randrange(modulus)
        for p in rng.sample(pool, min(len(pool), rng.randint(0, 4)))
    }
    base = GridFun.make(carrier, modulus, 0, table)
    return TreeInstance(t.length, t.stages, base)
