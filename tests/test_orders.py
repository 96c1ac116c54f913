"""Quasi-orders, tuple enumeration, and cofinality."""

import math
import random
from itertools import product

import pytest

from rooslab.gen import random_quasi_order
from rooslab.orders import (
    QuasiOrder,
    chains,
    chains_upto,
    face,
)


def _chain(labels):
    return QuasiOrder(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def _cospan():
    return QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])


def _random_order(rng, n):
    labels = [f"e{i}" for i in range(n)]
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        pairs.append((rng.choice(labels), rng.choice(labels)))
    return QuasiOrder(labels, pairs)


def test_closure_transitive_and_idempotent():
    q = _chain(["a", "b", "c"])
    assert q.leq("a", "c")
    again = QuasiOrder(q.elements, q.related_pairs())
    assert again == q


def test_equivalent_elements_are_allowed():
    q = QuasiOrder(["u", "v"], [("u", "v"), ("v", "u")])
    assert q.equivalent("u", "v")
    assert not q.is_partial()
    assert q.is_directed()
    assert q.maximum() == "u"  # first in user order among the top class


def test_equivalence_classes():
    q = QuasiOrder(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("d", "c"), ("c", "d")],
    )
    assert q.equivalence_classes() == [["a", "b"], ["c", "d"]]
    assert _cospan().equivalence_classes() == [["x"], ["y"], ["z"]]
    rng = random.Random(3)
    for _ in range(20):
        q = _random_order(rng, 5)
        classes = q.equivalence_classes()
        flat = [e for cls in classes for e in cls]
        assert sorted(flat) == sorted(q.elements)
        for cls in classes:
            assert all(q.equivalent(cls[0], e) for e in cls)
        reps = [cls[0] for cls in classes]
        assert q.restrict(reps).is_partial()


def test_chains_brute_force_oracle():
    rng = random.Random(424)
    for _ in range(25):
        q = _random_order(rng, rng.randint(1, 4))
        for n in range(0, 4):
            got = chains(q, n)
            expect = [
                t
                for t in product(q.elements, repeat=n + 1)
                if all(q.leq(a, b) for a, b in zip(t, t[1:]))
            ]
            # product() iterates in user order, which is exactly the
            # lexicographic-by-position order chains() promises.
            assert got == expect


def _chains_by_depth_first_search(q, n, strict=False):
    """``chains`` as it was before ``chains_upto``: a depth-first search
    over successor lists built from ``leq``, one degree per call."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if strict and not q.is_partial():
        raise ValueError("strict tuple enumeration requires a partial order")
    elems = q.elements
    m = len(elems)
    succ = []
    for i in range(m):
        nxt = [j for j in range(m) if q.leq(elems[i], elems[j])]
        if strict:
            nxt = [j for j in nxt if j != i]
        succ.append(sorted(nxt))
    out = []
    stack = [(i,) for i in reversed(range(m))]
    while stack:
        t = stack.pop()
        if len(t) == n + 1:
            out.append(tuple(elems[i] for i in t))
        else:
            for j in reversed(succ[t[-1]]):
                stack.append(t + (j,))
    return out


def test_chains_upto_matches_the_depth_first_reference():
    # Random quasi-orders, many with equivalent elements, and their
    # collapsed partial orders; labels listed in shuffled order so that
    # position order is not label order.
    rng = random.Random(1313)
    equivalences = 0
    for _ in range(60):
        q = _random_order(rng, rng.randint(1, 5))
        labels = list(q.elements)
        rng.shuffle(labels)
        q = QuasiOrder(labels, q.related_pairs())
        equivalences += not q.is_partial()
        partial = q.restrict([cls[0] for cls in q.equivalence_classes()])
        for order, strict in ((q, False), (partial, False), (partial, True)):
            got = chains_upto(order, 5, strict=strict)
            assert len(got) == 6
            for n in range(6):
                want = _chains_by_depth_first_search(order, n, strict=strict)
                assert got[n] == want
                assert chains(order, n, strict=strict) == want
        if not q.is_partial():
            with pytest.raises(ValueError, match="partial order"):
                chains_upto(q, 2, strict=True)
    assert equivalences >= 15
    with pytest.raises(ValueError, match="degree must be >= 0"):
        chains_upto(QuasiOrder(["p"]), -1)


def test_restrict_reads_the_induced_relation():
    # The restriction read off the closure equals the order the constructor
    # builds from the induced pairs, also when the subset names labels the
    # order does not know (they are ignored) or lists labels out of order.
    rng = random.Random(2718)
    for _ in range(80):
        q = random_quasi_order(rng, max_elements=6)
        subset = rng.sample(q.elements, rng.randint(0, len(q)))
        subset += rng.sample(["zz", "e9", 7], rng.randint(0, 2))
        keep = [e for e in q.elements if e in set(subset)]
        want = QuasiOrder(keep, [(a, b) for a in keep for b in keep if q.leq(a, b)])
        got = q.restrict(subset)
        assert got == want and hash(got) == hash(want)
        assert [got.position(e) for e in keep] == list(range(len(keep)))


def test_up_sets_are_built_once_and_read_only():
    # Every call returns the same mapping; it cannot be changed, and it
    # lists each up-set in position order, for built and restricted orders.
    # Equality and the hash still read only the elements and the relation.
    rng = random.Random(3141)
    for _ in range(60):
        q = _random_order(rng, rng.randint(1, 6))
        r = q.restrict(rng.sample(q.elements, rng.randint(0, len(q))))
        for order in (q, r):
            up = order.up_sets()
            assert order.up_sets() is up
            assert list(up) == list(order.elements)
            for a in order.elements:
                want = tuple(b for b in order.elements if order.leq(a, b))
                assert up[a] == want
            with pytest.raises(TypeError):
                up["new"] = ()
            twin = QuasiOrder(order.elements, order.related_pairs())
            assert twin == order and hash(twin) == hash(order)
            assert twin.up_sets() is not up and twin.up_sets() == up
        assert q.restrict(q.elements) == q


def test_chain_counts_for_total_orders():
    for m in range(1, 7):
        q = _chain([f"t{i}" for i in range(m)])
        for n in range(0, 5):
            assert len(chains(q, n)) == math.comb(m + n, n + 1)


def test_chains_frozen_examples():
    p = QuasiOrder(["p"])
    assert chains(p, 1) == [("p", "p")]
    ab = _chain(["a", "b"])
    assert chains(ab, 1) == [("a", "a"), ("a", "b"), ("b", "b")]
    anti = QuasiOrder(["a", "b"])
    assert chains(anti, 0) == [("a",), ("b",)]


def test_strict_chains():
    q = _chain(["a", "b", "c"])
    assert chains(q, 1, strict=True) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert chains(q, 2, strict=True) == [("a", "b", "c")]
    eq = QuasiOrder(["u", "v"], [("u", "v"), ("v", "u")])
    with pytest.raises(ValueError):
        chains(eq, 1, strict=True)


def test_face_identities():
    rng = random.Random(99)
    q = _chain(["a", "b", "c", "d"])
    for t in chains(q, 3):
        for i in range(4):
            assert face(t, i) in chains(q, 2)
        # Deleting i then j < i equals deleting j then i - 1.
        for i in range(4):
            for j in range(i):
                assert face(face(t, i), j) == face(face(t, j), i - 1)
    with pytest.raises(IndexError):
        face(("a", "b"), 2)


def test_validate_order_frozen_cases():
    r = QuasiOrder(["p"])
    assert r.is_directed() and r.maximum() is not None and r.is_partial()
    assert r.maximum() == "p"
    r = QuasiOrder(["a", "b"])
    assert not r.is_directed() and r.maximum() is None
    r = _cospan()
    assert not r.is_directed() and r.maximum() is None and r.is_partial()


def test_is_cofinal():
    q = _chain(["a", "b", "c"])
    assert q.is_cofinal(["c"])
    assert not q.is_cofinal(["a"])
    cos = _cospan()
    assert not cos.is_cofinal(["y"])
    assert cos.is_cofinal(["y", "z"])
    rng = random.Random(7)
    for _ in range(10):
        q = _random_order(rng, 4)
        assert q.is_cofinal(q.elements)
        m = q.maximum()
        if m is not None:
            assert q.is_cofinal([m])


def test_down_closure_and_restrict():
    q = _chain(["a", "b", "c"])
    r = q.restrict(["a", "c"])
    assert r.elements == ("a", "c")
    assert r.leq("a", "c")
    assert r.is_partial()



def _pair_list(rng, labels):
    """Random pairs over ``labels``, with cycles, self-pairs and repeats."""
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 3 * len(labels)))]
    if pairs and rng.random() < 0.5:
        pairs += rng.sample(pairs, rng.randint(1, len(pairs)))  # repeated pairs
    if len(labels) > 2 and rng.random() < 0.4:
        cycle = rng.sample(labels, rng.randint(2, len(labels)))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    rng.shuffle(pairs)
    return pairs


def _reachable(labels, pairs):
    """Brute-force reflexive-transitive closure: a search from every label."""
    succ = {e: [b for a, b in pairs if a == e] for e in labels}
    out = {}
    for e in labels:
        seen, stack = {e}, [e]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        out[e] = seen
    return out


def test_mask_kernel_matches_the_definitions_read_off_leq():
    # The bitmask closure against reachability, and every question the masks
    # answer against its definition in terms of leq alone.
    rng = random.Random(1962)
    cyclic = self_pairs = repeated = 0
    for _ in range(320):
        labels = [f"e{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(labels)
        pairs = _pair_list(rng, labels)
        q = QuasiOrder(labels, pairs)
        reach = _reachable(labels, pairs)
        assert {a: {b for b in labels if q.leq(a, b)} for a in labels} == reach
        assert q.up_sets() == {a: tuple(b for b in labels if b in reach[a]) for a in labels}
        assert q.up_masks() == tuple(
            sum(1 << j for j, b in enumerate(labels) if b in reach[a]) for a in labels
        )
        leq = q.leq
        tops = [m for m in labels if all(leq(e, m) for e in labels)]
        assert q.maximum() == (tops[0] if tops else None)
        assert q.is_partial() == all(
            a == b or not (leq(a, b) and leq(b, a)) for a in labels for b in labels
        )
        assert q.is_directed() == all(
            any(leq(a, c) and leq(b, c) for c in labels) for a in labels for b in labels
        )
        for subset in ([], labels, rng.sample(labels, rng.randint(1, len(labels)))):
            assert q.is_cofinal(subset) == all(any(leq(e, c) for c in subset) for e in labels)
        classes = []
        for a in labels:
            if not any(a in cls for cls in classes):
                classes.append([b for b in labels if leq(a, b) and leq(b, a)])
        assert q.equivalence_classes() == classes
        cyclic += len(classes) < len(labels)
        self_pairs += any(a == b for a, b in pairs)
        repeated += len(set(pairs)) < len(pairs)
    assert cyclic >= 150 and self_pairs >= 180 and repeated >= 200
