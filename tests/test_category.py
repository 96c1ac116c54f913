"""Finite categories, functors, nerve complexes, and corepresented functors."""

import random

import pytest

from rooslab.category import (
    CategoryError,
    FiniteCategory,
    FreeFunctor,
    FunctorError,
    corepresented_system,
    functor_from_system,
    morphism_chains,
    nerve_complex,
    thin_category,
)
from rooslab.complexes import build_complex
from rooslab.gen import random_category, random_quasi_order, random_system
from rooslab.linalg import GroupInvariants, IntMatrix, Ring
from rooslab.orders import QuasiOrder, chains
from rooslab.systems import InverseSystem

from oracle_linalg import differential


def _terminal():
    return FiniteCategory(
        ["*"], {"id": ("*", "*")}, {"*": "id"}, {("id", "id"): "id"}
    )


def _walking_arrow():
    mor = {"1a": ("a", "a"), "1b": ("b", "b"), "f": ("a", "b")}
    compose = {
        ("1a", "1a"): "1a",
        ("1b", "1b"): "1b",
        ("f", "1a"): "f",
        ("1b", "f"): "f",
    }
    return FiniteCategory(["a", "b"], mor, {"a": "1a", "b": "1b"}, compose)


def test_terminal_category_nerve():
    c = _terminal()
    fun = FreeFunctor(c, Ring.integers(), {"*": 2}, {})
    cx = nerve_complex(c, fun, 3)
    for k in range(4):
        assert cx.dimension(k) == 2
    assert cx.cohomology(0) == GroupInvariants.free(2)
    assert cx.cohomology(1).is_trivial
    assert cx.cohomology(2).is_trivial


def test_category_law_validation():
    mor = {"1a": ("a", "a"), "1b": ("b", "b"), "f": ("a", "b")}
    ids = {"a": "1a", "b": "1b"}
    good = {
        ("1a", "1a"): "1a",
        ("1b", "1b"): "1b",
        ("f", "1a"): "f",
        ("1b", "f"): "f",
    }
    _ = FiniteCategory(["a", "b"], mor, ids, good)
    missing = dict(good)
    del missing[("f", "1a")]
    with pytest.raises(CategoryError, match="misses"):
        FiniteCategory(["a", "b"], mor, ids, missing)
    wrong = dict(good)
    wrong[("f", "1a")] = "1b"
    with pytest.raises(CategoryError, match="endpoints"):
        FiniteCategory(["a", "b"], mor, ids, wrong)
    with pytest.raises(CategoryError, match=r"non-objects \['ghost'\]"):
        FiniteCategory(["a", "b"], mor, dict(ids, ghost="1a"), good)
    lazy = dict(good)
    lazy[("1b", "f")] = "f"
    lazy[("f", "1a")] = "f"
    lazy[("extra", "pair")] = "f"
    with pytest.raises(CategoryError, match="non-composable"):
        FiniteCategory(["a", "b"], mor, ids, lazy)


def test_associativity_is_checked():
    mor = {"1": ("*", "*"), "a": ("*", "*"), "b": ("*", "*")}
    ids = {"*": "1"}
    table = {}
    for x in mor:
        table[("1", x)] = x
        table[(x, "1")] = x
    table[("a", "a")] = "a"
    table[("a", "b")] = "b"
    table[("b", "a")] = "a"
    table[("b", "b")] = "a"
    with pytest.raises(CategoryError, match="associativity"):
        FiniteCategory(["*"], mor, ids, table)


def test_identity_law_is_checked():
    mor = {"1": ("*", "*"), "e": ("*", "*")}
    table = {
        ("1", "1"): "1",
        ("1", "e"): "e",
        ("e", "1"): "e",
        ("e", "e"): "1",
    }
    _ = FiniteCategory(["*"], mor, {"*": "1"}, table)
    with pytest.raises(CategoryError, match="identity law"):
        FiniteCategory(["*"], mor, {"*": "e"}, table)


def test_hom_and_compose_access():
    c = _walking_arrow()
    assert c.hom("a", "b") == ("f",)
    assert c.hom("b", "a") == ()
    assert c.compose("1b", "f") == "f"
    assert c.is_identity("1a") and not c.is_identity("f")
    with pytest.raises(CategoryError):
        c.compose("f", "f")


def test_morphism_chain_counts_match_tuple_chains():
    rng = random.Random(99)
    for _ in range(10):
        q = random_quasi_order(rng, max_elements=3)
        c = thin_category(q)
        assert morphism_chains(c, 0) == q.elements
        for k in range(1, 4):
            assert len(morphism_chains(c, k)) == len(chains(q, k))


def test_functor_validation_errors():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    c = thin_category(q)
    ranks = {"a": 1, "b": 1, "c": 1}
    ok = {
        ("a", "b"): IntMatrix([[1]]),
        ("b", "c"): IntMatrix([[1]]),
        ("a", "c"): IntMatrix([[1]]),
    }
    _ = FreeFunctor(c, Ring.integers(), ranks, ok)
    bad = dict(ok)
    bad[("a", "c")] = IntMatrix([[2]])
    with pytest.raises(FunctorError, match="functoriality"):
        FreeFunctor(c, Ring.integers(), ranks, bad)
    short = dict(ok)
    del short[("a", "c")]
    with pytest.raises(FunctorError, match="no action"):
        FreeFunctor(c, Ring.integers(), ranks, short)
    shapes = dict(ok)
    shapes[("a", "b")] = IntMatrix.zeros(2, 2)
    with pytest.raises(FunctorError, match="shape"):
        FreeFunctor(c, Ring.integers(), ranks, shapes)
    with_id = dict(ok)
    with_id[("a", "a")] = IntMatrix([[3]])
    with pytest.raises(FunctorError, match="identity"):
        FreeFunctor(c, Ring.integers(), ranks, with_id)
    # Over Z/2 the same matrix is the identity, so it passes.
    mod2 = dict(ok)
    mod2[("a", "a")] = IntMatrix([[3]])
    _ = FreeFunctor(c, Ring.modular(2), ranks, mod2)
    # An integral float is the rank it stands for, as it is for a system.
    assert FreeFunctor(c, Ring.integers(), dict(ranks, a=1.0), ok).rank("a") == 1


@pytest.mark.parametrize(
    "ranks, action, message",
    [
        ({}, {}, "no rank for '*'"),
        ({"*": -1}, {}, "rank of '*' must be a natural number"),
        ({"*": "1"}, {}, "rank of '*' must be a natural number"),
        ({"*": 1.5}, {}, "rank of '*' must be a natural number"),
        ({"*": None}, {}, "rank of '*' must be a natural number"),
        ({"*": 1, "ghost": 3}, {}, "ranks given for unknown labels ['ghost']"),
        ({"*": 1}, {"nope": IntMatrix([[5]])}, "actions given for unknown morphisms ['nope']"),
    ],
)
def test_functor_refuses_rank_and_action_faults(ranks, action, message):
    with pytest.raises(FunctorError) as err:
        FreeFunctor(_terminal(), Ring.integers(), ranks, action)
    assert str(err.value) == message
    if not action:
        # A rank fault reads as InverseSystem words it: one message per fact.
        with pytest.raises(ValueError) as system:
            InverseSystem(QuasiOrder(["*"]), Ring.integers(), ranks, {})
        assert str(system.value) == message


def test_functor_ranks_are_read_only():
    c = _walking_arrow()
    ranks = {"a": 1, "b": 2}
    fun = FreeFunctor(c, Ring.integers(), ranks, {"f": IntMatrix([[1, 0]])})
    with pytest.raises(TypeError):
        fun.ranks["a"] = 3
    ranks["a"] = 3
    assert fun.rank("a") == 1
    assert fun.ranks == {"a": 1, "b": 2}
    s = InverseSystem(
        QuasiOrder(["a", "b"], [("a", "b")]), Ring.integers(), {"a": 1, "b": 2},
        {("a", "b"): IntMatrix([[1, 0]])},
    )
    assert functor_from_system(s).ranks == s.ranks


def test_nerve_matches_system_complex_on_thin_categories():
    rng = random.Random(424242)
    for _ in range(15):
        q = random_quasi_order(rng, max_elements=3)
        s = random_system(rng, index=q)
        c = thin_category(q)
        fun = functor_from_system(s, c)
        ncx = nerve_complex(c, fun, 3)
        cx = build_complex(s, 3)
        # A chain of thin morphisms is the tuple of its first source
        # followed by each morphism's target; an object is a 1-tuple.
        label = lambda t, k: (t,) if k == 0 else (c.src(t[0]),) + tuple(c.tgt(m) for m in t)
        for k in range(4):
            assert ncx.dimension(k) == cx.dimension(k)
            assert differential(ncx, k) == differential(cx, k)
            assert [label(t, k) for t in ncx.blocks[k]] == list(cx.blocks[k])
        for n in range(3):
            assert ncx.cohomology(n) == cx.cohomology(n)


def test_zero_functor_nerve():
    c = _walking_arrow()
    fun = FreeFunctor(c, Ring.integers(), {"a": 0, "b": 0}, {"f": IntMatrix.zeros(0, 0)})
    cx = nerve_complex(c, fun, 2)
    assert cx.dimension(0) == 0 and cx.dimension(1) == 0
    assert cx.cohomology(0).is_trivial


def test_corepresented_frozen_parallel_arrows():
    from rooslab.gen import _free_category

    c = _free_category(["o0", "o1"], {"a0": ("o0", "o1"), "a1": ("o0", "o1")})
    assert len(c.morphism_names) == 4
    fun = corepresented_system(c, "o0")
    assert fun.rank("o0") == 1 and fun.rank("o1") == 2
    p0 = ("o0", ("a0",))
    p1 = ("o0", ("a1",))
    assert c.hom("o0", "o1") == (p0, p1)
    assert fun.action(p0) == IntMatrix([[1, 0]])
    assert fun.action(p1) == IntMatrix([[0, 1]])
    cx = nerve_complex(c, fun, 3)
    assert cx.cohomology(0) == GroupInvariants.free(1)
    assert cx.cohomology(1).is_trivial
    assert cx.cohomology(2).is_trivial


def test_corepresented_empty_homs():
    c = thin_category(QuasiOrder(["a", "b"]))
    fun = corepresented_system(c, "a", copies=3)
    assert fun.rank("a") == 3 and fun.rank("b") == 0
    cx = nerve_complex(c, fun, 2)
    assert cx.cohomology(0) == GroupInvariants.free(3)
    assert cx.cohomology(1).is_trivial


def test_corepresented_acyclicity_random():
    rng = random.Random(60)
    for _ in range(25):
        c = random_category(rng)
        base = rng.choice(c.objects)
        copies = rng.randint(1, 2)
        fun = corepresented_system(c, base, copies)
        cx = nerve_complex(c, fun, 4)
        assert cx.cohomology(0) == GroupInvariants.free(copies)
        for n in range(1, 4):
            assert cx.cohomology(n).is_trivial


def test_random_categories_are_small_and_lawful():
    rng = random.Random(61)
    for _ in range(30):
        c = random_category(rng)
        assert 1 <= len(c.objects) <= 3
        assert len(c.morphism_names) <= 8
        for o in c.objects:
            assert c.is_identity(c.identity[o])
