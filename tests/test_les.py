"""Long exact sequence verification over rational and prime fields."""

import random

import pytest

from rooslab.complexes import derived_limit
from rooslab.gen import random_ses
from rooslab.les import Field, les_of_ses
from rooslab.linalg import GroupInvariants, IntMatrix, Ring
from rooslab.orders import QuasiOrder
from rooslab.systems import InverseSystem, SystemSES, validate_ses


def _constant(q, ring, rank):
    ident = IntMatrix.identity(rank)
    return InverseSystem(
        q,
        ring,
        {e: rank for e in q.elements},
        {p: ident for p in q.related_pairs(include_diagonal=False)},
    )


def _split_constant_ses(q=None, ring=Ring.integers()):
    if q is None:
        q = QuasiOrder(["a", "b"], [("a", "b")])
    sub = _constant(q, ring, 1)
    quot = _constant(q, ring, 1)
    mid = _constant(q, ring, 2)
    inject = {e: IntMatrix([[1], [0]]) for e in q.elements}
    project = {e: IntMatrix([[0, 1]]) for e in q.elements}
    return SystemSES(sub=sub, mid=mid, quot=quot, inject=inject, project=project)


def _coupled_cospan_ses():
    """Middle bonds couple sub and quotient; the connecting map
    H^0(quot) -> H^1(sub) is onto the 2-torsion over GF(2)."""
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    ring = Ring.integers()
    two = IntMatrix([[2]])
    sub = InverseSystem(
        q, ring, {"x": 1, "y": 1, "z": 1}, {("x", "y"): two, ("x", "z"): two}
    )
    quot = _constant(q, ring, 1)
    mid = InverseSystem(
        q,
        ring,
        {"x": 2, "y": 2, "z": 2},
        {
            ("x", "y"): IntMatrix([[2, 1], [0, 1]]),
            ("x", "z"): IntMatrix([[2, 0], [0, 1]]),
        },
    )
    inject = {e: IntMatrix([[1], [0]]) for e in q.elements}
    project = {e: IntMatrix([[0, 1]]) for e in q.elements}
    return SystemSES(sub=sub, mid=mid, quot=quot, inject=inject, project=project)


def _position(rep, field, degree, at):
    for p in rep.positions:
        if p.field == field and p.degree == degree and p.at == at:
            return p
    raise AssertionError(f"no position ({field}, {degree}, {at})")


def test_field_scalars():
    with pytest.raises(ValueError):
        Field(4)
    gf5 = Field(5)
    assert gf5.div(gf5.of(3), gf5.of(2)) == 4  # 3 * inverse(2) = 3 * 3
    q = Field(0)
    assert q.div(1, 2) * 2 == 1
    assert gf5.render() == "GF(5)" and q.render() == "Q"


def test_split_constant_les():
    rep = les_of_ses(_split_constant_ses(), 1)
    assert rep.ok
    assert rep.fields == ("Q", "GF(2)", "GF(3)", "GF(5)")
    assert not rep.skipped
    assert len(rep.positions) == 24
    assert rep.groups[("sub", 0)] == GroupInvariants.free(1)
    assert rep.groups[("mid", 0)] == GroupInvariants.free(2)
    assert rep.groups[("quot", 0)] == GroupInvariants.free(1)
    assert rep.groups[("sub", 1)].is_trivial
    assert rep.groups[("sub", 2)].is_trivial
    assert rep.groups[("quot", 1)].is_trivial
    # Split: every connecting map vanishes.
    for p in rep.positions:
        if p.at == "quot":
            assert "rank(out)=0" in p.detail


def test_coupled_cospan_connecting_map():
    rep = les_of_ses(_coupled_cospan_ses(), 1)
    assert rep.ok
    assert rep.groups[("sub", 1)] == GroupInvariants(0, (2,))
    assert rep.groups[("sub", 0)] == GroupInvariants.free(1)
    assert rep.groups[("mid", 0)] == GroupInvariants.free(2)
    assert rep.groups[("quot", 0)] == GroupInvariants.free(1)
    # Over GF(2) the image of lim^0(mid) dies in lim^0(quot), so the
    # connecting map must carry all of it.
    p2 = _position(rep, "GF(2)", 0, "quot")
    assert p2.detail == "rank(in)=0 rank(out)=1 dim=1"
    # Over Q the two is invertible and the connecting map vanishes.
    pq = _position(rep, "Q", 0, "quot")
    assert pq.detail == "rank(in)=1 rank(out)=0 dim=1"


def test_collapses_equivalent_indices():
    q = QuasiOrder(
        ["a", "b", "t"], [("a", "b"), ("b", "a"), ("a", "t"), ("b", "t")]
    )
    rep = les_of_ses(_split_constant_ses(q), 1)
    assert rep.ok
    assert rep.groups[("sub", 0)] == GroupInvariants.free(1)
    assert rep.groups[("sub", 1)].is_trivial


def test_random_split_ses():
    rng = random.Random(5150)
    for _ in range(6):
        rep = les_of_ses(random_ses(rng, split=True), 2)
        assert rep.ok
        assert rep.fields == ("Q", "GF(2)", "GF(3)", "GF(5)")


def test_random_coupled_ses():
    rng = random.Random(5151)
    for _ in range(4):
        rep = les_of_ses(random_ses(rng, split=False), 2)
        assert rep.ok
        assert len(rep.positions) == 4 * 9


def test_groups_match_degenerate_derived_limits():
    # les_of_ses reads its groups from normalized complexes on the collapsed
    # index; the degenerate-tuple route on each uncollapsed system is the
    # oracle.
    rng = random.Random(5353)
    draws = quasi = 0
    while draws < 6 or quasi < 2:
        e = random_ses(rng, split=(draws % 2 == 0))
        draws += 1
        quasi += not e.mid.index.is_partial()
        rep = les_of_ses(e, 1, fields=(2,))
        parts = {"sub": e.sub, "mid": e.mid, "quot": e.quot}
        assert len(rep.groups) == 7
        for (part, n), group in rep.groups.items():
            assert group == derived_limit(parts[part], n, degenerate=True)


def test_modular_ring_field_selection():
    rng = random.Random(5252)
    e = random_ses(rng, ring=Ring.modular(6), max_elements=3)
    rep = les_of_ses(e, 1)
    assert rep.fields == ("GF(2)", "GF(3)")
    assert rep.ok
    rep2 = les_of_ses(e, 0, fields=(5, 0))
    assert rep2.fields == ()
    assert set(rep2.skipped) == {"GF(5)", "Q"}
    assert rep2.ok  # vacuously: nothing promised, nothing checked


def test_field_override_over_integers():
    rep = les_of_ses(_split_constant_ses(), 0, fields=(7,))
    assert rep.fields == ("GF(7)",)
    assert rep.ok and len(rep.positions) == 3


def test_rejects_invalid_ses():
    e = _split_constant_ses()
    broken = SystemSES(
        sub=e.sub,
        mid=e.mid,
        quot=e.quot,
        inject=e.inject,
        project={k: IntMatrix.zeros(1, 2) for k in e.project},
    )
    with pytest.raises(ValueError, match="short exact"):
        les_of_ses(broken, 1)
    with pytest.raises(ValueError, match="n_max"):
        les_of_ses(e, -1)


def test_stored_failing_ses_verdict_still_rejects():
    e = _split_constant_ses()
    broken = SystemSES(
        sub=e.sub,
        mid=e.mid,
        quot=e.quot,
        inject=e.inject,
        project={k: IntMatrix.zeros(1, 2) for k in e.project},
    )
    first = validate_ses(broken)
    assert not first.ok
    assert validate_ses(broken) is first
    for _ in range(2):
        with pytest.raises(ValueError, match="short exact"):
            les_of_ses(broken, 1)
    # The maps are read-only copies, so the stored verdict cannot go stale.
    with pytest.raises(TypeError):
        broken.project["a"] = IntMatrix([[0, 1]])
    assert les_of_ses(e, 1).ok
