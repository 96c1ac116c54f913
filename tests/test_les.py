"""Long exact sequence verification over rational and prime fields."""

import random

import pytest

import rooslab.les
from rooslab.complexes import derived_limit
from rooslab.gen import random_ses
from rooslab.les import Field, _rank, _solve, _sparse_rows, les_of_ses
from rooslab.linalg import GroupInvariants, IntMatrix, Ring, invariant_factors, solve
from rooslab.orders import QuasiOrder
from rooslab.systems import InverseSystem, SystemSES, core_elements, validate_ses


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


def _block(rng, rows, cols):
    return IntMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols)


def _coupled_two_level_ses(rng):
    """A coupled sequence on a random order of height one, where any bonds
    are functorial: middle bonds are [[s, c], [0, t]] with random sub bond s,
    quotient bond t and coupling c, and the connecting maps are often
    nonzero."""
    lows = [f"x{i}" for i in range(rng.randint(1, 2))]
    highs = [f"y{j}" for j in range(rng.randint(2, 3))]
    pairs = [(a, b) for a in lows for b in highs if rng.random() < 0.7]
    q = QuasiOrder(lows + highs, pairs)
    ring = Ring.integers()
    r_sub = {e: rng.randint(1, 2) for e in q.elements}
    r_quot = {e: rng.randint(1, 2) for e in q.elements}
    r_mid = {e: r_sub[e] + r_quot[e] for e in q.elements}
    b_sub, b_quot, b_mid = {}, {}, {}
    for a, b in pairs:
        s = b_sub[a, b] = _block(rng, r_sub[a], r_sub[b])
        t = b_quot[a, b] = _block(rng, r_quot[a], r_quot[b])
        c = _block(rng, r_sub[a], r_quot[b])
        b_mid[a, b] = IntMatrix(
            [s.rows[i] + c.rows[i] for i in range(r_sub[a])]
            + [(0,) * r_sub[b] + t.rows[i] for i in range(r_quot[a])],
            r_mid[b],
        )
    inject = {
        e: IntMatrix([[int(i == j) for j in range(r_sub[e])] for i in range(r_mid[e])], r_sub[e])
        for e in q.elements
    }
    project = {
        e: IntMatrix([[int(j == r_sub[e] + i) for j in range(r_mid[e])] for i in range(r_quot[e])])
        for e in q.elements
    }
    return SystemSES(
        sub=InverseSystem(q, ring, r_sub, b_sub),
        mid=InverseSystem(q, ring, r_mid, b_mid),
        quot=InverseSystem(q, ring, r_quot, b_quot),
        inject=inject,
        project=project,
    )


def _position(rep, field, degree, at):
    for p in rep.positions:
        if p.field == field and p.degree == degree and p.at == at:
            return p
    raise AssertionError(f"no position ({field}, {degree}, {at})")


def test_field_scalars():
    with pytest.raises(ValueError):
        Field(4)
    gf5 = Field(5)
    assert gf5.norm(-7) == 3
    assert gf5.norm(3) * gf5.inv(2) % 5 == 4  # 3 * inverse(2) = 3 * 3
    q = Field(0)
    assert q.inv(2) * 2 == 1
    assert type(q.inv(-1)) is int  # a +-1 pivot keeps rational rows integral
    # Miller-Rabin agrees with trial division, and rejects strong
    # pseudoprimes to the first four and the first nine prime bases.
    for n in range(2, 3000):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            assert Field(n).p == n
        else:
            with pytest.raises(ValueError, match="not prime"):
                Field(n)
    for n in (3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="not prime"):
            Field(n)
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


def test_core_route_matches_the_collapsed_route(monkeypatch):
    # les_of_ses restricts everything to the core of the middle index. With
    # core_elements swapped for the plain collapse it builds on the collapsed
    # index instead; groups and every position's detail must be identical.
    def collapsed(index):
        return [cls[0] for cls in index.equivalence_classes()]

    rng = random.Random(7077)
    sequences = [_coupled_two_level_ses(rng) for _ in range(30)]
    sequences += [random_ses(rng, split=i % 2 == 0) for i in range(12)]
    shrunk = connecting = 0
    for e in sequences:
        core = les_of_ses(e, 1)
        with monkeypatch.context() as m:
            m.setattr(rooslab.les, "core_elements", collapsed)
            plain = les_of_ses(e, 1)
        assert core.ok and plain.ok
        assert core.groups == plain.groups
        assert core.fields == plain.fields
        assert [(p.field, p.degree, p.at, p.detail) for p in core.positions] == [
            (p.field, p.degree, p.at, p.detail) for p in plain.positions
        ]
        shrunk += len(core_elements(e.mid.index)) < len(collapsed(e.mid.index))
        # At "quot" the outgoing map is the connecting map.
        connecting += any(
            p.at == "quot" and "rank(out)=0" not in p.detail for p in core.positions
        )
    assert shrunk >= 10 and connecting >= 3


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


def test_connecting_maps_match_universal_coefficients():
    # Over GF(p), dim H^n = free rank of lim^n plus the torsion divisors of
    # lim^n and of lim^(n+1) that p divides (universal coefficients; over Q
    # the free rank alone). Exactness then fixes every rank in the long
    # sequence: rank f_n = dim sub_n - rank d_(n-1), rank g_n = dim mid_n -
    # rank f_n, rank d_n = dim quot_n - rank g_n, starting from d_(-1) = 0.
    rng = random.Random(6061)
    n_max = 1
    positions = connecting = 0
    for _ in range(60):
        e = _coupled_two_level_ses(rng)
        rep = les_of_ses(e, n_max)
        assert rep.ok and rep.fields == ("Q", "GF(2)", "GF(3)", "GF(5)")
        groups = dict(rep.groups)
        for part in ("sub", "mid", "quot"):
            top = n_max + 2 if part == "sub" else n_max + 1
            groups[part, top] = derived_limit(getattr(e, part), top)
        for name, p in zip(rep.fields, (0, 2, 3, 5)):

            def dim(part, n):
                here, above = groups[part, n], groups[part, n + 1]
                if p == 0:
                    return here.free_rank
                divisible = [d for d in here.torsion + above.torsion if d % p == 0]
                return here.free_rank + len(divisible)

            d_prev = 0
            for n in range(n_max + 1):
                f_n = dim("sub", n) - d_prev
                g_n = dim("mid", n) - f_n
                d_n = dim("quot", n) - g_n
                ranks = (("sub", d_prev, f_n), ("mid", f_n, g_n), ("quot", g_n, d_n))
                for at, r_in, r_out in ranks:
                    want = f"rank(in)={r_in} rank(out)={r_out} dim={dim(at, n)}"
                    assert _position(rep, name, n, at).detail == want
                    positions += 1
                connecting += d_n > 0
                d_prev = d_n
    assert positions == 60 * 4 * 3 * (n_max + 1)
    assert connecting >= 20


def test_echelon_agrees_with_integer_oracles():
    # Over GF(p) the rank is the number of invariant factors p does not
    # divide, and m x = b is solvable exactly when linalg.solve over Z/p
    # finds a solution.
    rng = random.Random(6062)
    unsolvable = 0
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        field = Field(p)
        nrows, inner, ncols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        m = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(nrows)], inner
        ) @ IntMatrix([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(inner)], ncols)
        rows = _sparse_rows(m)
        assert _rank(field, rows) == sum(1 for d in invariant_factors(m) if d % p)
        assert _rank(Field(0), rows) == len(invariant_factors(m))
        solvable = []
        for _ in range(3):
            if rng.random() < 0.5:
                b = m.matvec([rng.randint(-3, 3) for _ in range(ncols)])
            else:
                b = [rng.randint(-3, 3) for _ in range(nrows)]
            rhs = {i: x for i, x in enumerate(b) if x}
            oracle = solve(m, b, Ring.modular(p))
            try:
                (x,) = _solve(field, rows, ncols, [rhs], "test")
            except ArithmeticError:
                assert oracle is None
                unsolvable += 1
                continue
            assert oracle is not None
            dense = [x.get(j, 0) for j in range(ncols)]
            assert all((u - w) % p == 0 for u, w in zip(m.matvec(dense), b))
            solvable.append((b, rhs))
        # Several right-hand sides at once: one solution per column.
        xs = _solve(field, rows, ncols, [rhs for _, rhs in solvable], "test")
        for (b, _), x in zip(solvable, xs):
            dense = [x.get(j, 0) for j in range(ncols)]
            assert all((u - w) % p == 0 for u, w in zip(m.matvec(dense), b))
    assert unsolvable > 20
