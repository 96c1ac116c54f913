"""Long exact sequence verification over rational and prime fields."""

import itertools
import math
import random
from dataclasses import dataclass

import pytest

import rooslab.les
from rooslab.complexes import build_complex, derived_limit
from rooslab.gen import random_ses
from rooslab.les import (
    Field,
    _axpy,
    _check_position,
    _cohomology,
    _combine,
    _echelon,
    _levelwise_matrix,
    _prime_divisors,
    _rank,
    _solve,
    les_of_ses,
)
from rooslab.linalg import GroupInvariants, IntMatrix, Ring, eliminate, invariant_factors, sparse
from rooslab.orders import QuasiOrder, chains_upto
from rooslab.systems import InverseSystem, SystemSES, core_elements, validate_ses

from oracle_linalg import differential, matrices_equal, matvec, solve
from unimodular import conjugated_ses


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


def _crown_ses(coupled=False, ring=Ring.integers()):
    """A sequence on the 2-2-2 crown a0, a1 < b0, b1 < c0, c1, each element
    below both elements of the next level. No strict up-set has a least
    element, so the crown is its own core, of height 2 (its order complex is
    the octahedron). Coupled: the sub bonds are 2, and the middle bonds
    [[2, c], [0, 1]] couple sub and quotient, with c = 1 out of the bottom
    level and 0 out of the middle one, so both paths from a to c agree."""
    levels = (("a0", "a1"), ("b0", "b1"), ("c0", "c1"))
    pairs = [(x, y) for low, high in zip(levels, levels[1:]) for x in low for y in high]
    q = QuasiOrder([x for level in levels for x in level], pairs)
    if not coupled:
        return _split_constant_ses(q, ring)
    bottom = set(levels[0])
    two = IntMatrix([[2]])
    one = IntMatrix([[1]])
    mid = {(x, y): IntMatrix([[2, int(x in bottom)], [0, 1]]) for x, y in pairs}
    return SystemSES(
        sub=InverseSystem(q, ring, {e: 1 for e in q.elements}, {p: two for p in pairs}),
        mid=InverseSystem(q, ring, {e: 2 for e in q.elements}, mid),
        quot=InverseSystem(q, ring, {e: 1 for e in q.elements}, {p: one for p in pairs}),
        inject={e: IntMatrix([[1], [0]]) for e in q.elements},
        project={e: IntMatrix([[0, 1]]) for e in q.elements},
    )


def _block(rng, rows, cols):
    return IntMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols)


def _coupled_two_level_ses(rng, ring=Ring.integers()):
    """A coupled sequence on a random order of height one, where any bonds
    are functorial: middle bonds are [[s, c], [0, t]] with random sub bond s,
    quotient bond t and coupling c, and the connecting maps are often
    nonzero."""
    lows = [f"x{i}" for i in range(rng.randint(1, 2))]
    highs = [f"y{j}" for j in range(rng.randint(2, 3))]
    pairs = [(a, b) for a in lows for b in highs if rng.random() < 0.7]
    q = QuasiOrder(lows + highs, pairs)
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


def _core_height(e):
    """Height of the core of the middle index, read off its strict chains."""
    core = e.mid.index.restrict(core_elements(e.mid.index))
    blocks = chains_upto(core, len(core), strict=True)
    return max((n for n, b in enumerate(blocks) if b), default=0)


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
    assert gf5.norm(3) * gf5.unit(2) % 5 == 4  # 3 * inverse(2) = 3 * 3
    q = Field(0)
    assert q.unit(2) * 2 == 1
    assert type(q.unit(-1)) is int  # a +-1 pivot keeps rational rows integral
    # Miller-Rabin agrees with trial division, and rejects strong
    # pseudoprimes to the first four and the first nine prime bases.
    for n in range(2, 3000):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            assert Field(n).modulus == n
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


def test_les_does_not_depend_on_the_middle_basis():
    # random_ses draws coordinate maps; a unimodular change of the middle
    # at each index element gives an isomorphic sequence, whose long exact
    # sequence must be exact with the same groups and the same ranks.
    rng = random.Random(5454)
    basis = random.Random(5455)
    for ring in (Ring.integers(), Ring.modular(6)):
        for draw in range(4):
            e = random_ses(rng, split=draw % 2 == 0, ring=ring)
            c = conjugated_ses(e, basis)
            rep, moved = les_of_ses(e, 2), les_of_ses(c, 2)
            assert moved.ok
            assert moved.groups == rep.groups
            assert moved.positions == rep.positions


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
    # divide, and m x = b is solvable exactly when the oracle solve over Z/p
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
        rows = sparse(m)
        assert _rank(field, rows) == sum(1 for d in invariant_factors(rows) if d % p)
        assert _rank(Field(0), rows) == len(invariant_factors(rows))
        solvable = []
        for _ in range(3):
            if rng.random() < 0.5:
                b = matvec(m, [rng.randint(-3, 3) for _ in range(ncols)])
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
            assert all((u - w) % p == 0 for u, w in zip(matvec(m, dense), b))
            solvable.append((b, rhs))
        # Several right-hand sides at once: one solution per column.
        xs = _solve(field, rows, ncols, [rhs for _, rhs in solvable], "test")
        for (b, _), x in zip(solvable, xs):
            dense = [x.get(j, 0) for j in range(ncols)]
            assert all((u - w) % p == 0 for u, w in zip(matvec(m, dense), b))
    assert unsolvable > 20


def _reference_pivot(rows, width):
    """(row, column) of an entry +-1 in a column below ``width``, else of the
    first entry found there, else None."""
    first = None
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j < width:
                if x == 1 or x == -1:
                    return i, j
                if first is None:
                    first = i, j
    return first


def _reference_echelon(field, rows, width):
    """Reduced row echelon form of sparse rows over a field, by the route
    les took before it shared linalg.eliminate: every remaining row is
    rescanned for each pivot, the first +-1 found is preferred, and each
    pivot column is cleared from the rows left and the pivot rows taken.
    Returns ({pivot column: row}, nonzero rows left), the rows left having
    no entry below ``width``."""
    norm = field.norm
    rows = [{j: y for j, x in row.items() if (y := norm(x))} for row in rows]
    pivots = {}
    while (at := _reference_pivot(rows, width)) is not None:
        i, j = at
        prow = rows[i]
        rows[i] = rows[-1]
        rows.pop()
        x = prow[j]
        if x != 1:
            s = field.unit(x)
            prow = {k: norm(s * y) for k, y in prow.items()}
        for row in itertools.chain(rows, pivots.values()):
            if j in row:
                _axpy(field, row, -row[j], prow)
        pivots[j] = prow
    return pivots, [row for row in rows if row]


class _ReferenceCohomology:
    """H^n over a field by two eliminations, whatever the dimension."""

    def __init__(self, field, d_out_rows, d_in_cols, ambient):
        out = _reference_echelon(field, d_out_rows, ambient)[0]
        coboundaries = [{j: x for j, x in col.items() if j not in out} for col in d_in_cols]
        relations = _reference_echelon(field, coboundaries, ambient)[0]
        classes = [j for j in range(ambient) if j not in out and j not in relations]
        self.field = field
        self.basis = [
            {q: 1, **{p: field.norm(-row[q]) for p, row in out.items() if q in row}}
            for q in classes
        ]
        self.dim = len(self.basis)
        self._out = out
        self._relations = relations
        self._position = {q: k for k, q in enumerate(classes)}

    def coords(self, cocycle):
        w = {j: x for j, x in cocycle.items() if j not in self._out}
        for j, row in self._relations.items():
            if j in w:
                _axpy(self.field, w, -w[j], row)
        return {self._position[j]: x for j, x in w.items()}


def _reference_position(field, degree, at, dim, in_map, out_map):
    problems = []
    if any(_combine(field, out_map, col) for col in in_map):
        problems.append("composite nonzero")
    ri = _reference_rank(field, in_map)
    ro = _reference_rank(field, out_map)
    if ri + ro != dim:
        problems.append("rank gap")
    detail = f"rank(in)={ri} rank(out)={ro} dim={dim}"
    if problems:
        detail += " [" + ", ".join(problems) + "]"
    return (field.render(), degree, at, not problems, detail)


def _levelwise_field_reason(e, field):
    """Why the reduced levelwise sequence fails to be exact over the field,
    or None if it is exact everywhere. les_of_ses no longer asks: a sequence
    that validate_ses passes splits, so this never finds a reason on the
    fields the ring allows, and the reference loop's skips equal its own."""
    for lam in e.mid.index.elements:
        ri = _reference_rank(field, sparse(e.inject[lam]))
        rp = _reference_rank(field, sparse(e.project[lam]))
        if ri != e.sub.rank(lam):
            return f"inclusion at {lam!r} loses injectivity over {field.render()}"
        if rp != e.quot.rank(lam):
            return f"projection at {lam!r} loses surjectivity over {field.render()}"
        if ri + rp != e.mid.rank(lam):
            return f"middle exactness at {lam!r} fails over {field.render()}"
    return None


def _reference_field_loop(e, n_max, fields=None):
    """(fields, skipped, positions) of les_of_ses by the plain field loop:
    dense differentials and levelwise matrices, rows and columns read from
    them and their transposes, every cohomology eliminated whatever its
    dimension, and both maps ranked again at every position."""
    keep = core_elements(e.mid.index)
    e = SystemSES(
        sub=e.sub.restrict(keep),
        mid=e.mid.restrict(keep),
        quot=e.quot.restrict(keep),
        inject={r: e.inject[r] for r in keep},
        project={r: e.project[r] for r in keep},
    )
    ring = e.mid.ring
    cx_sub = build_complex(e.sub, n_max + 2, strict=True)
    cx_mid = build_complex(e.mid, n_max + 1, strict=True)
    cx_quot = build_complex(e.quot, n_max + 1, strict=True)
    inj = {n: _reference_levelwise_matrix(n, cx_sub, cx_mid, e.inject) for n in range(n_max + 2)}
    prj = {n: _reference_levelwise_matrix(n, cx_mid, cx_quot, e.project) for n in range(n_max + 1)}
    if fields is None:
        fields = (0, 2, 3, 5) if ring.is_integers else tuple(_prime_divisors(ring.modulus))
    complexes = {"sub": cx_sub, "mid": cx_mid, "quot": cx_quot}

    def cols(m):
        transposed = [[row[j] for row in m.rows] for j in range(m.ncols)]
        return sparse(IntMatrix(transposed, m.nrows))

    diffs = {part: _dense_diffs(cx) for part, cx in complexes.items()}
    diff_rows = {part: [sparse(d) for d in ds] for part, ds in diffs.items()}
    diff_cols = {part: [cols(d) for d in ds] for part, ds in diffs.items()}
    inj_rows = {n: sparse(m) for n, m in inj.items()}
    inj_cols = {n: cols(m) for n, m in inj.items()}
    prj_rows = {n: sparse(m) for n, m in prj.items()}
    prj_cols = {n: cols(m) for n, m in prj.items()}
    applied, skipped, positions = [], {}, []
    for p in dict.fromkeys(fields):
        field = Field(p)
        name = field.render()
        if not ring.is_integers and p and ring.modulus % p:
            skipped[name] = f"{p} does not divide the modulus {ring.modulus}"
            continue
        if not ring.is_integers and p == 0:
            skipped[name] = "no rational coefficients over a modular ring"
            continue
        reason = _levelwise_field_reason(e, field)
        if reason:
            skipped[name] = reason
            continue
        applied.append(name)
        h = {}
        for part, cx in complexes.items():
            for n in range(cx.n_max):
                h[part, n] = _ReferenceCohomology(
                    field, diff_rows[part][n + 1], diff_cols[part][n], cx.dimension(n)
                )
        d_prev = []
        for n in range(n_max + 1):
            f = [h["mid", n].coords(_combine(field, inj_cols[n], b)) for b in h["sub", n].basis]
            g = [h["quot", n].coords(_combine(field, prj_cols[n], b)) for b in h["mid", n].basis]
            lifts = _reference_solve(
                field, prj_rows[n], cx_mid.dimension(n), h["quot", n].basis, "projection"
            )
            images = _reference_solve(
                field,
                inj_rows[n + 1],
                cx_sub.dimension(n + 1),
                [_combine(field, diff_cols["mid"][n + 1], c) for c in lifts],
                "inclusion",
            )
            d = [h["sub", n + 1].coords(v) for v in images]
            positions.append(_reference_position(field, n, "sub", h["sub", n].dim, d_prev, f))
            positions.append(_reference_position(field, n, "mid", h["mid", n].dim, f, g))
            positions.append(_reference_position(field, n, "quot", h["quot", n].dim, g, d))
            d_prev = d
    return tuple(applied), skipped, positions


_RINGS = (Ring.integers(), Ring.modular(2), Ring.modular(4), Ring.modular(6))
_FIELD_LISTS = (None, (7,), (0, 5), (2, 2, 3))


def _field_loop_cases():
    """200 seeded sequences over Z, Z/2, Z/4 and Z/6 in turn, each with each
    of four field lists: split and coupled random_ses draws and coupled
    height-one sequences, a third of each."""
    rng = random.Random(9090)
    for i in range(200):
        ring, kind = _RINGS[i % 4], i // 4 % 3
        if kind == 2:
            e = _coupled_two_level_ses(rng, ring)
        else:
            e = random_ses(rng, split=kind == 0, ring=ring)
        for fields in _FIELD_LISTS:
            yield e, fields


def test_field_loop_matches_the_reference_loop():
    # Floors count cases, a case being one sequence with one field list.
    connecting = multi_point = skipped = 0
    for e, fields in _field_loop_cases():
        rep = les_of_ses(e, 2, fields=fields)
        want_fields, want_skipped, want_positions = _reference_field_loop(e, 2, fields)
        assert rep.fields == want_fields
        assert rep.skipped == want_skipped
        assert [(p.field, p.degree, p.at, p.ok, p.detail) for p in rep.positions] == want_positions
        assert rep.ok
        connecting += any(
            p.at == "quot" and "rank(out)=0" not in p.detail for p in rep.positions
        )
        multi_point += len(core_elements(e.mid.index)) > 1
        skipped += bool(rep.skipped)
    assert connecting >= 20 and multi_point >= 300 and skipped >= 300


def test_each_induced_map_is_ranked_once(monkeypatch):
    # Each of f_n, g_n and the connecting map is the out-map at one position
    # and the in-map at the next; a run of the field route ranks it once and
    # reads the rank at both. Every list handed to _rank is kept, so
    # identities stay unique. Degrees above the core's height are zero by
    # shape and ranked not at all: a run ranks three maps in each degree up
    # to min(n_max, height). Over Z or Z/m with more than one field, one run
    # over the base ring serves every field; a dropped run ranks at most that
    # many maps before it stops, and then each field makes a run.
    ranked = []

    def recording_rank(field, vectors):
        ranked.append((field, vectors))
        return _rank(field, vectors)

    monkeypatch.setattr(rooslab.les, "_rank", recording_rank)
    tall = shared = dropped = shared_modular = dropped_modular = 0
    for e, fields in itertools.islice(_field_loop_cases(), 240):
        ranked.clear()
        rep = les_of_ses(e, 2, fields=fields)
        height = _core_height(e)
        per_run = 3 * (min(2, height) + 1)
        integral = sum(isinstance(f, Ring) for f, _ in ranked)
        own = len(ranked) - integral
        assert all(f is e.mid.ring for f, _ in ranked if isinstance(f, Ring))
        if len(rep.fields) > 1:
            if own:
                assert integral <= per_run
                assert own == per_run * len(rep.fields)
                dropped += 1
                dropped_modular += not e.mid.ring.is_integers
            else:
                assert integral == per_run
                shared += 1
                shared_modular += not e.mid.ring.is_integers
        else:
            assert integral == 0 and own == per_run * len(rep.fields)
        for field in {f for f, _ in ranked}:
            lists = [v for f, v in ranked if f is field]
            assert len({id(v) for v in lists}) == len(lists), (field, fields)
        tall += height == 1 and bool(rep.fields)
    assert tall >= 30 and shared >= 30 and dropped >= 4
    assert shared_modular >= 15 and dropped_modular >= 3


# The route of les_of_ses before zero-dimensional spaces were made free, kept
# as a reference: every rank and every lift goes through _reference_echelon, each
# position is a dataclass whose field name is rendered at each position, the
# levelwise matrices are coerced through IntMatrix, and both cochain-map
# checks multiply in every degree. Its cohomology is _ReferenceCohomology
# above, which eliminates whatever the dimension.


@dataclass(frozen=True)
class _ReferencePosition:
    field: str
    degree: int
    at: str
    ok: bool
    detail: str


def _dense_diffs(cx):
    return [differential(cx, n) for n in range(cx.n_max + 1)]


def _reference_sparse_cols(m):
    cols = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def _reference_rank(field, vectors):
    return len(_reference_echelon(field, vectors, math.inf)[0])


def _reference_solve(field, rows, width, rhs, what):
    if not rhs:
        return []
    augmented = [dict(row) for row in rows]
    for k, b in enumerate(rhs):
        for i, x in b.items():
            augmented[i][width + k] = x
    pivots, rest = _reference_echelon(field, augmented, width)
    if rest:
        raise ArithmeticError(f"connecting lift through the {what} failed")
    solutions = [{} for _ in rhs]
    for j, row in pivots.items():
        for c, x in row.items():
            if c >= width:
                solutions[c - width][j] = x
    return solutions


def _reference_levelwise_matrix(n, cx_from, cx_to, maps):
    rows = [[0] * cx_from.total_ranks[n] for _ in range(cx_to.total_ranks[n])]
    for i, t in enumerate(cx_to.blocks[n]):
        m = maps[t[0]]
        row_off = cx_to.offsets[n][i]
        col_off = cx_from.offsets[n][i]
        for a, mrow in enumerate(m.rows):
            target = rows[row_off + a]
            for b, x in enumerate(mrow):
                if x:
                    target[col_off + b] = x
    return IntMatrix(rows, cx_from.total_ranks[n])


def _reference_check_position(field, degree, at, dim, in_map, out_map, ri, ro):
    problems = []
    if any(_combine(field, out_map, col) for col in in_map):
        problems.append("composite nonzero")
    if ri + ro != dim:
        problems.append("rank gap")
    detail = f"rank(in)={ri} rank(out)={ro} dim={dim}"
    if problems:
        detail += " [" + ", ".join(problems) + "]"
    return _ReferencePosition(field.render(), degree, at, not problems, detail)


def _reference_les_of_ses(e, n_max, fields=None):
    """(groups, fields, skipped, positions) as the earlier les_of_ses gave them."""
    rep = validate_ses(e)
    assert rep.ok
    ring = e.mid.ring
    keep = core_elements(e.mid.index)
    if len(keep) < len(e.mid.index):
        e = SystemSES(
            sub=e.sub.restrict(keep),
            mid=e.mid.restrict(keep),
            quot=e.quot.restrict(keep),
            inject={r: e.inject[r] for r in keep},
            project={r: e.project[r] for r in keep},
        )
    cx_sub = build_complex(e.sub, n_max + 2, strict=True)
    cx_mid = build_complex(e.mid, n_max + 1, strict=True)
    cx_quot = build_complex(e.quot, n_max + 1, strict=True)
    groups = {}
    for n in range(n_max + 2):
        groups[("sub", n)] = cx_sub.cohomology(n)
    for n in range(n_max + 1):
        groups[("mid", n)] = cx_mid.cohomology(n)
        groups[("quot", n)] = cx_quot.cohomology(n)
    inj = {n: _reference_levelwise_matrix(n, cx_sub, cx_mid, e.inject) for n in range(n_max + 2)}
    prj = {n: _reference_levelwise_matrix(n, cx_mid, cx_quot, e.project) for n in range(n_max + 1)}
    complexes = {"sub": cx_sub, "mid": cx_mid, "quot": cx_quot}
    diffs = {part: _dense_diffs(cx) for part, cx in complexes.items()}
    for n in range(n_max + 1):
        assert matrices_equal(ring, diffs["mid"][n + 1] @ inj[n], inj[n + 1] @ diffs["sub"][n + 1])
    for n in range(n_max):
        assert matrices_equal(ring, diffs["quot"][n + 1] @ prj[n], prj[n + 1] @ diffs["mid"][n + 1])
    if fields is None:
        fields = (0, 2, 3, 5) if ring.is_integers else tuple(_prime_divisors(ring.modulus))
    diff_rows = {part: [sparse(d) for d in ds] for part, ds in diffs.items()}
    diff_cols = {part: [_reference_sparse_cols(d) for d in ds] for part, ds in diffs.items()}
    inj_rows = {n: sparse(m) for n, m in inj.items()}
    inj_cols = {n: _reference_sparse_cols(m) for n, m in inj.items()}
    prj_rows = {n: sparse(m) for n, m in prj.items()}
    prj_cols = {n: _reference_sparse_cols(m) for n, m in prj.items()}
    applied, skipped, positions = [], {}, []
    for p in dict.fromkeys(fields):
        field = Field(p)
        name = field.render()
        if not ring.is_integers and p and ring.modulus % p:
            skipped[name] = f"{p} does not divide the modulus {ring.modulus}"
            continue
        if not ring.is_integers and p == 0:
            skipped[name] = "no rational coefficients over a modular ring"
            continue
        applied.append(name)
        h = {}
        for part, cx in complexes.items():
            for n in range(cx.n_max):
                h[part, n] = _ReferenceCohomology(
                    field, diff_rows[part][n + 1], diff_cols[part][n], cx.dimension(n)
                )
        d_prev, rd_prev = [], 0
        for n in range(n_max + 1):
            f = [h["mid", n].coords(_combine(field, inj_cols[n], b)) for b in h["sub", n].basis]
            g = [h["quot", n].coords(_combine(field, prj_cols[n], b)) for b in h["mid", n].basis]
            lifts = _reference_solve(
                field, prj_rows[n], cx_mid.dimension(n), h["quot", n].basis, "projection"
            )
            images = _reference_solve(
                field,
                inj_rows[n + 1],
                cx_sub.dimension(n + 1),
                [_combine(field, diff_cols["mid"][n + 1], c) for c in lifts],
                "inclusion",
            )
            assert not any(_combine(field, diff_cols["sub"][n + 2], v) for v in images)
            d = [h["sub", n + 1].coords(v) for v in images]
            rf = _reference_rank(field, f)
            rg = _reference_rank(field, g)
            rd = _reference_rank(field, d)
            positions += (
                _reference_check_position(field, n, "sub", h["sub", n].dim, d_prev, f, rd_prev, rf),
                _reference_check_position(field, n, "mid", h["mid", n].dim, f, g, rf, rg),
                _reference_check_position(field, n, "quot", h["quot", n].dim, g, d, rg, rd),
            )
            d_prev, rd_prev = d, rd
    return groups, tuple(applied), skipped, positions


def test_les_matches_the_reference_route():
    # 720 sequences: every combination of ring, kind (split and coupled
    # random_ses draws, coupled height-one sequences), field list and basis
    # (coordinate maps or conjugated_ses), ten times over, with n_max
    # running through 0..4.
    rng = random.Random(1414)
    basis = random.Random(1415)
    kinds = ("split", "coupled", "two-level")
    field_lists = (None, (0, 2, 3, 5, 7), (5, 0, 5))
    combos = list(itertools.product(_RINGS, kinds, field_lists, (False, True)))
    nonzero_c1 = cases = 0
    for i in range(720):
        ring, kind, fields, conjugated = combos[i % len(combos)]
        n_max = i % 5
        if kind == "two-level":
            e = _coupled_two_level_ses(rng, ring)
        else:
            e = random_ses(rng, split=kind == "split", ring=ring)
        if conjugated:
            e = conjugated_ses(e, basis)
        rep = les_of_ses(e, n_max, fields=fields)
        groups, want_fields, want_skipped, want_positions = _reference_les_of_ses(e, n_max, fields)
        assert rep.groups == groups
        assert rep.fields == want_fields
        assert rep.skipped == want_skipped
        assert [(p.field, p.degree, p.at, p.ok, p.detail) for p in rep.positions] == [
            (p.field, p.degree, p.at, p.ok, p.detail) for p in want_positions
        ]
        assert rep.ok
        core = e.mid.restrict(core_elements(e.mid.index))
        nonzero_c1 += build_complex(core, 1, strict=True).dimension(1) > 0
        cases += 1
    assert cases == 720 and nonzero_c1 >= 60


def test_les_stops_at_the_core_height(monkeypatch):
    # Above the core's height every cochain space is zero. les_of_ses builds
    # no complex past min(n_max, height) + 2 and forms no field cohomology
    # above degree min(n_max, height) + 1; its report still equals the
    # reference route's, which builds and eliminates every degree to n_max.
    built, formed = [], []

    def keeping_complex(s, n_max, strict=False, **kwargs):
        built.append(build_complex(s, n_max, strict=strict, **kwargs))
        return built[-1]

    # The field route reads each complex's own rows, so a formed cohomology
    # names its differential by identity.
    def recording_cohomology(field, d_out_rows, d_in_cols, ambient):
        formed.append(d_out_rows)
        return _cohomology(field, d_out_rows, d_in_cols, ambient)

    rng = random.Random(1717)
    sequences = [_split_constant_ses(), _coupled_cospan_ses(), _crown_ses(), _crown_ses(True)]
    sequences += [_crown_ses(True, Ring.modular(4)), _crown_ses(False, Ring.modular(6))]
    sequences += [random_ses(rng, split=i % 2 == 0) for i in range(8)]
    heights = set()
    for e in sequences:
        height = _core_height(e)
        heights.add(height)
        for n_max in range(5):
            top = min(n_max, height)
            built.clear()
            formed.clear()
            with monkeypatch.context() as m:
                m.setattr(rooslab.les, "build_complex", keeping_complex)
                m.setattr(rooslab.les, "_cohomology", recording_cohomology)
                rep = les_of_ses(e, n_max)
            groups, fields, skipped, positions = _reference_les_of_ses(e, n_max)
            assert rep.n_max == n_max
            assert rep.groups == groups
            assert list(rep.groups) == list(groups)
            assert rep.fields == fields
            assert rep.skipped == skipped
            assert [tuple(p) for p in rep.positions] == [
                (p.field, p.degree, p.at, p.ok, p.detail) for p in positions
            ]
            assert rep.ok
            assert len(built) == 3 and max(cx.n_max for cx in built) == top + 2
            degrees = [
                next(k for cx in built for k, d in enumerate(cx.diffs) if d is out) - 1
                for out in formed
            ]
            assert formed and max(degrees) == top + 1
    assert heights == {0, 1, 2}
    assert les_of_ses(_crown_ses(), 2).groups[("sub", 2)] == GroupInvariants.free(1)


def test_equal_but_distinct_indices_give_the_same_report():
    # les_of_ses restricts the three systems onto one order, which
    # validate_ses makes safe whenever the three orders are equal, whether
    # or not they are one object. Here each system gets its own QuasiOrder,
    # its pairs declared in another order.
    rng = random.Random(4242)
    sequences = [_split_constant_ses(), _coupled_cospan_ses(), _crown_ses(True)]
    sequences += [random_ses(rng, max_elements=5, split=i % 2 == 0) for i in range(9)]
    smaller = equal = 0
    for e in sequences:
        q = e.mid.index
        pairs = q.related_pairs()

        def apart(s, k):
            order = QuasiOrder(q.elements, pairs[k:] + pairs[:k])
            return InverseSystem(order, s.ring, dict(s.ranks), s.bonds())

        distinct = SystemSES(
            sub=apart(e.sub, 0), mid=apart(e.mid, 1), quot=apart(e.quot, 2),
            inject=e.inject, project=e.project,
        )
        orders = [s.index for s in (distinct.sub, distinct.mid, distinct.quot)]
        assert orders[0] == orders[1] == orders[2] == q
        assert len({id(o) for o in orders}) == 3
        if len(core_elements(q)) < len(q):
            smaller += 1
        else:
            equal += 1
        for n_max in (1, 3):
            rep = les_of_ses(distinct, n_max)
            assert rep == les_of_ses(e, n_max)
            groups, fields, skipped, positions = _reference_les_of_ses(distinct, n_max)
            assert (rep.groups, rep.fields, rep.skipped) == (groups, fields, skipped)
            assert [tuple(p) for p in rep.positions] == [
                (p.field, p.degree, p.at, p.ok, p.detail) for p in positions
            ]
    assert smaller >= 3 and equal >= 3


def test_zero_spaces_cost_no_elimination(monkeypatch):
    # On a one-point core every cochain space above degree 0 is zero. Each
    # call of _echelon is recorded: none may get an empty list of rows, and
    # a run of the field route makes at most four (the ranks of f, g and the
    # connecting map in degree 0, and the lift through the projection).
    # Before zero spaces were skipped, this sequence made 20 calls per field,
    # 16 of them with no rows.
    calls = []

    def recording_echelon(field, rows, width):
        calls.append((field, len(rows)))
        return _echelon(field, rows, width)

    monkeypatch.setattr(rooslab.les, "_echelon", recording_echelon)
    e = _split_constant_ses()
    assert len(core_elements(e.mid.index)) == 1
    rep = les_of_ses(e, 3)
    assert rep.ok and len(rep.positions) == 48
    assert calls and all(n > 0 for _, n in calls)
    # Its pivots are all +-1, so the one run over the integers serves Q,
    # GF(2), GF(3) and GF(5), none of which eliminates anything.
    assert all(f == Ring.integers() for f, _ in calls) and len(calls) <= 4


def test_zero_induced_maps_cost_no_elimination(monkeypatch):
    # A split sequence has a zero connecting map. On the crown, lim^0 and
    # lim^2 of the quotient are Z, and the connecting map out of each is one
    # class with no coordinates: a list of empty rows, of rank 0 without an
    # elimination. Each call of eliminate is recorded; none may get rows
    # that are all empty. Before such lists were skipped, this sequence made
    # 21 calls, two of them on empty rows alone.
    calls = []

    def recording(rows, ring, width):
        calls.append(any(rows))
        return eliminate(rows, ring, width)

    monkeypatch.setattr(rooslab.les, "eliminate", recording)
    rep = les_of_ses(_crown_ses(), 2)
    assert rep.ok
    for n in (0, 2):
        assert _position(rep, "Q", n, "quot").detail == "rank(in)=1 rank(out)=0 dim=1"
    assert calls and calls.count(False) == 0


def _one_point_ses(inject, project, ring=Ring.integers()):
    """A sequence R -> R^2 -> R on one point, with the given column and row."""
    q = QuasiOrder(["a"], [])
    return SystemSES(
        sub=_constant(q, ring, 1),
        mid=_constant(q, ring, 2),
        quot=_constant(q, ring, 1),
        inject={"a": IntMatrix([[x] for x in inject])},
        project={"a": IntMatrix([list(project)])},
    )


def test_one_integer_run_serves_every_field(monkeypatch):
    # Over Z, one run of the field route over the integers serves Q and
    # every GF(p) when it pivots on +-1 only and every position holds; over
    # Z/m one run over Z/m, pivoting on units, serves every GF(p) with p
    # dividing m. When a row is left with no unit to pivot on, on any
    # ArithmeticError or on a failing position the run is dropped, and each
    # field makes its own run. Either way the report is the reference
    # route's, whose every field runs on its own.
    seen = []

    def recording_echelon(field, rows, width):
        seen.append(field)
        return _echelon(field, rows, width)

    def check(e, n_max, fields=None, check_position=_check_position):
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(rooslab.les, "_echelon", recording_echelon)
            m.setattr(rooslab.les, "_check_position", check_position)
            rep = les_of_ses(e, n_max, fields=fields)
        groups, want_fields, want_skipped, want_positions = _reference_les_of_ses(e, n_max, fields)
        assert rep.groups == groups
        assert rep.fields == want_fields
        assert rep.skipped == want_skipped
        assert [tuple(p) for p in rep.positions] == [
            (p.field, p.degree, p.at, p.ok, p.detail) for p in want_positions
        ]
        assert rep.ok
        # The run over the base ring comes first, then any run of a field.
        k = next((i for i, f in enumerate(seen) if not isinstance(f, Ring)), len(seen))
        assert all(f is e.mid.ring for f in seen[:k])
        assert all(isinstance(f, Field) for f in seen[k:])
        return rep, seen[:k], seen[k:]

    field_lists = (None, (5, 2), (2, 3, 0))
    six = Ring.modular(6)
    # Every pivot is a unit: _echelon sees the base ring and nothing else.
    for e in (_split_constant_ses(), _crown_ses(), _one_point_ses((1, 0), (0, 1))):
        for fields in field_lists:
            _, integral, own = check(e, 2, fields)
            assert integral and not own
    # Over Z/6 the lists naming GF(2) and GF(3) share the run; (5, 2) names
    # one field the ring allows, which runs on its own.
    shared_over_six = (
        _split_constant_ses(ring=six), _crown_ses(False, six), _one_point_ses((1, 0), (0, 5), six)
    )
    for e in shared_over_six:
        for fields in field_lists:
            rep, integral, own = check(e, 2, fields)
            if len(rep.fields) > 1:
                assert integral and not own
            else:
                assert not integral and own
    # The lift through the projection (3, -2) is the first elimination, and
    # no entry of it is a unit of Z or of Z/6: the run is dropped there, and
    # then every field runs on its own.
    for ring, lists in ((Ring.integers(), field_lists), (six, (None, (2, 3, 0)))):
        e = _one_point_ses((2, 3), (3, -2), ring)
        for fields in lists:
            rep, integral, own = check(e, 1, fields)
            assert len(integral) == 1
            assert [f.render() for f in dict.fromkeys(own)] == list(rep.fields)

    # A position that fails over the base ring drops the run too.
    def failing_over_ring(field, name, *args):
        position = _check_position(field, name, *args)
        return position._replace(ok=False) if isinstance(field, Ring) else position

    _, integral, own = check(_split_constant_ses(), 1, check_position=failing_over_ring)
    assert integral and {f.modulus for f in own} == {0, 2, 3, 5}
    _, integral, own = check(_split_constant_ses(ring=six), 1, check_position=failing_over_ring)
    assert integral and {f.modulus for f in own} == {2, 3}
    # Coupled sequences with torsion, where some field reads other positions
    # than another: no one run can have served them all. Over Z/6 these are
    # the sequences whose GF(2) and GF(3) positions differ.
    rng = random.Random(1818)
    disagree = {Ring.integers(): 0, six: 0}
    for i in range(80):
        ring = six if i % 2 else Ring.integers()
        e = _coupled_two_level_ses(rng, ring)
        for fields in field_lists:
            rep, integral, own = check(e, 1, fields)
            details = {}
            for p in rep.positions:
                details.setdefault(p.field, []).append(p.detail)
            if len({tuple(d) for d in details.values()}) > 1:
                disagree[ring] += 1
                assert own
    assert disagree[Ring.integers()] >= 50 and disagree[six] >= 20


def test_position_checks_match_the_reference_on_broken_maps():
    # Random maps of classes, many of them empty, with ranks and dimensions
    # that may disagree: the skip of the composite scan when either map is
    # empty must leave every verdict and detail as the full scan gives it.
    rng = random.Random(1616)
    failing = set()
    for _ in range(400):
        field = Field(rng.choice((0, 2, 3)))
        middle = rng.randint(0, 3)
        in_map = [
            {k: rng.randint(1, 2) for k in range(middle) if rng.random() < 0.5}
            for _ in range(rng.choice((0, 0, 1, 2)))
        ]
        out_map = [
            {k: rng.randint(1, 2) for k in range(2) if rng.random() < 0.5}
            for _ in range(middle)
        ]
        ri, ro, dim = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
        got = _check_position(field, field.render(), 1, "mid", dim, in_map, out_map, ri, ro)
        want = _reference_check_position(field, 1, "mid", dim, in_map, out_map, ri, ro)
        assert tuple(got) == (want.field, want.degree, want.at, want.ok, want.detail)
        failing.update(p for p in ("composite nonzero", "rank gap") if p in got.detail)
    assert failing == {"composite nonzero", "rank gap"}


@pytest.mark.parametrize("which", ["inject", "project"])
def test_cochain_map_checks_still_fire(monkeypatch, which):
    # One entry of a levelwise matrix is changed after validate_ses passed:
    # the check of the square it sits in must raise, in each degree whose
    # product has rows and columns.
    e = _coupled_cospan_ses()

    def bumped(degree):
        def levelwise(n, cx_from, cx_to, m):
            out = _levelwise_matrix(n, cx_from, cx_to, m)
            if m is getattr(e, which) and n == degree:
                out = [dict(row) for row in out]
                out[0][0] = out[0].get(0, 0) + 1
            return out
        return levelwise

    name = "inclusion" if which == "inject" else "projection"
    for degree in (0, 1):
        with monkeypatch.context() as m:
            m.setattr(rooslab.les, "_levelwise_matrix", bumped(degree))
            with pytest.raises(ValueError, match=f"{name} is not a cochain map"):
                les_of_ses(e, 1)
