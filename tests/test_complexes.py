"""Cochain complexes, derived limits, the direct-limit cross-check, and
the test-side contraction operator."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import rooslab.complexes
import rooslab.linalg
from rooslab.category import corepresented_system, nerve_complex
from rooslab.complexes import (
    InvalidSystemError,
    RoosComplex,
    build_complex,
    derived_limit,
    limit_complex,
    limit_direct,
)
from rooslab.gen import (
    random_category,
    random_cofinal_subset,
    random_quasi_order,
    random_system,
)
from rooslab.linalg import GroupInvariants, IntMatrix, Ring, cohomology_at, product
from rooslab.orders import QuasiOrder, chains, chains_upto, face
from rooslab.systems import (
    InverseSystem,
    TruncationSpec,
    collapse_equivalences,
    core_elements,
    truncated_A,
    validate_system,
)

from oracle_complexes import Cochain, IndexNotDominatingError, contract, delta, random_cochain
from oracle_linalg import differential, is_zero_over, neg


def _one_point(ring=Ring.integers()):
    return InverseSystem(QuasiOrder(["p"]), ring, {"p": 1}, {})


def _cospan_times_two():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    return InverseSystem(
        q,
        Ring.integers(),
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): IntMatrix([[2]]), ("x", "z"): IntMatrix([[2]])},
    )


def test_one_point_complex_alternates():
    cx = build_complex(_one_point(), 4)
    for n in range(5):
        assert cx.dimension(n) == 1
    assert differential(cx, 1) == IntMatrix([[0]])
    assert differential(cx, 2) == IntMatrix([[1]])
    assert differential(cx, 3) == IntMatrix([[0]])
    assert differential(cx, 4) == IntMatrix([[1]])
    assert cx.cohomology(0) == GroupInvariants.free(1)
    assert cx.cohomology(1).is_trivial
    assert cx.cohomology(2).is_trivial
    assert cx.cohomology(3).is_trivial


def test_two_chain_identity_bond_differential():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    s = InverseSystem(q, Ring.integers(), {"a": 1, "b": 1}, {("a", "b"): IntMatrix([[1]])})
    cx = build_complex(s, 1)
    assert cx.dimension(0) == 2 and cx.dimension(1) == 3
    assert cx.blocks[1] == (("a", "a"), ("a", "b"), ("b", "b"))
    # Rows: (a,a) -> 0; (a,b) -> x_b - x_a; (b,b) -> 0.
    assert differential(cx, 1) == IntMatrix([[0, 0], [-1, 1], [0, 0]])


def test_single_index_mod2_matches_one_point():
    s = _one_point(Ring.modular(2))
    cx = build_complex(s, 3)
    assert cx.cohomology(0) == GroupInvariants(0, (2,))
    assert cx.cohomology(1).is_trivial
    assert cx.cohomology(2).is_trivial


def test_invalid_system_propagates():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {
            ("a", "b"): IntMatrix([[2]]),
            ("b", "c"): IntMatrix([[3]]),
            ("a", "c"): IntMatrix([[5]]),
        },
    )
    with pytest.raises(InvalidSystemError):
        build_complex(s, 1)


def test_stored_failing_verdict_still_rejects():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {
            ("a", "b"): IntMatrix([[2]]),
            ("b", "c"): IntMatrix([[3]]),
            ("a", "c"): IntMatrix([[5]]),
        },
    )
    first = validate_system(s)
    assert not first.ok
    assert validate_system(s) is first
    for call in (
        lambda: derived_limit(s, 0),
        lambda: derived_limit(s, 1, degenerate=True),
        lambda: build_complex(s, 1),
        lambda: build_complex(s, 1, strict=True),
    ):
        with pytest.raises(InvalidSystemError) as err:
            call()
        assert err.value.violations == first.violations
        assert str(err.value) == (
            "bonds are not functorial; first bad triples: [('a', 'b', 'c')]"
        )
    # A restriction of a failing system gets its own check: the pair a <= b
    # alone is functorial.
    assert validate_system(s.restrict(["a", "b"])).ok
    assert derived_limit(s.restrict(["a", "b"]), 0) == GroupInvariants.free(1)


def test_restriction_inherits_a_passing_verdict():
    s = _cospan_times_two()
    assert validate_system(s).ok
    assert validate_system(s.restrict(["x", "y"])) is validate_system(s)
    fresh = _cospan_times_two().restrict(["x", "y"])
    assert validate_system(fresh) == validate_system(s)


def test_cospan_derived_limits_with_cokernel_oracle():
    s = _cospan_times_two()
    assert derived_limit(s, 0) == GroupInvariants.free(1)
    lim1 = derived_limit(s, 1)
    # Independent oracle: lim^1 of a cospan is the cokernel of
    # (a, b) |-> p(a) - q(b) : G_y + G_z -> G_x.
    p = s.bond("x", "y")
    q = s.bond("x", "z")
    diff = p.hstack(neg(q))
    oracle = cohomology_at(diff, IntMatrix.zeros(0, 1), Ring.integers())
    assert lim1 == oracle == GroupInvariants(0, (2,))
    assert derived_limit(s, 2).is_trivial


def test_limit_direct_frozen_cases():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    const = InverseSystem(
        q, Ring.integers(), {"a": 1, "b": 1}, {("a", "b"): IntMatrix([[1]])}
    )
    assert limit_direct(const) == GroupInvariants.free(1)
    assert limit_direct(_cospan_times_two()) == GroupInvariants.free(1)
    anti = InverseSystem(QuasiOrder(["a", "b"]), Ring.integers(), {"a": 1, "b": 1}, {})
    assert limit_direct(anti) == GroupInvariants.free(2)


def test_degree_zero_equals_direct_limit_random():
    rng = random.Random(160914)
    for _ in range(40):
        s = random_system(rng)
        assert derived_limit(s, 0) == limit_direct(s)


def test_differentials_compose_to_zero_random():
    rng = random.Random(2718)
    for _ in range(20):
        s = random_system(rng)
        cx = build_complex(s, 3)
        for n in range(1, 3):
            assert is_zero_over(s.ring, differential(cx, n + 1) @ differential(cx, n))


def test_cofinal_restriction_preserves_derived_limits():
    rng = random.Random(31337)
    for _ in range(25):
        s = random_system(rng, ensure_max=True)
        c = random_cofinal_subset(rng, s.index)
        assert s.index.is_cofinal(c)
        sc = s.restrict(c)
        for n in range(3):
            assert derived_limit(s, n) == derived_limit(sc, n)


def test_collapse_preserves_derived_limits():
    # Unlike cofinal restriction, this needs no directedness: every element
    # is isomorphic to its class representative. The degenerate route on the
    # uncollapsed system is the oracle for both routes on the collapsed one.
    rng = random.Random(77001)
    seen_nontrivial = 0
    for _ in range(30):
        s = random_system(rng, max_elements=4)
        c = collapse_equivalences(s)
        assert c.index.is_partial()
        if len(c.index) < len(s.index):
            seen_nontrivial += 1
        for n in range(3):
            oracle = derived_limit(s, n, degenerate=True)
            assert derived_limit(c, n, degenerate=True) == oracle
            assert derived_limit(c, n) == oracle
    assert seen_nontrivial >= 3


def test_maximum_element_kills_positive_degrees():
    rng = random.Random(404)
    for _ in range(20):
        s = random_system(rng, ensure_max=True)
        for n in range(1, 3):
            assert derived_limit(s, n).is_trivial


def test_strict_variant_matches_on_partial_orders():
    # Partial orders, then quasi-orders with nontrivial equivalence classes,
    # which the default route collapses before enumerating strict tuples.
    rng = random.Random(515)
    systems = [
        random_system(rng, index=random_quasi_order(rng, partial=True)) for _ in range(15)
    ]
    while len(systems) < 25:
        s = random_system(rng, max_elements=4)
        if not s.index.is_partial():
            systems.append(s)
    for s in systems:
        for n in range(3):
            assert derived_limit(s, n) == derived_limit(s, n, degenerate=True)


def test_limit_complex_is_normalized_on_the_core():
    # a and b collapse to a; then a, whose strict up-set is {t}, is an up
    # beat point, and the core is the one point t.
    q = QuasiOrder(["a", "b", "t"], [("a", "b"), ("b", "a"), ("a", "t")])
    ident = IntMatrix([[1]])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "t": 1},
        {("a", "b"): ident, ("b", "a"): ident, ("a", "t"): IntMatrix([[3]])},
    )
    cx = limit_complex(s, 2)
    # The one-point core t, with no tuple of degree 1 or more.
    assert cx.blocks == ((("t",),), (), ())
    oracle = limit_complex(s, 2, degenerate=True)
    # The oracle keeps repeated entries: (a, a) is a degree-1 tuple.
    assert ("a", "a") in oracle.blocks[1]
    assert oracle.dimension(1) == 7 > cx.dimension(1)
    for n in range(2):
        assert cx.cohomology(n) == oracle.cohomology(n)


def _degenerate_dimension(s, n=4):
    return sum(s.rank(t[0]) for t in chains(s.index, n))


def _unimodular(rng, n):
    """A random unimodular integer matrix and its inverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    if n and rng.random() < 0.5:
        k = rng.randrange(n)
        u[k] = [-a for a in u[k]]
        for row in inv:
            row[k] = -row[k]
    return IntMatrix(u, n), IntMatrix(inv, n)


def _conjugated(rng, s):
    """An isomorphic system: bond(a, b) becomes U_a^-1 bond(a, b) U_b with a
    separate random unimodular U_e at every element, so the bonds are no
    longer the generator's level-uniform ones."""
    us = {e: _unimodular(rng, s.rank(e)) for e in s.index.elements}
    bonds = {(a, b): us[a][1] @ m @ us[b][0] for (a, b), m in s.bonds().items() if a != b}
    return InverseSystem(s.index, s.ring, dict(s.ranks), bonds)


def _grid_family(rng, ring):
    columns = rng.randint(1, 3)
    family = [tuple(rng.randint(0, 2) for _ in range(columns)) for _ in range(rng.randint(2, 5))]
    return truncated_A(TruncationSpec(columns, tuple(family), ring))


def _crown_family(rng, ring):
    """Two incomparable functions below two incomparable ones, all four with
    the cell (0, 0), plus random extra members. lim^n is the sum over cells
    x of the nerve cohomology of the members containing x, and for (0, 0)
    without extras that is a circle, so lim^1 is often nonzero."""
    family = [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 1, 0), (1, 1, 1, 0, 1)]
    family += [tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(rng.randint(0, 2))]
    return truncated_A(TruncationSpec(5, tuple(family), ring))


def test_core_route_matches_the_degenerate_oracle():
    # lim^0..3 on the core against the degenerate complex of the system as
    # given. Gate systems alone are a weak test: their bonds depend only on
    # the level, so grid truncations and conjugated systems are added. The
    # degenerate degree-4 dimension is capped at 300 to keep the oracle cheap.
    rng = random.Random(88001)
    systems = []
    while len(systems) < 100:
        s = random_system(rng, max_rank=3, lo=-3, hi=3, ensure_max=len(systems) % 2 == 1)
        if _degenerate_dimension(s) <= 300:
            systems.append(s)
    for ring in (Ring.integers(), Ring.modular(2), Ring.modular(3)):
        for make, count in ((_grid_family, 30), (_crown_family, 8)):
            for _ in range(count):
                s = make(rng, ring)
                if _degenerate_dimension(s) <= 300:
                    systems.append(s)
    for partial in (False, True):
        for _ in range(50):
            index = random_quasi_order(rng, 6 if partial else 5, partial=partial)
            s = random_system(rng, index=index, max_rank=2 if partial else 3, lo=-3, hi=3)
            if _degenerate_dimension(s) <= 300:
                systems.append(_conjugated(rng, s))
    # The paper's system A on the layered family (4, 2, 3..5): 51 functions,
    # with a nonzero lim^2.
    system_a = _layered_A(4, 2, 3, 5)
    assert len(system_a.index) == 51
    systems.append(system_a)
    shrunk = nontrivial = 0
    for s in systems:
        core = limit_complex(s, 4)
        oracle = limit_complex(s, 4, degenerate=True)
        groups = [core.cohomology(n) for n in range(4)]
        assert groups == [oracle.cohomology(n) for n in range(4)], s
        shrunk += len(core_elements(s.index)) < len(collapse_equivalences(s).index)
        nontrivial += any(not g.is_trivial for g in groups[1:])
        if s is system_a:
            assert groups == [GroupInvariants.free(8), GroupInvariants.trivial(),
                              GroupInvariants.free(12), GroupInvariants.trivial()]
    assert shrunk >= 150 and nontrivial >= 30


def test_invalid_bonds_between_equivalent_elements_are_rejected():
    # The collapse keeps u alone and would look valid; the bonds u <-> v are
    # not mutually inverse, so the system must be rejected before it.
    q = QuasiOrder(["u", "v"], [("u", "v"), ("v", "u")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"u": 1, "v": 1},
        {("u", "v"): IntMatrix([[2]]), ("v", "u"): IntMatrix([[1]])},
    )
    assert validate_system(collapse_equivalences(s)).ok
    for degenerate in (False, True):
        with pytest.raises(InvalidSystemError):
            derived_limit(s, 0, degenerate=degenerate)
        with pytest.raises(InvalidSystemError):
            limit_complex(s, 1, degenerate=degenerate)


def test_strict_complex_is_smaller():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): IntMatrix([[1]]), ("b", "c"): IntMatrix([[1]])},
    )
    full = build_complex(s, 2)
    thin = build_complex(s, 2, strict=True)
    assert thin.dimension(1) == 3 < full.dimension(1) == 6
    assert thin.dimension(2) == 1 < full.dimension(2) == 10


def test_cochain_block_access_and_arithmetic():
    s = _cospan_times_two()
    cx = build_complex(s, 2)
    u = Cochain.from_values(cx, 0, {("x",): [5], ("z",): [-1]})
    assert u.value(("x",)) == (5,)
    assert u.value(("y",)) == (0,)
    v = u + u
    assert v.value(("x",)) == (10,)
    assert (u - u).is_zero()
    assert u.scale(3).value(("z",)) == (-3,)
    w = delta(u)
    assert w.degree == 1
    with pytest.raises(ValueError):
        Cochain(cx, 5, [])
    with pytest.raises(ValueError, match="no block"):
        u.value(("w",))


def test_cochain_refuses_non_integral_entries():
    # Entries pass through linalg._integral, as IntMatrix entries do: a
    # value that int() would change is refused, not truncated.
    cx = build_complex(_cospan_times_two(), 1)
    for bad in (1.5, Fraction(7, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            Cochain(cx, 0, [bad, 0, 0])
    u = Cochain(cx, 0, [2.0, True, Fraction(4, 2)])
    assert u.vector == (2, 1, 2)
    assert all(type(x) is int for x in u.vector)


def test_contract_frozen_example():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    s = InverseSystem(q, Ring.integers(), {"a": 1, "b": 1}, {("a", "b"): IntMatrix([[1]])})
    cx = build_complex(s, 2)
    u = Cochain.from_values(cx, 1, {("a", "a"): [1], ("a", "b"): [2], ("b", "b"): [3]})
    v = contract(u, "b", s)
    assert v.value(("a",)) == (2,)
    assert v.value(("b",)) == (3,)
    dv = delta(v)
    assert dv.value(("a", "b")) == (3 - 2,)
    du = delta(u)
    assert du.value(("a", "b", "b")) == (3,)
    # Degree 1, so delta(contract(u)) = contract(delta(u)) - u.
    assert dv == contract(du, "b", s) - u
    assert contract(Cochain.zero(cx, 1), "b", s).is_zero()


def test_contract_requires_domination():
    s = _cospan_times_two()
    cx = build_complex(s, 2)
    u = Cochain.zero(cx, 1)
    with pytest.raises(IndexNotDominatingError):
        contract(u, "y", s)


def test_contraction_identity_random():
    rng = random.Random(8128)
    for _ in range(30):
        s = random_system(rng, ensure_max=True, max_elements=3)
        top = s.index.maximum()
        deg = rng.randint(1, 2)
        cx = build_complex(s, deg + 1)
        u = random_cochain(rng, cx, deg)
        lhs = delta(contract(u, top, s))
        sign = (-1) ** (u.degree + 1)
        rhs = contract(delta(u), top, s) - u.scale(sign)
        assert lhs.vector == rhs.vector


def test_kept_invariant_factors_match_cohomology_at():
    # Over Z, cohomology(n) reads invariant factors kept per differential;
    # cohomology_at, which reduces both maps afresh, is the oracle. Degrees
    # are read in a random order, so the kept factors are reused both ways.
    rng = random.Random(4242)
    positive = torsion = 0
    for i in range(80):
        partial = i % 2 == 0
        index = random_quasi_order(rng, 5, partial=partial)
        s = random_system(rng, index=index, ring=Ring.integers(), max_rank=2 if partial else 3)
        for cx in (limit_complex(s, 4), build_complex(s, 3)):
            degrees = list(range(cx.n_max))
            rng.shuffle(degrees)
            for n in degrees + degrees:
                group = cx.cohomology(n)
                assert group == cohomology_at(differential(cx, n), differential(cx, n + 1), s.ring)
                positive += n > 0 and not group.is_trivial
                torsion += bool(group.torsion)
    assert positive >= 20 and torsion >= 8


def test_one_wrong_sign_breaks_the_complex_identity():
    # A 3-chain with identity bonds, strict tuples: degrees 0..2 have
    # dimensions 3, 3, 1, so the identity is checked by a product. Negating
    # the leading block of one tuple makes d_2 d_1 nonzero.
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    blocks = chains_upto(q, 2, strict=True)
    ranks = [[1] * len(b) for b in blocks]
    one = IntMatrix([[1]])

    def faces(wrong):
        def at(t):
            lead = neg(one) if t == wrong else one
            return lead, [face(t, k) for k in range(len(t))]
        return at

    for ring in (Ring.integers(), Ring.modular(3)):
        cx = RoosComplex(ring, blocks, ranks, faces(None))
        assert cx.total_ranks == (3, 3, 1)
        for wrong in blocks[1]:
            with pytest.raises(ValueError, match="complex identity fails between degrees 0..2"):
                RoosComplex(ring, blocks, ranks, faces(wrong))


def test_zero_degrees_cost_no_products(monkeypatch):
    # On a one-point core only degree 0 is nonzero, so the complex identity
    # needs no product and every positive degree reads the trivial group.
    # Every sparse product the complex or the cohomology over Z/m takes is
    # counted.
    products = []

    def counted(a, b):
        products.append((len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(rooslab.complexes, "product", counted)
    monkeypatch.setattr(rooslab.linalg, "product", counted)
    q = QuasiOrder(["a", "b", "top"], [("a", "top"), ("b", "top")])
    for ring in (Ring.integers(), Ring.modular(4), Ring.modular(6)):
        s = InverseSystem(q, ring, {"a": 2, "b": 1, "top": 2},
                          {("a", "top"): IntMatrix([[1, 0], [0, 2]]),
                           ("b", "top"): IntMatrix([[3, 1]])})
        validate_system(s)
        products.clear()
        cx = limit_complex(s, 5)
        assert cx.total_ranks == (2, 0, 0, 0, 0, 0) and products == []
        for n in range(1, 5):
            assert cx.cohomology(n).is_trivial
        assert products == []
        # The degenerate complex has every degree nonzero: one product per
        # inner degree.
        products.clear()
        cx = limit_complex(s, 4, degenerate=True)
        assert all(cx.total_ranks) and len(products) == 3


def test_cohomology_needs_depth():
    cx = build_complex(_one_point(), 1)
    with pytest.raises(ValueError):
        cx.cohomology(1)


def _reference_dense_differentials(blocks, block_ranks, faces):
    """The differentials as the assembler built them while it stored them
    dense: every row a full list of zeros, filled block by block."""
    totals, positions = [], []
    for n in range(len(blocks)):
        where, acc = {}, 0
        for label, r in zip(blocks[n], block_ranks[n]):
            where[label] = acc
            acc += r
        totals.append(acc)
        positions.append(where)
    diffs = [IntMatrix.zeros(totals[0], 0)]
    for n in range(1, len(blocks)):
        rows = [[0] * totals[n - 1] for _ in range(totals[n])]
        for t, r0 in zip(blocks[n], block_ranks[n]):
            row_off = positions[n][t]
            lead, labels = faces(t)
            col_off = positions[n - 1][labels[0]]
            for i in range(r0):
                for j, x in enumerate(lead.rows[i]):
                    rows[row_off + i][col_off + j] += x
            sign = 1
            for label in labels[1:]:
                sign = -sign
                col_off = positions[n - 1][label]
                for i in range(r0):
                    rows[row_off + i][col_off + i] += sign
        diffs.append(IntMatrix(rows, totals[n - 1]))
    return diffs


def _layered_A(columns, height, lo, hi):
    """truncated_A on every f in [0, height]^columns with lo <= sum(f) <= hi."""
    family = [
        f for f in itertools.product(range(height + 1), repeat=columns) if lo <= sum(f) <= hi
    ]
    return truncated_A(TruncationSpec(columns, tuple(family)))


def test_sparse_assembly_matches_the_dense_reference(monkeypatch):
    # Every complex records what its assembler was given, and its sparse
    # differentials, read back dense, must equal the dense reference's entry
    # for entry: on the acceptance gate's generated systems (over Z and Z/m,
    # core and degenerate route), on nerves of corepresented functors, and
    # on system A of the layered family (3, 2, 1..5).
    given = []
    init = RoosComplex.__init__

    def recording(self, ring, blocks, block_ranks, faces, *args, **kwargs):
        given.append((blocks, block_ranks, faces))
        init(self, ring, blocks, block_ranks, faces, *args, **kwargs)

    monkeypatch.setattr(RoosComplex, "__init__", recording)
    rng = random.Random(5151)
    builds = [lambda: limit_complex(_layered_A(3, 2, 1, 5), 3)]
    builds.append(lambda: limit_complex(_layered_A(3, 2, 1, 5), 2, degenerate=True))
    modular = 0
    for _ in range(40):
        s = random_system(rng, max_rank=3, lo=-3, hi=3, max_elements=4)
        modular += not s.ring.is_integers
        builds.append(lambda s=s: limit_complex(s, 3))
        builds.append(lambda s=s: limit_complex(s, 3, degenerate=True))
    for _ in range(10):
        c = random_category(rng)
        fun = corepresented_system(c, rng.choice(c.objects), rng.randint(1, 2))
        builds.append(lambda c=c, fun=fun: nerve_complex(c, fun, 3))
    nonzero = 0
    for build in builds:
        given.clear()
        cx = build()
        (inputs,) = given
        want = _reference_dense_differentials(*inputs)
        assert [differential(cx, n) for n in range(cx.n_max + 1)] == want
        # An entry that cancels, as at a degenerate tuple (a, a), is deleted.
        assert all(x for d in cx.diffs for row in d for x in row.values())
        nonzero += any(any(d) for d in cx.diffs[2:])
    assert modular >= 20 and nonzero >= 40


def test_system_A_costs_little():
    # System A of the layered family (5, 2, 4..6): 141 functions, cochain
    # dimensions 705, 2995, 2460, 0, 0, and lim^2 = Z^160. Dense storage
    # held each differential as a full matrix and peaked at about 129 MiB
    # here; the sparse form holds the 2 to 4 nonzeros of each row.
    s = _layered_A(5, 2, 4, 6)
    tracemalloc.start()
    try:
        cx = limit_complex(s, 4)
        groups = [cx.cohomology(n) for n in range(4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.total_ranks == (705, 2995, 2460, 0, 0)
    assert groups == [GroupInvariants.free(10), GroupInvariants.trivial(),
                      GroupInvariants.free(160), GroupInvariants.trivial()]
    assert peak < 16 << 20, peak
