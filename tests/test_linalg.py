"""Smith normal form, subquotient invariants, and exact solving."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rooslab import linalg
from rooslab.complexes import build_complex, limit_complex
from rooslab.gen import random_system
from rooslab.io import parse_ring
from rooslab.linalg import (
    CompositionNotZeroError,
    GroupInvariants,
    IntMatrix,
    Ring,
    ShapeMismatchError,
    cohomology_at,
    eliminate,
    invariant_factors,
    sparse,
)
from rooslab.les import Field

from oracle_linalg import (
    dense,
    differential,
    is_zero_over,
    kernel_basis,
    matvec,
    neg,
    scale,
    smith_normal_form,
    solve,
)
from test_les import _reference_echelon


def _transpose(m):
    return IntMatrix([[row[j] for row in m.rows] for j in range(m.ncols)], m.nrows)


def _rows_at(m, idx):
    return IntMatrix([m.rows[i] for i in idx], m.ncols)


def _is_zero(m):
    return not any(any(row) for row in m.rows)


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [list(r[:j]) + list(r[j + 1 :]) for r in rows[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def _random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)])


def _check_decomposition(m, snf):
    assert snf.d == snf.u @ m @ snf.v
    n = m.nrows
    c = m.ncols
    assert snf.u @ snf.u_inv == IntMatrix.identity(n)
    assert snf.u_inv @ snf.u == IntMatrix.identity(n)
    assert snf.v @ snf.v_inv == IntMatrix.identity(c)
    assert snf.v_inv @ snf.v == IntMatrix.identity(c)
    diag = snf.diagonal
    for x in diag:
        assert x >= 0
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero, "zero diagonal entries must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # Off-diagonal must be clean.
    for i, row in enumerate(snf.d.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_snf_diagonal_2_0_0_3():
    snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert snf.diagonal == [1, 6]
    _check_decomposition(IntMatrix([[2, 0], [0, 3]]), snf)


def test_snf_diagonal_2_4_6_8():
    m = IntMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.diagonal == [2, 4]
    _check_decomposition(m, snf)


def test_snf_zero_and_empty():
    snf = smith_normal_form(IntMatrix.zeros(3, 2))
    assert snf.diagonal == [0, 0]
    for shape in [(0, 0), (0, 4), (4, 0)]:
        m = IntMatrix.zeros(*shape)
        snf = smith_normal_form(m)
        assert snf.d.shape == shape
        _check_decomposition(m, snf)


def test_snf_random_properties():
    rng = random.Random(10301)
    for _ in range(120):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = _random_matrix(rng, nrows, ncols)
        snf = smith_normal_form(m)
        _check_decomposition(m, snf)
        again = smith_normal_form(m)
        assert again.d == snf.d and again.u == snf.u and again.v == snf.v


def test_snf_divisors_match_minor_gcds():
    # d_1 * ... * d_k equals the gcd of all k x k minors.
    import math

    rng = random.Random(7211)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = _random_matrix(rng, nrows, ncols, -5, 5)
        diag = smith_normal_form(m).diagonal
        for k in range(1, min(nrows, ncols) + 1):
            g = 0
            for ri in combinations(range(nrows), k):
                for ci in combinations(range(ncols), k):
                    sub = [[m.rows[i][j] for j in ci] for i in ri]
                    g = math.gcd(g, _det(sub))
            prod = 1
            for d in diag[:k]:
                prod *= d
            assert prod == g


def test_kernel_basis_spans_and_is_independent():
    rng = random.Random(5150)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        m = _random_matrix(rng, nrows, ncols, -4, 4)
        k = kernel_basis(m)
        assert _is_zero(m @ k)
        r = smith_normal_form(m).rank
        assert k.ncols == ncols - r
        assert smith_normal_form(k).rank == k.ncols


def test_cohomology_z2_witness():
    d_in = IntMatrix([[2], [0]])
    d_out = IntMatrix([[0, 1]])
    assert cohomology_at(d_in, d_out, Ring.integers()) == GroupInvariants(0, (2,))


def test_cohomology_zero_maps_give_free_module():
    for r in range(4):
        d_in = IntMatrix.zeros(r, 0)
        d_out = IntMatrix.zeros(0, r)
        assert cohomology_at(d_in, d_out, Ring.integers()) == GroupInvariants.free(r)


def test_cohomology_rejects_nonzero_composition():
    d_in = IntMatrix([[1], [0]])
    d_out = IntMatrix([[1, 0]])
    with pytest.raises(CompositionNotZeroError):
        cohomology_at(d_in, d_out, Ring.integers())
    # ... but the doubled inclusion is a complex mod 2.
    g = cohomology_at(IntMatrix([[2], [0]]), d_out, Ring.modular(2))
    assert g == GroupInvariants(0, (2,))


def test_cohomology_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        cohomology_at(IntMatrix.zeros(3, 1), IntMatrix.zeros(1, 2), Ring.integers())


def test_cohomology_of_a_zero_ambient_is_trivial(monkeypatch):
    # No reduction runs: the group is trivial once the shapes agree.
    import rooslab.linalg

    def refuse(m):
        raise AssertionError("a zero ambient module needs no reduction")

    monkeypatch.setattr(rooslab.linalg, "invariant_factors", refuse)
    for ring in (Ring.integers(), Ring.modular(4), Ring.modular(6)):
        for cols in range(3):
            for rows in range(3):
                d_in = IntMatrix.zeros(0, cols)
                d_out = IntMatrix.zeros(rows, 0)
                assert cohomology_at(d_in, d_out, ring) == GroupInvariants.trivial()
        with pytest.raises(ShapeMismatchError):
            cohomology_at(IntMatrix.zeros(0, 2), IntMatrix.zeros(1, 3), ring)
        with pytest.raises(ShapeMismatchError):
            cohomology_at(IntMatrix([[1], [2]]), IntMatrix.zeros(1, 0), ring)


def test_cohomology_modular_cokernels():
    # Cokernel of multiplication by 2 on Z/4 is Z/2.
    g = cohomology_at(IntMatrix([[2]]), IntMatrix.zeros(0, 1), Ring.modular(4))
    assert g == GroupInvariants(0, (2,))
    # Full module (Z/4)^2 when both maps vanish.
    g = cohomology_at(IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 2), Ring.modular(4))
    assert g == GroupInvariants(0, (4, 4))
    # Identity map mod 2 kills everything.
    g = cohomology_at(IntMatrix.identity(2), IntMatrix.zeros(0, 2), Ring.modular(2))
    assert g.is_trivial
    # Kernel of multiplication by 2 on Z/4 with no relations.
    g = cohomology_at(IntMatrix.zeros(1, 0), IntMatrix([[2]]), Ring.modular(4))
    assert g == GroupInvariants(0, (2,))


def test_cohomology_invariant_under_unimodular_change_of_basis():
    rng = random.Random(90125)

    def random_unimodular(n):
        m = IntMatrix.identity(n).mutable_rows()
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-2, 2)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        return IntMatrix(m)

    def random_unimodular_inverse(p):
        # Solve P X = I column by column; entries are integers since P is unimodular.
        cols = []
        n = p.nrows
        for j in range(n):
            e = [1 if i == j else 0 for i in range(n)]
            x = solve(p, e, Ring.integers())
            assert x is not None
            cols.append(x)
        return IntMatrix([[cols[j][i] for j in range(n)] for i in range(n)])

    for trial in range(30):
        amb = rng.randint(1, 4)
        s = rng.randint(0, 3)
        d_in = _random_matrix(rng, amb, s, -3, 3)
        # Build d_out annihilating d_in: rows from the transpose of the kernel
        # of d_in's transpose... simplest honest route: d_out = rows of the
        # left-kernel of d_in, scaled and mixed.
        left = _transpose(kernel_basis(_transpose(d_in)))
        take = rng.randint(0, left.nrows)
        d_out = _rows_at(left, range(take)) if take else IntMatrix.zeros(0, amb)
        base = cohomology_at(d_in, d_out, Ring.integers())
        p = random_unimodular(amb)
        p_inv = random_unimodular_inverse(p)
        moved = cohomology_at(p @ d_in, d_out @ p_inv, Ring.integers())
        assert moved == base


def test_solve_frozen_examples():
    assert solve(IntMatrix([[2]]), [3], Ring.integers()) is None
    assert solve(IntMatrix([[2]]), [3], Ring.modular(5)) == [4]
    assert solve(IntMatrix.identity(3), [5, -1, 2], Ring.integers()) == [5, -1, 2]


def test_solve_random_consistency():
    rng = random.Random(77)
    for _ in range(120):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        ring = rng.choice([Ring.integers(), Ring.modular(2), Ring.modular(6)])
        m = _random_matrix(rng, nrows, ncols, -4, 4)
        x0 = [rng.randint(-3, 3) for _ in range(ncols)]
        b = matvec(m, x0)
        if not ring.is_integers:
            b = [v % ring.modulus for v in b]
        x = solve(m, b, ring)
        assert x is not None
        got = matvec(m, x)
        if ring.is_integers:
            assert got == b
        else:
            assert all((u - w) % ring.modulus == 0 for u, w in zip(got, b))
        # Deterministic: same answer on a second run.
        assert solve(m, b, ring) == x


def test_solve_reports_unsolvable():
    rng = random.Random(991)
    found_none = 0
    for _ in range(200):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        m = _random_matrix(rng, nrows, ncols, -3, 3)
        b = [rng.randint(-6, 6) for _ in range(nrows)]
        x = solve(m, b, Ring.integers())
        if x is None:
            found_none += 1
            # Cross-check with a brute-force search over a small box.
            box = range(-8, 9)
            if ncols <= 2:
                from itertools import product

                assert all(matvec(m, list(c)) != b for c in product(box, repeat=ncols))
        else:
            assert matvec(m, x) == b
    assert found_none > 10


def test_group_invariants_validation():
    with pytest.raises(ValueError):
        GroupInvariants(-1)
    with pytest.raises(ValueError):
        GroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        GroupInvariants(0, (4, 2))
    for torsion in [(2.5,), (2, Fraction(9, 2)), (2, 4.000001)]:
        with pytest.raises(ValueError):
            GroupInvariants(1, torsion)
    with pytest.raises(ValueError):
        GroupInvariants(1.5)
    g = GroupInvariants(1.0, (2.0, Fraction(4)))
    assert (g.free_rank, g.torsion) == (1, (2, 4)) and type(g.free_rank) is int
    assert GroupInvariants(0, (2, 4)).torsion == (2, 4)
    assert GroupInvariants.trivial().is_trivial


def test_ring_parse_render():
    assert parse_ring("Z") == Ring.integers()
    assert parse_ring("Z/6") == Ring.modular(6)
    assert Ring.modular(6).render() == "Z/6"
    assert Ring.integers().render() == "Z"
    for tag in ("Q", "Z/4_0", "Z/04", "Z/ 4", "Z/4 ", "Z/+6", "Z/\u0664"):
        with pytest.raises(ValueError):
            parse_ring(tag)
    with pytest.raises(ValueError):
        Ring.modular(1)


def test_matrix_literal_checks():
    with pytest.raises(ShapeMismatchError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ShapeMismatchError):
        IntMatrix([[1, 2]], 3)
    # An entry is taken only if int() keeps its value.
    for rows in ([[1.5, -2.7]], [[1, Fraction(7, 2)]], [[0], [-0.5]], [["3"]]):
        with pytest.raises(ValueError):
            IntMatrix(rows)
    m = IntMatrix([[True, 2]])
    assert m.rows == ((1, 2),)
    assert all(type(x) is int for x in m.rows[0])
    m = IntMatrix([[2.0, Fraction(-6, 2)]])
    assert m.rows == ((2, -3),) and all(type(x) is int for x in m.rows[0])
    # Results built inside linalg skip those checks; they must still be the
    # matrices a literal gives.
    a = IntMatrix([[1, -2, 0], [3, 0, 4]])
    b = IntMatrix([[2, 1], [0, -1], [5, 0]])
    built = [
        (a @ b, [[2, 3], [26, 3]]),
        (a.hstack(IntMatrix([[7], [8]])), [[1, -2, 0, 7], [3, 0, 4, 8]]),
        (IntMatrix.zeros(3, 0), [[], [], []]),
        (IntMatrix.zeros(0, 3), []),
    ]
    for got, rows in built:
        want = IntMatrix(rows, len(rows[0]) if rows else 3)
        assert got.shape == want.shape and got == want and got.rows == want.rows


def test_sparse_form_is_built_once_and_kept():
    # The form is built on the first call and kept on the immutable matrix:
    # every caller shares it. Matrices that are equal but distinct each keep
    # their own, and the form stays out of equality and hashing.
    m = IntMatrix([[0, 2, 0], [0, 0, 0], [-1, 0, 3]])
    form = sparse(m)
    assert form == [{1: 2}, {}, {0: -1, 2: 3}]
    assert sparse(m) is form
    twin = IntMatrix(m.rows)
    assert twin == m and hash(twin) == hash(m)
    assert sparse(twin) == form and sparse(twin) is not form
    with pytest.raises(AttributeError, match="immutable"):
        m._form = []
    for shape in [(0, 0), (0, 3), (3, 0)]:
        empty = IntMatrix.zeros(*shape)
        assert sparse(empty) is sparse(empty) == [{} for _ in range(shape[0])]


def _sparse_unit_matrix(rng, nrows, ncols):
    rows = [[0] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            roll = rng.random()
            if roll < 0.25:
                rows[i][j] = rng.choice((1, -1))
            elif roll < 0.35:
                rows[i][j] = rng.randint(-6, 6)
    return IntMatrix(rows, ncols)


def _oracle_matrices():
    rng = random.Random(40217)
    for _ in range(80):
        yield _sparse_unit_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        yield IntMatrix([[2 * rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
    for shape in [(0, 0), (0, 3), (3, 0), (2, 2)]:
        yield IntMatrix.zeros(*shape)
    for _ in range(20):
        s = random_system(rng, max_elements=4)
        for cx in (limit_complex(s, 3), build_complex(s, 2)):
            yield from (differential(cx, n) for n in range(cx.n_max + 1))


def test_invariant_factors_match_smith_diagonal():
    # Unit-free matrices reach the library's Smith form whole; on these the
    # divisibility sweep has to fire. The empty shapes among the oracle
    # matrices reach it only through the direct call.
    swept = [[[2, 0], [0, 3]], [[4, 0], [0, 6]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]]]
    for m in [*_oracle_matrices(), *map(IntMatrix, swept)]:
        want = smith_normal_form(m).invariant_factors
        assert invariant_factors(sparse(m)) == want, m
        assert linalg.smith_normal_form(m) == want, m


def test_invariant_factors_of_an_empty_side_cost_no_set_up(monkeypatch):
    # A matrix with no rows or no columns has no factor: the call returns
    # before it builds the row index or the column heap, and never reaches
    # the Smith form.
    def refuse(*args):
        raise AssertionError("set-up on an empty side")

    monkeypatch.setattr(linalg.heapq, "heapify", refuse)
    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert invariant_factors(sparse(IntMatrix.zeros(*shape))) == []


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for m in _oracle_matrices():
        if m.nrows * m.ncols > 400:
            continue
        d = sympy_snf(sympy.Matrix(m.nrows, m.ncols, [x for r in m.rows for x in r]),
                      domain=sympy.ZZ)
        want = [abs(int(d[i, i])) for i in range(min(m.shape)) if d[i, i] != 0]
        assert invariant_factors(sparse(m)) == want, m


def _rank_over_q(m):
    rows = [[Fraction(x) for x in r] for r in m.rows]
    rank = 0
    for j in range(m.ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_invariant_factors_form_a_divisor_chain_of_rational_rank():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 6).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=6
            ).map(lambda rows: IntMatrix(rows, ncols))
        )
    )
    def check(m):
        factors = invariant_factors(sparse(m))
        assert all(d >= 1 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert len(factors) == _rank_over_q(m)

    check()


def _cohomology_by_transforms(d_in, d_out, ring):
    """The transform route: kernel coordinates from ``v_inv`` of one Smith
    decomposition, then the Smith diagonal of the relations in them."""
    if ring.is_integers:
        a, b = d_out, d_in
    else:
        k = ring.modulus
        a = d_out.hstack(scale(IntMatrix.identity(d_out.nrows), k))
        tail = d_out @ d_in
        lift_in = IntMatrix([[-x // k for x in row] for row in tail.rows], tail.ncols)
        b = d_in.hstack(scale(IntMatrix.identity(d_out.ncols), k))
        b = b.vstack(lift_in.hstack(neg(d_out)))
    snf = smith_normal_form(a, want_u=False, want_u_inv=False)
    diag = snf.diagonal
    kernel_idx = [j for j in range(a.ncols) if j >= len(diag) or diag[j] == 0]
    coords = snf.v_inv @ b
    for i in set(range(coords.nrows)) - set(kernel_idx):
        assert not any(coords.rows[i])
    factors = smith_normal_form(_rows_at(coords, kernel_idx)).invariant_factors
    return GroupInvariants(len(kernel_idx) - len(factors), tuple(d for d in factors if d >= 2))


def _modular_pairs(rng, m, count):
    """Random (d_in, d_out) with d_out * d_in = 0 mod m, by rejection."""
    found = 0
    while found < count:
        amb, s, r = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        d_in = IntMatrix([[rng.choice((0, 0, rng.randrange(m))) for _ in range(s)]
                          for _ in range(amb)], s)
        d_out = IntMatrix([[rng.choice((0, 0, rng.randrange(m))) for _ in range(amb)]
                           for _ in range(r)], amb)
        if is_zero_over(Ring.modular(m), d_out @ d_in):
            found += 1
            yield d_in, d_out


def test_cohomology_matches_transform_route():
    rng = random.Random(61813)
    z4 = Ring.modular(4)
    d_in = IntMatrix([[2, 0], [0, 0]])
    assert cohomology_at(d_in, IntMatrix([[0, 0], [0, 2]]), z4) == GroupInvariants(0, (2, 2))
    assert cohomology_at(d_in, IntMatrix([[2, 0], [0, 0]]), z4) == GroupInvariants(0, (4,))
    cases = 0
    for ring in (Ring.integers(), Ring.modular(2), z4, Ring.modular(6)):
        pairs = []
        for _ in range(15):
            cx = limit_complex(random_system(rng, ring=ring, max_elements=4), 4)
            pairs += [(differential(cx, n), differential(cx, n + 1)) for n in range(cx.n_max)]
        if ring.is_integers:
            for _ in range(40):
                d_in = _random_matrix(rng, rng.randint(1, 5), rng.randint(0, 4), -3, 3)
                left = _transpose(kernel_basis(_transpose(d_in)))
                pairs.append((d_in, _rows_at(left, range(rng.randint(0, left.nrows)))))
        else:
            pairs += list(_modular_pairs(rng, ring.modulus, 60))
        for d_in, d_out in pairs:
            assert cohomology_at(d_in, d_out, ring) == _cohomology_by_transforms(d_in, d_out, ring)
            cases += 1
    assert cases > 400


def _random_rows(rng, nrows, ncols, rational=False):
    """Sparse rows of mostly +-1 entries, some larger, over Q some fractions."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            roll = rng.random()
            if roll < 0.2:
                row[j] = rng.choice((1, -1))
            elif roll < 0.4:
                row[j] = rng.choice((2, -2, 3, 4, -5, 6))
            if rational and j in row and rng.random() < 0.3:
                row[j] = Fraction(row[j], rng.choice((2, 3)))
        rows.append(row)
    return rows


def _lattice(rows, width, modulus):
    """The Smith diagonal of the rows' span over Z, with m e_j adjoined over Z/m."""
    rows = list(rows) + [{j: modulus} for j in range(width) if modulus]
    return smith_normal_form(dense(rows, width)).invariant_factors


def test_eliminate_takes_unit_pivots_to_reduced_echelon_form():
    # Random sparse rows over Z, Z/4, Z/6, Q, GF(2), GF(3) and GF(5), some
    # with right-hand-side columns from the width on. Every pivot row is 1 at
    # its pivot and 0 at every other pivot column, and no row left has a
    # unit entry below the width. Over a field the rank and the row space
    # are those of the reference echelon form; over Z and Z/m the row
    # operations keep the span, and a run that leaves no entry below the
    # width has the rank of GF(p) for every p dividing m (every p over Z).
    rng = random.Random(22022)
    rings = [Ring.integers(), Ring.modular(4), Ring.modular(6)]
    rings += [Field(0), Field(2), Field(3), Field(5)]
    complete, incomplete = {}, {}
    riding = 0
    for i in range(1400):
        ring = rings[i % len(rings)]
        k = ring.modulus
        width, extra = rng.randint(1, 7), rng.choice((0, 0, 1, 3))
        rows = _random_rows(rng, rng.randint(0, 7), width + extra, ring == Field(0))
        copy = [dict(row) for row in rows]
        pivots, rest = eliminate(rows, ring, width)
        assert rows == copy
        for q, row in pivots.items():
            assert q < width and row[q] == 1
            assert all(j == q or j not in row for j in pivots)
            riding += any(j >= width for j in row)
        for row in [*pivots.values(), *rest]:
            assert row and all(x and (not k or 0 < x < k) for x in row.values())
        assert not any(ring.unit(x) for row in rest for j, x in row.items() if j < width)
        left = any(j < width for row in rest for j in row)
        if isinstance(ring, Field):
            assert not left
            want, want_rest = _reference_echelon(ring, rows, width)
            assert len(pivots) == len(want)
            got, reference = [*pivots.values(), *rest], [*want.values(), *want_rest]
            span = len(_reference_echelon(ring, got + reference, width + extra)[0])
            assert span == len(_reference_echelon(ring, got, width + extra)[0])
            assert span == len(_reference_echelon(ring, rows, width + extra)[0])
            continue
        total = width + extra
        assert _lattice(list(pivots.values()) + rest, total, k) == _lattice(rows, total, k)
        primes = [p for p in (2, 3, 5, 7) if k % p == 0] if k else [0, 2, 3, 5, 7]
        if left:
            incomplete[k] = incomplete.get(k, 0) + 1
        else:
            complete[k] = complete.get(k, 0) + 1
            for p in primes:
                assert len(pivots) == len(_reference_echelon(Field(p), rows, width)[0])
        if not k:
            # Over Z the rows left are the Schur complement: the rational
            # rank is the pivot count plus theirs.
            rank = len(_reference_echelon(Field(0), rows, width)[0])
            below = [{j: x for j, x in row.items() if j < width} for row in rest]
            assert rank == len(pivots) + len(_reference_echelon(Field(0), below, width)[0])
    assert all(complete.get(k, 0) >= 80 and incomplete.get(k, 0) >= 30 for k in (0, 4, 6))
    assert riding >= 200
    # One-row inputs, with the width below, inside and past the row's
    # columns: the pivot is the lowest column below the width whose entry is
    # a unit, and a row with no such column is left as it is.
    kinds = {}
    for i in range(1800):
        ring = rings[i % 6]
        norm = ring.norm
        row = _random_rows(rng, 1, rng.randint(2, 6), ring == Field(0))[0]
        row = {j: y for j, x in row.items() if (y := norm(x))}
        if not row:
            continue
        low, high = min(row), max(row)
        width = rng.choice(
            (rng.randint(0, low), rng.randint(low + 1, max(low + 1, high)), high + 3, math.inf)
        )
        where = "below" if width <= low else "past" if width > high else "inside"
        pivots, rest = eliminate([row], ring, width)
        units = [j for j in sorted(row) if j < width and ring.unit(row[j]) is not None]
        kind = (ring, where, bool(units), any(j < width for j in row))
        kinds[kind] = kinds.get(kind, 0) + 1
        if not units:
            assert (pivots, rest) == ({}, [row])
            if isinstance(ring, Field):
                assert (pivots, rest) == _reference_echelon(ring, [row], width)
        else:
            q, s = units[0], ring.unit(row[units[0]])
            assert list(pivots) == [q] and rest == []
            assert pivots[q] == {j: norm(s * x) for j, x in row.items()}
            # Below q sit only non-units, so the reference, which pivots on
            # the first entry it meets, is given the row from q on.
            tail = {j: x for j, x in row.items() if j >= q}
            want = _reference_echelon(ring, [tail], q + 1)
            assert want == ({q: {j: x for j, x in pivots[q].items() if j >= q}}, [])
        if ring == Ring.integers():
            want = smith_normal_form(dense([row], high + 1)).invariant_factors
            assert invariant_factors([row]) == want
    for ring in rings[:6]:
        for where in ("below", "inside", "past"):
            assert kinds.get((ring, where, where != "below", where != "below"), 0) >= 12
    for ring in rings[:3]:
        # Entries below the width, none of them a unit.
        assert sum(n for (r, _, u, some), n in kinds.items() if r == ring and some and not u) >= 10
