"""Inverse systems: validation, restriction, grid truncations, SESs."""

import random
from collections import Counter

import pytest

import rooslab.linalg
import rooslab.systems
from rooslab.gen import random_quasi_order, random_ses, random_system
from rooslab.io import system_from_doc, system_to_doc
from rooslab.linalg import IntMatrix, Ring, cohomology_at
from rooslab.orders import QuasiOrder
from rooslab.systems import (
    BondError,
    InverseSystem,
    SystemSES,
    TruncationSpec,
    core_elements,
    grid_cells,
    surjective_bonds,
    truncated_A,
    validate_ses,
    validate_system,
)

from oracle_linalg import is_zero_over, matrices_equal, scale
from unimodular import conjugated_ses, unimodular


def _cospan_times_two():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    return InverseSystem(
        q,
        Ring.integers(),
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): IntMatrix([[2]]), ("x", "z"): IntMatrix([[2]])},
    )


def test_constant_system_valid_and_surjective():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    s = InverseSystem(q, Ring.integers(), {"a": 2, "b": 2}, {("a", "b"): IntMatrix.identity(2)})
    rep = validate_system(s)
    assert rep.ok and all(surjective_bonds(s).values())


def test_cospan_valid_not_surjective():
    s = _cospan_times_two()
    assert validate_system(s).ok
    surjective = surjective_bonds(s)
    assert not all(surjective.values())
    assert surjective[("x", "y")] is False
    assert surjective[("x", "x")] is True


def test_ranks_are_read_only():
    s = _cospan_times_two()
    with pytest.raises(TypeError):
        s.ranks["x"] = 3
    assert s.rank("x") == 1
    assert s == _cospan_times_two()
    assert repr(s) == "InverseSystem(|index|=3, ring=Z, ranks={'x': 1, 'y': 1, 'z': 1})"


@pytest.mark.parametrize(
    "ranks,needle",
    [
        ({"a": 1}, "no rank for 'b'"),
        ({"a": 1, "b": -1}, "rank of 'b' must be a natural number"),
        ({"a": 1, "b": "1"}, "rank of 'b' must be a natural number"),
        ({"a": 1, "b": 1.5}, "rank of 'b' must be a natural number"),
        ({"a": 1, "b": None}, "rank of 'b' must be a natural number"),
        ({"a": 1, "b": 1, "zz": 4}, r"unknown labels \['zz'\]"),
    ],
    ids=["missing", "negative", "string", "fraction", "none", "unknown-label"],
)
def test_ranks_are_naturals_at_the_index_labels_only(ranks, needle):
    q = QuasiOrder(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError, match=needle):
        InverseSystem(q, Ring.integers(), ranks, {("a", "b"): IntMatrix([[1]])})


def test_a_rank_that_int_leaves_unchanged_is_that_integer():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    bonds = {("a", "b"): IntMatrix([[1]])}
    same = InverseSystem(q, Ring.integers(), {"a": 1.0, "b": 1}, bonds)
    assert same == InverseSystem(q, Ring.integers(), {"a": 1, "b": 1}, bonds)
    assert type(same.rank("a")) is int


def test_composition_mismatch_reported():
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
    rep = validate_system(s)
    assert not rep.ok
    assert ("a", "b", "c") in rep.violations


def _all_triples_violations(s):
    """validate_system's loop as it was before it skipped the triples with
    lam == mu or mu == nu: every related triple, composed and compared."""
    out = []
    elems = s.index.elements
    for lam in elems:
        for mu in elems:
            if not s.index.leq(lam, mu):
                continue
            for nu in elems:
                if s.index.leq(mu, nu):
                    left = s.bond(lam, mu) @ s.bond(mu, nu)
                    if not matrices_equal(s.ring, left, s.bond(lam, nu)):
                        out.append((lam, mu, nu))
    return tuple(out)


def test_validate_system_skips_only_triples_that_hold_by_construction():
    # Random systems, quasi-orders included, with some declared off-diagonal
    # bonds replaced by random matrices: the violations must be exactly the
    # full triple loop's, in the same order. Triples (lam, mu, lam) through
    # an equivalent mu have no repeated middle end and must still be caught.
    rng = random.Random(90210)
    corrupted = returning = 0
    for _ in range(150):
        s = random_system(rng, max_elements=5, ensure_max=rng.random() < 0.5)
        bonds = {p: m for p, m in s.bonds().items() if p[0] != p[1]}
        for pair in rng.sample(sorted(bonds, key=repr), min(len(bonds), rng.randint(1, 3))):
            r, c = bonds[pair].shape
            bonds[pair] = IntMatrix([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)], c)
        t = InverseSystem(s.index, s.ring, dict(s.ranks), bonds)
        want = _all_triples_violations(t)
        assert validate_system(t).violations == want
        corrupted += bool(want)
        returning += any(lam == nu for lam, _, nu in want)
    assert corrupted >= 40 and returning >= 10


def _chain(n):
    labels = [f"t{i:02d}" for i in range(n)]
    return QuasiOrder(labels, list(zip(labels, labels[1:])))


def test_core_of_an_index_with_a_maximum_is_one_point():
    assert core_elements(_chain(12)) == ["t11"]
    rng = random.Random(6000)
    for _ in range(40):
        q = random_quasi_order(rng, ensure_max=True)
        assert core_elements(q) == [q.maximum()]


def test_core_keeps_the_cospan_and_drops_up_beat_points():
    cospan = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    assert core_elements(cospan) == ["x", "y", "z"]
    # Equivalent elements collapse to the first of their class; then w,
    # with the single element y above it, is an up beat point.
    q = QuasiOrder(["u", "x", "v", "w", "y", "z"],
                   [("u", "x"), ("x", "v"), ("v", "u"), ("u", "y"), ("u", "z"), ("w", "y")])
    assert core_elements(q) == ["u", "y", "z"]


def test_core_is_idempotent_and_deterministic():
    rng = random.Random(6001)
    beats = 0
    for _ in range(80):
        q = random_quasi_order(rng, 6)
        keep = core_elements(q)
        again = QuasiOrder(q.elements, q.related_pairs())
        assert core_elements(again) == keep == core_elements(q)
        assert all(q.position(a) < q.position(b) for a, b in zip(keep, keep[1:]))
        core = q.restrict(keep)
        assert core.is_partial()
        assert core_elements(core) == keep
        beats += len(keep) < len(q.equivalence_classes())
    assert beats >= 30


def _reference_core_elements(index):
    """``core_elements`` as it was before the order kept bitmasks: lists of
    labels and one ``leq`` call per comparison."""
    leq = index.leq
    keep = [cls[0] for cls in index.equivalence_classes()]
    while True:
        for p in keep:
            above = [q for q in keep if q != p and leq(p, q)]
            if any(all(leq(m, q) for q in above) for m in above):
                keep.remove(p)
                break
        else:
            return keep


def test_core_elements_matches_the_list_based_reference():
    # Random pair lists with cycles, self-pairs and repeats, in shuffled
    # label order, and the partial orders and maximum-topped orders the
    # generator draws.
    rng = random.Random(254)
    shrunk = 0
    for i in range(360):
        if i % 3 == 0:
            labels = [f"e{k}" for k in range(rng.randint(1, 8))]
            rng.shuffle(labels)
            pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 14))]
            q = QuasiOrder(labels, pairs + pairs[: rng.randint(0, len(pairs))])
        else:
            q = random_quasi_order(rng, 7, ensure_max=i % 3 == 1, partial=i % 6 == 2)
        want = _reference_core_elements(q)
        assert core_elements(q) == want
        shrunk += len(want) < len(q.equivalence_classes())
    assert shrunk >= 150


def _reference_bonds(index, ranks, declared):
    """The constructor's bond table as it was before it skipped the search
    for a system that declares every pair: an identity per element, then
    each related pair in order, declared or composed along the BFS path."""
    full = {(e, e): IntMatrix.identity(ranks[e]) for e in index.elements}
    neighbors = {}
    for lam, mu in declared:
        if lam != mu:
            neighbors.setdefault(lam, []).append(mu)
    for lam in neighbors:
        neighbors[lam].sort(key=index.position)
    for lam, mu in index.related_pairs():
        if (lam, mu) in declared:
            full[(lam, mu)] = declared[(lam, mu)]
            continue
        path = InverseSystem._bfs_path(lam, mu, neighbors)
        if path is None:
            raise BondError(f"bond for ({lam!r}, {mu!r}) neither declared nor derivable")
        m = declared[(path[0], path[1])]
        for a, b in zip(path[1:], path[2:]):
            m = m @ declared[(a, b)]
        full[(lam, mu)] = m
    return full


def test_a_system_declaring_every_pair_runs_no_search(monkeypatch):
    # Documents declare every related pair, so the constructor neither
    # sorts a neighbour table (by position) nor searches for a path.
    def refuse(*_):
        raise AssertionError("built a search though every pair is declared")

    rng = random.Random(61)
    docs = [system_to_doc(random_system(rng, max_elements=6)) for _ in range(60)]
    monkeypatch.setattr(InverseSystem, "_bfs_path", staticmethod(refuse))
    monkeypatch.setattr(QuasiOrder, "position", refuse)
    for doc in docs:
        s = system_from_doc(doc)
        assert len(s.bonds()) == len(s.index.related_pairs(include_diagonal=True))
    # A missing pair still needs both.
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    one = IntMatrix([[1]])
    with pytest.raises(AssertionError, match="every pair is declared"):
        InverseSystem(q, Ring.integers(), dict.fromkeys("abc", 1), {("a", "b"): one, ("b", "c"): one})


def test_a_missing_pair_derives_the_bond_it_always_did():
    # Bonds replaced by random matrices, so that two paths between the same
    # ends compose differently and the path the search picks shows; then
    # some declared pairs dropped. The table, its order included, and any
    # error equal the reference's.
    rng = random.Random(62)
    derived = underivable = 0
    for _ in range(300):
        s = random_system(rng, random_quasi_order(rng, 6, ensure_max=rng.random() < 0.5))
        q = s.index
        declared = {}
        for (lam, mu), m in s.bonds().items():
            through = any(q.leq(lam, x) and q.leq(x, mu) for x in q.elements if x not in (lam, mu))
            if lam != mu and rng.random() < (0.5 if through else 0.9):
                r, c = m.shape
                declared[(lam, mu)] = IntMatrix(
                    [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)], c
                )
        ranks = dict(s.ranks)
        try:
            want = _reference_bonds(s.index, ranks, declared)
        except BondError as err:
            with pytest.raises(BondError) as got:
                InverseSystem(s.index, s.ring, ranks, declared)
            assert str(got.value) == str(err)
            underivable += 1
            continue
        got = InverseSystem(s.index, s.ring, ranks, declared).bonds()
        assert list(got.items()) == list(want.items())
        derived += len(declared) < len(s.index.related_pairs())
    assert derived >= 40 and underivable >= 40


def test_elements_of_equal_rank_share_one_identity():
    rng = random.Random(63)
    shared = 0
    for _ in range(40):
        s = random_system(rng, max_elements=6)
        for a in s.index.elements:
            for b in s.index.elements:
                same = s.bond(a, a) is s.bond(b, b)
                assert same == (s.rank(a) == s.rank(b))
                assert s.bond(a, a) == IntMatrix.identity(s.rank(a))
                shared += same and a != b
    assert shared >= 40


def test_missing_bond_derived_by_composition():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): IntMatrix([[2]]), ("b", "c"): IntMatrix([[3]])},
    )
    assert s.bond("a", "c") == IntMatrix([[6]])
    assert validate_system(s).ok
    two = s.restrict(["a", "c"])
    assert two.bond("a", "c") == IntMatrix([[6]])


def test_underivable_bond_is_an_error():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    with pytest.raises(BondError):
        InverseSystem(
            q,
            Ring.integers(),
            {"x": 1, "y": 1, "z": 1},
            {("x", "y"): IntMatrix([[2]])},
        )


def test_bond_shape_and_diagonal_checks():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    with pytest.raises(BondError):
        InverseSystem(
            q, Ring.integers(), {"a": 1, "b": 2}, {("a", "b"): IntMatrix([[1]])}
        )
    with pytest.raises(BondError):
        InverseSystem(
            q,
            Ring.integers(),
            {"a": 1, "b": 1},
            {("a", "a"): IntMatrix([[2]]), ("a", "b"): IntMatrix([[1]])},
        )


def test_equivalent_elements_need_inverse_bonds():
    q = QuasiOrder(["u", "v"], [("u", "v"), ("v", "u")])
    good = InverseSystem(
        q,
        Ring.integers(),
        {"u": 1, "v": 1},
        {("u", "v"): IntMatrix([[-1]]), ("v", "u"): IntMatrix([[-1]])},
    )
    assert validate_system(good).ok
    bad = InverseSystem(
        q,
        Ring.integers(),
        {"u": 1, "v": 1},
        {("u", "v"): IntMatrix([[2]]), ("v", "u"): IntMatrix([[1]])},
    )
    assert not validate_system(bad).ok
    # ... but x2 in both directions is fine mod 3 (2 * 2 = 4 = 1).
    mod3 = InverseSystem(
        q,
        Ring.modular(3),
        {"u": 1, "v": 1},
        {("u", "v"): IntMatrix([[2]]), ("v", "u"): IntMatrix([[2]])},
    )
    assert validate_system(mod3).ok


def test_restrict_full_and_point():
    s = _cospan_times_two()
    assert s.restrict(["x", "y", "z"]) == s
    point = s.restrict(["x"])
    assert len(point.index) == 1 and point.rank("x") == 1


def _restrict_through_the_constructor(s, subset):
    """``InverseSystem.restrict`` as it was: the induced pairs closed again
    by ``QuasiOrder``, every kept bond declared to ``__init__``, and a
    passing verdict carried over."""
    keep = [e for e in s.index.elements if e in set(subset)]
    sub = QuasiOrder(keep, [(a, b) for a in keep for b in keep if s.index.leq(a, b)])
    ranks = {e: s.ranks[e] for e in sub.elements}
    bonds = {(a, b): s.bond(a, b) for (a, b) in sub.related_pairs(include_diagonal=True)}
    out = InverseSystem(sub, s.ring, ranks, bonds)
    if s._report is not None and s._report.ok:
        object.__setattr__(out, "_report", s._report)
    return out


def test_restrict_equals_the_constructor_route():
    # Unchecked, passing and failing systems (one or two bonds replaced),
    # quasi-orders with equivalences included, restricted to random subsets
    # that may name unknown labels: the copy equals the rebuilt system, bond
    # order included, and carries the same verdict.
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(120):
        s = random_system(rng, max_elements=5, ensure_max=rng.random() < 0.5)
        bonds = {p: m for p, m in s.bonds().items() if p[0] != p[1]}
        if bonds and rng.random() < 0.4:
            for pair in rng.sample(sorted(bonds, key=repr), min(len(bonds), rng.randint(1, 2))):
                r, c = bonds[pair].shape
                bonds[pair] = IntMatrix([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)], c)
            s = InverseSystem(s.index, s.ring, dict(s.ranks), bonds)
        if rng.random() < 0.7:
            seen["passing" if validate_system(s).ok else "failing"] += 1
        else:
            seen["unchecked"] += 1
        for _ in range(3):
            subset = rng.sample(s.index.elements, rng.randint(0, len(s.index)))
            subset += rng.sample(["zz", "e9"], rng.randint(0, 2))
            got = s.restrict(subset)
            want = _restrict_through_the_constructor(s, subset)
            assert got == want
            assert list(got.bonds().items()) == list(want.bonds().items())
            assert got._report is want._report
            assert validate_system(got) == validate_system(want)
            with pytest.raises(TypeError):
                got.ranks["e0"] = 1
    assert min(seen[k] for k in ("passing", "failing", "unchecked")) >= 15, seen


def test_random_systems_are_valid():
    rng = random.Random(5551)
    for _ in range(40):
        s = random_system(rng, ensure_max=rng.random() < 0.5)
        rep = validate_system(s)
        assert rep.ok, rep.violations


def test_truncated_a_single_function():
    s = truncated_A(TruncationSpec(1, [(1,)]))
    assert len(s.index) == 1
    assert s.rank("1") == 1


def test_truncation_heights_are_integers():
    assert TruncationSpec(2, [(1.0, 2)]).family == ((1, 2),)
    for bad in (1.5, "1", None):
        with pytest.raises((TypeError, ValueError)):
            TruncationSpec(2, [(bad, 2)])
    with pytest.raises(ValueError, match="not an integer"):
        TruncationSpec(2, [(1.5, 2.9)])


def test_truncated_a_three_functions():
    spec = TruncationSpec(2, [(2, 1), (1, 2), (2, 2)])
    s = truncated_A(spec)
    q = s.index
    assert q.elements == ("2,1", "1,2", "2,2")
    assert q.leq("2,1", "2,2") and q.leq("1,2", "2,2")
    assert not q.leq("2,1", "1,2") and not q.leq("1,2", "2,1")
    assert s.rank("2,2") == 4
    # Bond from the top to (2,1) kills cell (1,1), keeps (0,0),(0,1),(1,0).
    b = s.bond("2,1", "2,2")
    assert b == IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    rep = validate_system(s)
    assert rep.ok and all(surjective_bonds(s).values())


def test_truncated_a_antichain():
    s = truncated_A(TruncationSpec(2, [(2, 0), (0, 2)]))
    assert not s.index.leq("2,0", "0,2")
    assert not s.index.leq("0,2", "2,0")
    assert validate_system(s).ok


def test_truncated_a_domination_matches_grid_containment():
    rng = random.Random(88)
    for _ in range(20):
        m = rng.randint(1, 3)
        fam = [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(1, 4))]
        fam = list(dict.fromkeys(fam))  # distinct functions
        s = truncated_A(TruncationSpec(m, fam))
        labels = s.index.elements
        funcs = dict(zip(labels, fam))
        for a in labels:
            for b in labels:
                dominated = s.index.leq(a, b)
                contained = set(grid_cells(funcs[a])) <= set(grid_cells(funcs[b]))
                assert dominated == contained
        rep = validate_system(s)
        assert rep.ok and all(surjective_bonds(s).values())


def test_validate_ses_constant_split():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    ring = Ring.integers()
    one = {e: 1 for e in q.elements}
    two = {e: 2 for e in q.elements}
    g = InverseSystem(q, ring, one, {("a", "b"): IntMatrix.identity(1)})
    gg = InverseSystem(q, ring, two, {("a", "b"): IntMatrix.identity(2)})
    ses = SystemSES(
        sub=g,
        mid=gg,
        quot=g,
        inject={e: IntMatrix([[1], [0]]) for e in q.elements},
        project={e: IntMatrix([[0, 1]]) for e in q.elements},
    )
    assert validate_ses(ses).ok
    broken = SystemSES(
        sub=g,
        mid=gg,
        quot=g,
        inject={e: IntMatrix([[1], [0]]) for e in q.elements},
        project={e: IntMatrix.zeros(1, 2) for e in q.elements},
    )
    rep = validate_ses(broken)
    assert not rep.ok
    assert any("surjective" in v for v in rep.violations)


def _constant_pair(project_b):
    q = QuasiOrder(["a", "b"], [("a", "b")])
    ring = Ring.integers()
    g = InverseSystem(q, ring, {"a": 1, "b": 1}, {("a", "b"): IntMatrix.identity(1)})
    gg = InverseSystem(q, ring, {"a": 2, "b": 2}, {("a", "b"): IntMatrix.identity(2)})
    project = {"a": IntMatrix([[0, 1]]), "b": project_b}
    inject = {e: IntMatrix([[1], [0]]) for e in "ab"}
    return SystemSES(sub=g, mid=gg, quot=g, inject=inject, project=project)


def test_validate_ses_reports_wrong_shapes_and_labels():
    # A wrong-shaped map is reported, and the bond products that would
    # need it are skipped instead of raising.
    rep = validate_ses(_constant_pair(IntMatrix([[0, 1], [0, 0]])))
    assert rep.violations == ("project at 'b' has shape (2, 2), expected (1, 2)",)
    e = _constant_pair(IntMatrix([[0, 1]]))
    assert validate_ses(e).ok
    extra = SystemSES(e.sub, e.mid, e.quot, dict(e.inject, w=IntMatrix([[1]])), e.project)
    assert validate_ses(extra).violations == ("inject: matrices at unknown labels ['w']",)
    missing = SystemSES(e.sub, e.mid, e.quot, e.inject, {"b": e.project["b"]})
    assert validate_ses(missing).violations == ("project: no matrix for 'a'",)


def test_validate_ses_mod2_diagonal_example():
    q = QuasiOrder(["p"])
    ring = Ring.modular(2)
    a = InverseSystem(q, ring, {"p": 1}, {})
    b = InverseSystem(q, ring, {"p": 2}, {})
    ses = SystemSES(
        sub=a,
        mid=b,
        quot=a,
        inject={"p": IntMatrix([[1], [1]])},
        project={"p": IntMatrix([[1, 1]])},
    )
    assert validate_ses(ses).ok


def test_validate_ses_rejects_doubling_mod4():
    q = QuasiOrder(["p"])
    ring = Ring.modular(4)
    r1 = InverseSystem(q, ring, {"p": 1}, {})
    ses = SystemSES(
        sub=r1,
        mid=r1,
        quot=r1,
        inject={"p": IntMatrix([[2]])},
        project={"p": IntMatrix([[2]])},
    )
    rep = validate_ses(ses)
    assert not rep.ok
    assert any("injective" in v for v in rep.violations)


def test_random_ses_generator_is_valid():
    rng = random.Random(606)
    for _ in range(15):
        ses = random_ses(rng, split=rng.random() < 0.5)
        rep = validate_ses(ses)
        assert rep.ok, rep.violations


def test_validate_ses_accepts_a_middle_in_any_basis():
    rng = random.Random(607)
    basis = random.Random(608)
    for n in range(6):
        u, inv = unimodular(basis, n)
        assert u @ inv == IntMatrix.identity(n) == inv @ u
    moved = 0
    for ring in (Ring.integers(), Ring.modular(2), Ring.modular(6)):
        for _ in range(10):
            e = random_ses(rng, split=rng.random() < 0.5, ring=ring)
            c = conjugated_ses(e, basis)
            rep = validate_ses(c)
            assert rep.ok, rep.violations
            moved += any(c.inject[k] != e.inject[k] for k in e.inject)
    assert moved >= 25


def _ses_reference(e):
    """The levelwise check as it was before each map was reduced once: three
    ``cohomology_at`` calls per index element, on every ring."""
    violations = []
    ring = e.mid.ring
    if e.sub.ring != ring or e.quot.ring != ring:
        violations.append("rings differ between the three systems")
    if e.sub.index != e.mid.index or e.quot.index != e.mid.index:
        violations.append("index orders differ between the three systems")
        return tuple(violations)
    for name, sys in (("sub", e.sub), ("mid", e.mid), ("quot", e.quot)):
        rep = validate_system(sys)
        if not rep.ok:
            violations.append(f"{name} system fails functoriality: {rep.violations[:3]}")
    idx = e.mid.index
    for lam in idx.elements:
        if lam not in e.inject or lam not in e.project:
            violations.append(f"missing inject/project matrix at {lam!r}")
            continue
        i_m = e.inject[lam]
        p_m = e.project[lam]
        if i_m.shape != (e.mid.rank(lam), e.sub.rank(lam)):
            violations.append(f"inject shape wrong at {lam!r}")
            continue
        if p_m.shape != (e.quot.rank(lam), e.mid.rank(lam)):
            violations.append(f"project shape wrong at {lam!r}")
            continue
        if not is_zero_over(ring, p_m @ i_m):
            violations.append(f"project * inject nonzero at {lam!r}")
            continue
        ker_i = cohomology_at(IntMatrix.zeros(e.sub.rank(lam), 0), i_m, ring)
        if not ker_i.is_trivial:
            violations.append(f"inject not injective at {lam!r}")
        coker_p = cohomology_at(p_m, IntMatrix.zeros(0, e.quot.rank(lam)), ring)
        if not coker_p.is_trivial:
            violations.append(f"project not surjective at {lam!r}")
        middle = cohomology_at(i_m, p_m, ring)
        if not middle.is_trivial:
            violations.append(f"not exact at middle for {lam!r}")
    for lam, mu in idx.related_pairs(include_diagonal=False):
        if lam not in e.inject or mu not in e.inject:
            continue
        left = e.inject[lam] @ e.sub.bond(lam, mu)
        right = e.mid.bond(lam, mu) @ e.inject[mu]
        if not matrices_equal(ring, left, right):
            violations.append(f"inject does not commute with bond ({lam!r}, {mu!r})")
        left = e.project[lam] @ e.mid.bond(lam, mu)
        right = e.quot.bond(lam, mu) @ e.project[mu]
        if not matrices_equal(ring, left, right):
            violations.append(f"project does not commute with bond ({lam!r}, {mu!r})")
    return tuple(violations)


def _bumped(table):
    """A copy of a map table with 1 added to the first entry of its first
    matrix that has one."""
    out = dict(table)
    k, m = next(((k, m) for k, m in table.items() if m.nrows and m.ncols), (None, None))
    if m is not None:
        rows = m.mutable_rows()
        rows[0][0] += 1
        out[k] = IntMatrix(rows, m.ncols)
    return out


def _ses_draws(ring, count, seed):
    """Seeded random sequences over ``ring`` and their middles in a seeded
    unimodular basis, each followed by four broken copies: inject zeroed,
    project doubled, inject doubled, and one entry of each map changed,
    which can break the commutation with the bonds."""
    rng = random.Random(seed)
    basis = random.Random(seed + 1)
    for _ in range(count):
        drawn = random_ses(rng, max_rank=3, split=rng.random() < 0.5, ring=ring)
        for e in (drawn, conjugated_ses(drawn, basis)):
            yield e
            for inject, project in (
                ({k: IntMatrix.zeros(*m.shape) for k, m in e.inject.items()}, e.project),
                (e.inject, {k: scale(m, 2) for k, m in e.project.items()}),
                ({k: scale(m, 2) for k, m in e.inject.items()}, e.project),
                (_bumped(e.inject), _bumped(e.project)),
            ):
                yield SystemSES(sub=e.sub, mid=e.mid, quot=e.quot, inject=inject, project=project)


KINDS = (
    "inject not injective",
    "project not surjective",
    "not exact at middle",
    "inject does not commute",
    "project does not commute",
)


@pytest.mark.parametrize(
    "modulus,floors",
    [
        (0, (20, 20, 40, 5, 8)),
        (2, (25, 12, 40, 2, 4)),
        (4, (50, 20, 70, 16, 14)),
        (6, (35, 15, 50, 3, 5)),
    ],
)
def test_validate_ses_matches_three_subquotient_reference(monkeypatch, modulus, floors):
    """Over Z each map is reduced once, two ``invariant_factors`` calls per
    index element; every ring gives the reference's violations verbatim."""
    ring = Ring.integers() if modulus == 0 else Ring.modular(modulus)
    calls = [0]
    original = rooslab.linalg.invariant_factors

    def counted(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(rooslab.linalg, "invariant_factors", counted)
    monkeypatch.setattr(rooslab.systems, "invariant_factors", counted)
    kinds = Counter()
    for e in _ses_draws(ring, 12, 700 + modulus):
        want = _ses_reference(e)
        calls[0] = 0
        got = validate_ses(e).violations
        assert got == want
        if modulus == 0:
            # An element whose maps compose to nonzero is not reduced.
            skipped = sum(v.startswith("project * inject nonzero") for v in got)
            assert calls[0] == 2 * (len(e.mid.index.elements) - skipped)
        kinds.update(k for v in got for k in KINDS if v.startswith(k))
    assert all(kinds[k] >= floor for k, floor in zip(KINDS, floors)), kinds


def test_random_quasi_order_partial_flag():
    rng = random.Random(11)
    for _ in range(20):
        q = random_quasi_order(rng, partial=True)
        assert q.is_partial()
