"""Document round-trips, located parse errors, invariant rendering."""

import json
import random

import pytest

from rooslab.gen import (
    random_category,
    random_family,
    random_ses,
    random_system,
    random_tree_instance,
)
from rooslab.io import (
    DocumentError,
    category_from_doc,
    category_to_doc,
    evc_from_doc,
    family_from_doc,
    family_to_doc,
    parse_ring,
    parse_system,
    read_document,
    render_invariants,
    ses_from_doc,
    ses_to_doc,
    system_from_doc,
    system_to_doc,
    tree_from_doc,
    tree_to_doc,
    write_document,
    write_system,
)
from rooslab.category import FiniteCategory, thin_category
from rooslab.cli import main
from rooslab.linalg import GroupInvariants, IntMatrix, Ring
from rooslab.orders import QuasiOrder
from rooslab.systems import InverseSystem, SystemSES, require_exact, require_functorial

from invariant_text import parse_invariants


def _cospan():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    return InverseSystem(
        q,
        Ring.integers(),
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): IntMatrix([[2]]), ("x", "z"): IntMatrix([[2]])},
    )


def _constant_ses():
    q = QuasiOrder(["a", "b"], [("a", "b")])
    ring = Ring.integers()
    mk = lambda r, m: InverseSystem(q, ring, {"a": r, "b": r}, {("a", "b"): m})
    sub = mk(1, IntMatrix.identity(1))
    mid = mk(2, IntMatrix.identity(2))
    quot = mk(1, IntMatrix.identity(1))
    inject = {e: IntMatrix([[1], [0]]) for e in "ab"}
    project = {e: IntMatrix([[0, 1]]) for e in "ab"}
    return SystemSES(sub=sub, mid=mid, quot=quot, inject=inject, project=project)


def test_ring_tags():
    assert Ring.integers().render() == "Z"
    assert Ring.modular(6).render() == "Z/6"
    assert parse_ring("Z") == Ring.integers()
    assert parse_ring("Z/4") == Ring.modular(4)
    for bad in ("Q", "Z/1", "Z/x", 3, "z"):
        with pytest.raises(DocumentError):
            parse_ring(bad)


def test_system_doc_shape():
    doc = system_to_doc(_cospan())
    assert doc["ring"] == "Z"
    assert doc["indices"] == ["x", "y", "z"]
    assert doc["leq"] == [["x", "y"], ["x", "z"]]
    assert doc["objects"] == {"x": 1, "y": 1, "z": 1}
    assert set(doc["maps"]) == {"y->x", "z->x"}
    assert doc["maps"]["y->x"] == [[2]]
    # dumps without surprises
    json.dumps(doc)


def test_system_round_trip():
    s = _cospan()
    assert system_from_doc(system_to_doc(s)) == s


def test_system_round_trip_random():
    rng = random.Random(11)
    for _ in range(25):
        s = random_system(rng)
        assert system_from_doc(system_to_doc(s)) == s


def test_unknown_keys_tolerated():
    doc = system_to_doc(_cospan())
    doc["note"] = "anything goes here"
    assert system_from_doc(doc) == _cospan()


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("ring"), 'missing key "ring"'),
        (lambda d: d.update(ring="Q"), "unknown tag"),
        (lambda d: d.update(indices=["x", "x", "y", "z"]), "duplicate index"),
        (lambda d: d["leq"].append(["x"]), "not a pair"),
        (lambda d: d["leq"].append(["x", "w"]), "unknown label"),
        (lambda d: d["objects"].pop("y"), "no rank for 'y'"),
        (lambda d: d["objects"].update(y=-1), "natural number"),
        (lambda d: d["objects"].update(w=1), "unknown labels ['w']"),
        (lambda d: d["maps"].update({"nonsense": [[1]]}), "not of the form"),
        (lambda d: d["maps"].update({"w->x": [[1]]}), "unknown label"),
        (lambda d: d["maps"].update({"x->y": [[1]]}), "requires 'y' <= 'x'"),
        (lambda d: d["maps"].update({"y->x": [[1, 2]]}), "shape"),
        (lambda d: d["maps"].update({"y->x": [[None]]}), "not an integer"),
        (lambda d: d.update(objects="lots"), 'key "objects" has type'),
        # JSON true is a Python bool, and so an int, but no integer here.
        (lambda d: d["objects"].update(y=True), "rank of 'y' is not an integer: True"),
        (lambda d: d["maps"].update({"y->x": [[True]]}), "matrix entry is not an integer: True"),
    ],
)
def test_system_doc_errors(mutate, needle):
    doc = system_to_doc(_cospan())
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        system_from_doc(doc)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[0.5], 3], "matrix must be a list of rows"),
        ([[1, 2], [None]], "matrix entry is not an integer: None"),
        ([[1, None], [True, 2.5]], "matrix entry is not an integer: None"),
        ([[1, 2], [3], [False]], "matrix entry is not an integer: False"),
        ([[1, 2], [3]], "matrix rows have different lengths"),
        ({"0": [1]}, "matrix must be a list of rows"),
    ],
)
def test_matrix_faults_are_named_in_order(rows, reason):
    # A row that is no list before any entry, the first entry that is no
    # integer before the row lengths.
    doc = system_to_doc(_cospan())
    doc["maps"]["y->x"] = rows
    with pytest.raises(DocumentError) as err:
        system_from_doc(doc)
    assert str(err.value) == f"system: map 'y->x': {reason}"


def test_system_doc_functoriality_checked():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): IntMatrix([[2]]), ("b", "c"): IntMatrix([[3]])},
    )
    doc = system_to_doc(s)
    doc["maps"]["c->a"] = [[5]]
    with pytest.raises(DocumentError, match="not functorial"):
        system_from_doc(doc)


def test_file_round_trip_and_located_errors(tmp_path):
    path = str(tmp_path / "sys.json")
    write_system(_cospan(), path)
    assert parse_system(path) == _cospan()

    doc = read_document(path)
    del doc["ring"]
    write_document(doc, path)
    with pytest.raises(DocumentError) as err:
        parse_system(path)
    assert str(err.value).startswith(path)

    with pytest.raises(DocumentError, match="no such file"):
        parse_system(str(tmp_path / "absent.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentError) as err:
        parse_system(str(bad))
    assert ":1:" in str(err.value)


_PADDED = b'{"note": "' + b"x" * 14997  # 15,007 bytes, past any 8 KiB buffer


@pytest.mark.parametrize(
    "name, data, reason",
    [
        ("absent.json", None, "no such file"),
        ("folder", "dir", "cannot read: Is a directory"),
        ("empty.json", b"", "1:1: Expecting value"),
        ("late.json", _PADDED + b'\xff"}', "not UTF-8 text: invalid start byte at byte 15007"),
        ("cut.json", b'{"a": 1}\xe2\x82', "not UTF-8 text: unexpected end of data at byte 8"),
        ("bom.json", b'\xef\xbb\xbf{"a": 1}', "1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("crlf.json", b'{\r\n"a": 1,\r\n"b": ]\r\n}', "3:6: Expecting value"),
        ("cr.json", b'{\r"a": 1,\r"b": ]\r}', "3:6: Expecting value"),
        ("mixed.json", b'{\r\n"a": 1,\r\r\n  "b" 2}', "4:7: Expecting ':' delimiter"),
        ("raw-cr.json", b'{"a": "x\ry"}', "1:9: Invalid control character at"),
    ],
)
def test_read_document_error_lines(tmp_path, name, data, reason):
    """The exact text after the path: line:col counts lines after universal
    newline translation, and a decoding fault names its absolute byte."""
    path = tmp_path / name
    if data == "dir":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    sep = ":" if reason[0].isdigit() else ": "
    with pytest.raises(DocumentError) as err:
        read_document(str(path))
    assert str(err.value) == f"{path}{sep}{reason}"


def test_read_document_translates_newlines(tmp_path):
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n"a": "x\\r",\r"b": [1,\r\n2]\r\n}\r\n')
    assert read_document(str(path)) == {"a": "x\r", "b": [1, 2]}


def test_ses_round_trip():
    rng = random.Random(5)
    for split in (True, False, False):
        e = random_ses(rng, split=split)
        doc = json.loads(json.dumps(ses_to_doc(e)))
        back = ses_from_doc(doc)
        assert back.sub == e.sub and back.mid == e.mid and back.quot == e.quot
        assert back.inject == e.inject and back.project == e.project


def test_ses_doc_errors():
    base = ses_to_doc(_constant_ses())

    doc = json.loads(json.dumps(base))
    del doc["inclusion"]["a"]
    with pytest.raises(DocumentError, match="no matrix for 'a'"):
        ses_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["projection"]["b"] = [[0, 1], [0, 0]]
    with pytest.raises(DocumentError, match="shape"):
        ses_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["projection"] = {e: [[0, 0]] for e in "ab"}
    with pytest.raises(DocumentError, match="not a short exact sequence"):
        ses_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["sub"]["ring"] = "Z/4"
    with pytest.raises(DocumentError, match="disagree on the ring"):
        ses_from_doc(doc)

    doc = json.loads(json.dumps(base))
    _other_index(doc)
    with pytest.raises(DocumentError, match="index order"):
        ses_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["inclusion"]["w"] = [[1], [0]]
    with pytest.raises(DocumentError, match=r"unknown labels \['w'\]"):
        ses_from_doc(doc)


def _between(system, a, b):
    leq = system["leq"]
    return [c for c in system["indices"] if c not in (a, b) and [a, c] in leq and [c, b] in leq]


def _drop_pair(system, covering):
    """Drop from a system document its first leq pair with nothing (with
    ``covering``) or something (without) between its ends, and that pair's
    map: a valid system on a smaller closure, or on the same one, its bond
    derived through the element between. False when there is no such pair."""
    pair = next((p for p in system["leq"] if bool(_between(system, *p)) != covering), None)
    if pair is None:
        return False
    system["leq"].remove(pair)
    del system["maps"][f"{pair[1]}->{pair[0]}"]
    return True


def test_sequence_systems_share_an_index_declared_alike(tmp_path, capsys):
    # The middle and quotient of a sequence document that declare the sub's
    # "indices" and "leq" share its QuasiOrder. A quotient that declares the
    # same order otherwise builds its own, and les reports on it as on the
    # canonical document; one that declares another order is refused with
    # one error line.
    rng = random.Random(2323)
    docs = [ses_to_doc(_constant_ses())]
    while len(docs) < 6:
        doc = ses_to_doc(random_ses(rng, split=len(docs) % 2 == 0))
        if len(doc["sub"]["leq"]) >= 2:
            docs.append(json.loads(json.dumps(doc)))

    def les(doc, name):
        path = str(tmp_path / name)
        write_document(doc, path)
        status = main(["les", "--ses", path, "--max-degree", "2", "--json"])
        return status, capsys.readouterr()

    def masked(out):
        payload = json.loads(out)
        del payload["command"], payload["stats"]["seconds"]
        return payload

    alike = {
        "reversed": lambda leq: leq[::-1],
        "duplicate": lambda leq: leq + leq[:1],
        "reflexive": lambda leq: leq + [[leq[0][0], leq[0][0]]],
    }
    refused = transitive = 0
    for i, base in enumerate(docs):
        e = ses_from_doc(base)
        assert e.sub.index is e.mid.index is e.quot.index
        status, canonical = les(base, f"ses-{i}.json")
        assert status == 0
        variants = []
        for name, change in alike.items():
            doc = json.loads(json.dumps(base))
            doc["quotient"]["leq"] = change(doc["quotient"]["leq"])
            if doc["quotient"]["leq"] != base["quotient"]["leq"]:
                variants.append((name, doc))
        # The quotient keeps a transitive pair the sub and the middle leave out.
        doc = json.loads(json.dumps(base))
        if _drop_pair(doc["sub"], covering=False):
            assert _drop_pair(doc["middle"], covering=False)
            variants.append(("transitive", doc))
            transitive += 1
        for name, doc in variants:
            e = ses_from_doc(doc)
            assert e.sub.index is e.mid.index and e.quot.index is not e.sub.index
            assert e.quot.index == e.sub.index
            status, captured = les(doc, f"ses-{i}-{name}.json")
            assert status == 0
            assert masked(captured.out) == masked(canonical.out)
        for name in ("elements", "closure"):
            doc = json.loads(json.dumps(base))
            if name == "elements":
                doc["quotient"]["indices"].reverse()
            else:
                assert _drop_pair(doc["quotient"], covering=True)
            status, captured = les(doc, f"ses-{i}-{name}.json")
            lines = captured.err.splitlines()
            assert status == 2 and captured.out == "" and len(lines) == 1
            assert lines[0].startswith("error: ")
            assert lines[0].endswith(
                "not a short exact sequence: ['the three systems disagree on the index order']"
            )
            refused += 1
    assert refused == 2 * len(docs) and transitive >= 2


def _other_index(doc):
    """Give the quotient of a ``_constant_ses`` document another index."""
    doc["quotient"].update(
        indices=["a", "c"], objects={"a": 1, "c": 1}, leq=[["a", "c"]], maps={"c->a": [[1]]}
    )


def _library_system(doc):
    """The system of a document built by the library constructors alone,
    from the document's values as they are."""
    bonds = {}
    for key, rows in doc["maps"].items():
        mu, lam = key.split("->")
        bonds[(lam, mu)] = IntMatrix(rows) if rows else IntMatrix.zeros(0, doc["objects"][mu])
    order = QuasiOrder(doc["indices"], doc["leq"])
    require_functorial(InverseSystem(order, parse_ring(doc["ring"]), doc["objects"], bonds))


def _library_ses(doc):
    """The same for a sequence document whose three systems are valid."""
    sub, mid, quot = (system_from_doc(doc[k]) for k in ("sub", "middle", "quotient"))
    inject, project = (
        {e: IntMatrix(rows) for e, rows in doc[k].items()} for k in ("inclusion", "projection")
    )
    require_exact(SystemSES(sub, mid, quot, inject, project))


@pytest.mark.parametrize(
    "kind,mutate",
    [
        ("system", lambda d: d.update(indices=["x", "x", "y", "z"])),
        ("system", lambda d: d["leq"].append(["x", "w"])),
        ("system", lambda d: d["objects"].pop("y")),
        ("system", lambda d: d["objects"].update(y=-1)),
        ("system", lambda d: d["objects"].update(w=1)),
        ("system", lambda d: d["maps"].update({"w->x": [[1]]})),
        ("system", lambda d: d["maps"].update({"x->y": [[1]]})),
        ("system", lambda d: d["maps"].update({"y->x": [[1, 2]]})),
        ("ses", lambda d: d["sub"].update(ring="Z/4")),
        ("ses", _other_index),
        ("ses", lambda d: d["inclusion"].pop("a")),
        ("ses", lambda d: d["projection"].update(b=[[0, 1], [0, 0]])),
        ("ses", lambda d: d["inclusion"].update(w=[[1], [0]])),
    ],
    ids=[
        "duplicate-label", "leq-unknown-label", "no-rank", "negative-rank",
        "rank-unknown-label", "map-unknown-label", "map-unrelated", "map-shape",
        "ses-ring", "ses-index", "ses-no-matrix", "ses-shape", "ses-unknown-label",
    ],
)
def test_one_message_per_fact(kind, mutate):
    """Each fact a document can break is checked by one library constructor:
    the parser's message is that constructor's, after the location."""
    if kind == "system":
        doc, build, parse = system_to_doc(_cospan()), _library_system, system_from_doc
    else:
        doc, build, parse = ses_to_doc(_constant_ses()), _library_ses, ses_from_doc
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ValueError) as library:
        build(doc)
    with pytest.raises(DocumentError) as parsed:
        parse(doc)
    assert str(parsed.value) == f"{kind}: {library.value}"


def _with_string_names(cat):
    """Same category, morphisms renamed m0, m1, ... so it can serialize."""
    names = {m: f"m{i}" for i, m in enumerate(cat.morphism_names)}
    morphisms = {names[m]: (cat.src(m), cat.tgt(m)) for m in cat.morphism_names}
    identities = {o: names[cat.identity[o]] for o in cat.objects}
    compose = {}
    for g in cat.morphism_names:
        for f in cat.morphism_names:
            if cat.tgt(f) == cat.src(g):
                compose[(names[g], names[f])] = names[cat.compose(g, f)]
    return FiniteCategory(cat.objects, morphisms, identities, compose)


def test_category_round_trip():
    rng = random.Random(23)
    for _ in range(15):
        cat = _with_string_names(random_category(rng))
        doc = json.loads(json.dumps(category_to_doc(cat)))
        back = category_from_doc(doc)
        assert back.objects == cat.objects
        assert back.morphism_names == cat.morphism_names
        assert back.identity == cat.identity
        for m in cat.morphism_names:
            assert (back.src(m), back.tgt(m)) == (cat.src(m), cat.tgt(m))
            for g in cat.morphism_names:
                if cat.tgt(m) == cat.src(g):
                    assert back.compose(g, m) == cat.compose(g, m)


def test_category_tuple_names_rejected():
    # thin categories name morphisms by index pairs; those cannot be JSON keys
    cat = thin_category(QuasiOrder(["a", "b"], [("a", "b")]))
    with pytest.raises(DocumentError, match="not a string"):
        category_to_doc(cat)


def test_category_doc_errors():
    doc = {
        "objects": ["o"],
        "morphisms": {"id": ["o", "o"], "f": ["o", "o"]},
        "identities": {"o": "id"},
        "compose": [["id", "id", "id"], ["id", "f", "f"], ["f", "id", "f"]],
    }
    with pytest.raises(DocumentError, match="misses pairs"):
        category_from_doc(doc)
    doc["compose"].append(["f", "f", "f"])
    category_from_doc(doc)  # the completed table is a legal monoid
    doc["compose"] = [["id", "id", "id"], ["id", "f", "f"], ["f", "id", "id"], ["f", "f", "f"]]
    with pytest.raises(DocumentError, match="identity law"):
        category_from_doc(doc)


def test_category_doc_malformed():
    with pytest.raises(DocumentError, match='missing key "objects"'):
        category_from_doc({})
    doc = {
        "objects": ["o"],
        "morphisms": {"id": ["o"]},
        "identities": {"o": "id"},
        "compose": [],
    }
    with pytest.raises(DocumentError, match="not a pair"):
        category_from_doc(doc)
    doc = {
        "objects": ["o"],
        "morphisms": {"id": ["o", "o"]},
        "identities": {},
        "compose": [["id", "id", "id"]],
    }
    with pytest.raises(DocumentError, match="no identity"):
        category_from_doc(doc)


def test_family_round_trip():
    rng = random.Random(7)
    for _ in range(15):
        fam = random_family(rng)
        doc = json.loads(json.dumps(family_to_doc(fam)))
        assert family_from_doc(doc) == fam


def test_family_doc_errors():
    rng = random.Random(7)
    base = family_to_doc(random_family(rng))

    doc = json.loads(json.dumps(base))
    del doc["modulus"]
    with pytest.raises(DocumentError, match='missing key "modulus"'):
        family_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["members"][0]["exceptions"] = [[0, 0, 1]]
    with pytest.raises(DocumentError, match=r"members\[0\]"):
        family_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["members"][0]["exceptions"] = [[[999, 999], 1]]
    with pytest.raises(DocumentError, match="outside the carrier"):
        family_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["members"].append(doc["members"][0])
    with pytest.raises(DocumentError, match="duplicate carrier"):
        family_from_doc(doc)


def test_evc_doc_errors():
    assert evc_from_doc({"prefix": [2, 1, 0], "tail": 0}).prefix == (2, 1)
    with pytest.raises(DocumentError, match="integers"):
        evc_from_doc({"prefix": [1, "x"], "tail": 0})
    with pytest.raises(DocumentError, match='missing key "tail"'):
        evc_from_doc({"prefix": []})
    with pytest.raises(DocumentError):
        evc_from_doc({"prefix": [1], "tail": -2})


def test_tree_round_trip():
    rng = random.Random(3)
    for _ in range(4):
        t = random_tree_instance(rng, max_stages=3, rungs=6)
        doc = json.loads(json.dumps(tree_to_doc(t)))
        assert tree_from_doc(doc) == t


def test_tree_doc_errors():
    rng = random.Random(3)
    base = tree_to_doc(random_tree_instance(rng, max_stages=2, rungs=5))

    doc = json.loads(json.dumps(base))
    doc["stages"][0]["points"].append(doc["stages"][0]["points"][0])
    with pytest.raises(DocumentError, match="invalid instance"):
        tree_from_doc(doc)

    doc = json.loads(json.dumps(base))
    doc["stages"][0]["points"][0] = [1, 2, 3]
    with pytest.raises(DocumentError, match="pair"):
        tree_from_doc(doc)


def test_render_invariants():
    assert render_invariants(GroupInvariants.trivial()) == "0"
    assert render_invariants(GroupInvariants.free(1)) == "Z^1"
    assert render_invariants(GroupInvariants(0, (2,))) == "Z/2"
    assert render_invariants(GroupInvariants(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_parse_invariants():
    assert parse_invariants("0") == GroupInvariants.trivial()
    assert parse_invariants("Z") == GroupInvariants.free(1)
    assert parse_invariants("Z + Z/2") == GroupInvariants(1, (2,))
    rng = random.Random(19)
    for _ in range(40):
        torsion = []
        d = rng.choice([2, 3, 4, 5])
        for _ in range(rng.randint(0, 3)):
            torsion.append(d)
            d *= rng.choice([1, 2, 3])
        g = GroupInvariants(rng.randint(0, 3), tuple(torsion))
        assert parse_invariants(render_invariants(g)) == g
    for bad in ("Z^x", "cheese", "Z/3 + Z/2", "Z^1 +"):
        with pytest.raises(DocumentError):
            parse_invariants(bad)
