"""End-to-end runs of the command line through main(argv)."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import rooslab.cli
import rooslab.complexes
import rooslab.linalg
import rooslab.trees
from rooslab.cli import Report, main
from rooslab.coherence import EvcFun, FamilySpec, GridFun
from rooslab.gen import (
    random_category,
    random_family,
    random_ses,
    random_system,
    random_tree_instance,
)
from rooslab.io import (
    write_document,
    category_to_doc,
    family_to_doc,
    ses_to_doc,
    tree_to_doc,
    write_system,
)
from rooslab.linalg import IntMatrix, Ring, sparse
from rooslab.orders import QuasiOrder
from rooslab.systems import TRUNCATION_NOTE, InverseSystem, SystemSES


def _cospan_system():
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    return InverseSystem(
        q,
        Ring.integers(),
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): IntMatrix([[2]]), ("x", "z"): IntMatrix([[2]])},
    )


def _chain_system():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return InverseSystem(
        q,
        Ring.integers(),
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): IntMatrix([[1]]), ("b", "c"): IntMatrix([[1]])},
    )


def _coupled_ses(ring=Ring.integers()):
    q = QuasiOrder(["x", "y", "z"], [("x", "y"), ("x", "z")])
    two = IntMatrix([[2]])
    sub = InverseSystem(
        q, ring, {"x": 1, "y": 1, "z": 1}, {("x", "y"): two, ("x", "z"): two}
    )
    ident = IntMatrix.identity(1)
    quot = InverseSystem(
        q,
        ring,
        {"x": 1, "y": 1, "z": 1},
        {("x", "y"): ident, ("x", "z"): ident},
    )
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


def _two_member_family():
    f = EvcFun.of([2, 1])
    g = EvcFun.of([1, 2])
    phi_f = GridFun.make(f, 2, 0, {(0, 0): 1})
    phi_g = GridFun.make(g, 2, 0, {})
    return FamilySpec.of(2, [phi_f, phi_g])


def _monoid_category_doc():
    return {
        "objects": ["o0", "o1"],
        "morphisms": {"id0": ["o0", "o0"], "id1": ["o1", "o1"], "a": ["o0", "o1"]},
        "identities": {"o0": "id0", "o1": "id1"},
        "compose": [
            ["id0", "id0", "id0"],
            ["id1", "id1", "id1"],
            ["a", "id0", "a"],
            ["id1", "a", "a"],
        ],
    }


def _named_category_doc(cat):
    """A category document with its morphisms renamed to strings m0, m1, ..."""
    name = {m: f"m{i}" for i, m in enumerate(cat.morphism_names)}
    return {
        "objects": list(cat.objects),
        "morphisms": {name[m]: [cat.src(m), cat.tgt(m)] for m in cat.morphism_names},
        "identities": {o: name[m] for o, m in cat.identity.items()},
        "compose": [
            [name[g], name[f], name[cat.compose(g, f)]]
            for g in cat.morphism_names
            for f in cat.morphism_names
            if cat.tgt(f) == cat.src(g)
        ],
    }


def _generated_runs(tmp_path):
    """Argument lists for every subcommand with a report, on generated inputs."""
    rng = random.Random(11)
    runs = []
    for i in range(4):
        path = str(tmp_path / f"system-{i}.json")
        write_system(random_system(rng, max_elements=4), path)
        runs.append(["limit", "--system", path, "--degree", str(i % 3)])
        runs.append(["verify", "--system", path, "--max-degree", "2", "--spot-checks", "1"])
    for i in range(3):
        path = str(tmp_path / f"ses-{i}.json")
        write_document(ses_to_doc(random_ses(rng, split=i == 0)), path)
        runs.append(["les", "--ses", path, "--max-degree", "2"])
    for i in range(3):
        cat = random_category(rng)
        path = str(tmp_path / f"category-{i}.json")
        write_document(_named_category_doc(cat), path)
        runs.append(["nerve", "--category", path, "--object", cat.objects[-1], "--rank", "2",
                     "--max-degree", "2"])
    for i in range(4):
        path = str(tmp_path / f"family-{i}.json")
        write_document(family_to_doc(random_family(rng, max_members=3, tails=(0,))), path)
        runs.append(["cohere", "check", "--family", path])
        runs.append(["cohere", "check", "--family", path, "--budget", "0"])
        for budget in ("0", "40"):
            runs.append(["cohere", "trivialize", "--family", path, "--budget", budget,
                         "--horizon", "8"])
    for i in range(3):
        t = random_tree_instance(rng, max_stages=2, rungs=4)
        path = str(tmp_path / f"tree-{i}.json")
        write_document(tree_to_doc(t), path)
        runs.append(["tree", "build", "--instance", path, "--depth", str(min(t.length, 2))])
        runs.append(["tree", "separate", "--instance", path, "--depth", "1"])
    return runs


def test_commands_leave_every_kept_sparse_form_unchanged(tmp_path, monkeypatch, capsys):
    # linalg.sparse keeps one form on each matrix, and every caller shares it
    # and only reads it. After limit, verify, les and nerve on generated
    # inputs, each bond, inject and project matrix and functor action that
    # keeps a form keeps the one a fresh conversion of its rows gives.
    made = []

    def recording(make):
        def wrapped(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]
        return wrapped

    for name in ("parse_system", "parse_ses", "corepresented_system"):
        monkeypatch.setattr(rooslab.cli, name, recording(getattr(rooslab.cli, name)))
    commands = {"limit": 0, "verify": 0, "les": 0, "nerve": 0}
    for argv in _generated_runs(tmp_path):
        if argv[0] in commands:
            assert main(argv) == 0, argv
            commands[argv[0]] += 1
    capsys.readouterr()
    matrices = {"bond": [], "levelwise": [], "action": []}
    for obj in made:
        if isinstance(obj, InverseSystem):
            matrices["bond"] += obj.bonds().values()
        elif isinstance(obj, SystemSES):
            for s in (obj.sub, obj.mid, obj.quot):
                matrices["bond"] += s.bonds().values()
            matrices["levelwise"] += [*obj.inject.values(), *obj.project.values()]
        else:
            matrices["action"] += map(obj.action, obj.category.morphism_names)
    assert all(commands.values()) and len(made) == sum(commands.values())
    floors = {"bond": 40, "levelwise": 10, "action": 10}
    for kind, ms in matrices.items():
        kept = {id(m): m for m in ms if getattr(m, "_form", None) is not None}
        for m in kept.values():
            assert sparse(m) == [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        assert len(kept) >= floors[kind], (kind, len(kept))


def _hand_made_reports():
    odd = 'q"uo\\te é ☃ \x00\x1f\t\n\u2028 \U0001f600'
    # A byte that is not UTF-8 reaches argv as a lone surrogate.
    lone = b"rooslab limit --system \xff.json".decode("utf-8", "surrogateescape")
    return [
        Report(command=""),
        Report(
            command="rooslab " + odd,
            results={odd: odd, "plain": "Z^1"},
            verdicts=[(odd, True, odd), ("second", False, ""), ("", True, "x")],
            stats={odd: 0},
        ),
        Report(command=lone, verdicts=[(lone, False, lone)], results={lone: lone}),
        Report(
            command="rooslab numbers",
            results={
                "witness": {2: [1, {"b": [], "a": [[]]}], 1: {}, 10: {"k": None}},
                "empty": {},
                "list": [[0, 1], [2, -3]],
                "tuple": (1, (2, 3)),
                "none": None,
                "flag": False,
                "ratio": 0.5,
            },
            stats={
                "seconds": 0.123,
                "tiny": 1e-300,
                "huge": 2.0**200,
                "negative zero": -0.0,
                "infinite": float("inf"),
                "minus infinite": float("-inf"),
                "not a number": float("nan"),
                "zero": 0.0,
                "small": 1e-07,
                "large": 1e16,
                "decimal": 123.456,
                "negative float": -2.5,
                "big": 2**100,
                "negative": -7,
                "yes": True,
            },
        ),
    ]


def test_json_report_is_the_indented_dump(tmp_path, capsys, monkeypatch):
    """Every ``--json`` report is, byte for byte, the ``indent=2``, sorted-key
    dump of its payload."""
    payloads = []
    emit = rooslab.cli._emit

    def capture(report, args):
        payloads.append(report.payload())
        return emit(report, args)

    monkeypatch.setattr(rooslab.cli, "_emit", capture)
    witnesses = set()
    for argv in _generated_runs(tmp_path):
        payloads.clear()
        status = main(argv + ["--json"])
        out = capsys.readouterr().out
        assert status in (0, 1) and len(payloads) == 1, argv
        assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n", argv
        if argv[:2] == ["cohere", "trivialize"]:
            witnesses.add(payloads[0]["results"]["witness"] == "none")
    assert witnesses == {True, False}
    for report in _hand_made_reports():
        assert report.render_json() == json.dumps(report.payload(), indent=2, sort_keys=True)


def test_limit_command(tmp_path, capsys):
    path = str(tmp_path / "sys.json")
    write_system(_cospan_system(), path)
    assert main(["limit", "--system", path, "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "result lim^1: Z/2" in out
    assert "status: ok" in out

    assert main(["limit", "--system", path, "--degree", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["lim^0"] == "Z^1"
    assert payload["ok"] is True
    assert payload["command"].startswith("rooslab limit")


def _doubled_cospan_system():
    """The doubling cospan with its bottom doubled into an equivalent pair."""
    q = QuasiOrder(["x", "w", "y", "z"], [("x", "w"), ("w", "x"), ("x", "y"), ("x", "z")])
    ident = IntMatrix([[1]])
    two = IntMatrix([[2]])
    return InverseSystem(
        q,
        Ring.integers(),
        {e: 1 for e in q.elements},
        {("x", "w"): ident, ("w", "x"): ident, ("x", "y"): two, ("x", "z"): two},
    )


def test_limit_strict_variant(tmp_path, capsys):
    # The default (normalized) route against the --degenerate oracle; the
    # stats describe the complex each one built.
    cases = [
        (_cospan_system(), "tuples[1]", 2, 5),
        (_doubled_cospan_system(), "tuples[0]", 3, 4),
    ]
    for i, (system, key, normalized_count, degenerate_count) in enumerate(cases):
        path = str(tmp_path / f"sys{i}.json")
        write_system(system, path)
        payloads = []
        for extra in ([], ["--degenerate"]):
            assert main(["limit", "--system", path, "--degree", "1", "--json"] + extra) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        normalized, degenerate = payloads
        assert normalized["results"] == degenerate["results"]
        assert normalized["results"]["lim^1"] == "Z/2"
        assert normalized["stats"][key] == normalized_count
        assert degenerate["stats"][key] == degenerate_count

    with pytest.raises(SystemExit) as exc:
        main(["limit", "--system", path, "--degree", "1", "--strict"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_directed_system(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ROOSLAB_SEED", "7")
    path = str(tmp_path / "sys.json")
    write_system(_chain_system(), path)
    assert main(["verify", "--system", path, "--max-degree", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [v["name"] for v in payload["verdicts"]]
    assert "bonds are functorial" in names
    assert "differential squares to zero" in names
    assert "degree 0 matches the direct limit computation" in names
    assert "cofinal restrictions preserve every degree" in names
    assert all(v["ok"] for v in payload["verdicts"])
    assert payload["results"]["lim^0"] == "Z^1"
    assert payload["results"]["lim^1"] == "0"


def test_verify_factors_each_differential_at_most_once(tmp_path, capsys, monkeypatch):
    # Every complex verify builds is recorded, and so is every matrix passed
    # to invariant_factors, by identity (the matrices are kept alive, so no
    # id is reused): no differential may be reduced twice, and over Z each
    # one the groups need is reduced through the complex's own kept factors.
    built, factored = [], []

    def keeping_result(fn):
        def wrapper(*args, **kwargs):
            built.append(fn(*args, **kwargs))
            return built[-1]
        return wrapper

    def keeping_argument(fn):
        def wrapper(m):
            factored.append(m)
            return fn(m)
        return wrapper

    for module, name, keeping in (
        (rooslab.cli, "limit_complex", keeping_result),
        (rooslab.cli, "build_complex", keeping_result),
        (rooslab.complexes, "invariant_factors", keeping_argument),
        (rooslab.linalg, "invariant_factors", keeping_argument),
    ):
        monkeypatch.setattr(module, name, keeping(getattr(module, name)))
    monkeypatch.setenv("ROOSLAB_SEED", "3")
    rng = random.Random(1212)
    systems = [_cospan_system(), _chain_system()]
    systems += [random_system(rng, ring=Ring.integers(), max_elements=4, ensure_max=True)
                for _ in range(3)]
    for i, system in enumerate(systems):
        path = str(tmp_path / f"sys{i}.json")
        write_system(system, path)
        built.clear()
        factored.clear()
        assert main(["verify", "--system", path, "--max-degree", "3", "--json"]) == 0
        capsys.readouterr()
        assert len(built) == 1 + 3 * system.index.is_directed()
        times = {}
        for m in factored:
            times[id(m)] = times.get(id(m), 0) + 1
        for cx in built:
            assert all(times.get(id(d), 0) == 1 for d in cx.diffs), i


def test_verify_skips_restriction_without_direction(tmp_path, capsys):
    path = str(tmp_path / "sys.json")
    write_system(_cospan_system(), path)
    assert main(["verify", "--system", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    spot = [v for v in payload["verdicts"] if v["name"].startswith("cofinal")]
    assert spot and spot[0]["ok"] and "skipped" in spot[0]["detail"]


def test_verify_bad_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ROOSLAB_SEED", "xyz")
    path = str(tmp_path / "sys.json")
    write_system(_chain_system(), path)
    assert main(["verify", "--system", path]) == 2
    assert "ROOSLAB_SEED" in capsys.readouterr().err


def test_les_command(tmp_path, capsys):
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), path)
    assert main(["les", "--ses", path, "--max-degree", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["lim^1(sub)"] == "Z/2"
    assert payload["results"]["lim^0(quot)"] == "Z^1"
    assert payload["results"]["fields"] == ["Q", "GF(2)", "GF(3)", "GF(5)"]
    assert payload["ok"] is True

    assert main(["les", "--ses", path, "--max-degree", "0", "--fields", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["fields"] == ["GF(2)"]
    assert all(v["name"].startswith("GF(2)") for v in payload["verdicts"])


def test_closed_pipe_prints_no_traceback(tmp_path):
    # A reader that stops early, as `rooslab les ... | head -1` does: here it
    # closes its end before rooslab writes, so every write meets a closed
    # pipe. The report's status stands and stderr stays empty.
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), path)
    out = tmp_path / "a.json"
    src = os.path.dirname(os.path.dirname(rooslab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (
        ["les", "--ses", path, "--max-degree", "3"],
        ["les", "--ses", path, "--max-degree", "3", "--json"],
        ["make-a", "--functions", "2,1;1,2", "--out", str(out)],
    ):
        read_end, write_end = os.pipe()
        with subprocess.Popen(
            [sys.executable, "-m", "rooslab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            os.close(write_end)
            os.close(read_end)
            _, err = proc.communicate(timeout=60)
        assert err.decode() == "", argv
        assert proc.returncode == 0, argv
    # make-a still writes its document after the failed print.
    assert json.loads(out.read_text())["note"] == TRUNCATION_NOTE


def test_les_fields_drop_repeats(tmp_path, capsys):
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), path)
    assert main(["les", "--ses", path, "--max-degree", "1", "--fields", "2,0,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["fields"] == ["GF(2)", "Q"]
    assert payload["stats"]["positions"] == 12
    names = [v["name"] for v in payload["verdicts"]]
    assert len(names) == len(set(names)) == 12


def test_les_large_prime_fields(tmp_path, capsys):
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), path)
    mersenne = 2**61 - 1  # prime; trial division up to its root never ends
    argv = ["les", "--ses", path, "--max-degree", "1", "--fields", str(mersenne), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["fields"] == [f"GF({mersenne})"]
    assert payload["ok"] is True

    # 2^89 - 1 is prime too, but past the range where the test is proven.
    for p, message in ((2**89 - 1, "cannot decide"), (2**61 + 1, "is not prime")):
        argv = ["les", "--ses", path, "--max-degree", "1", "--fields", str(p)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("fields", [",", ""])
def test_les_empty_field_list_is_a_usage_error(tmp_path, capsys, fields):
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), path)
    assert main(["les", "--ses", path, "--max-degree", "1", "--fields", fields]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--fields names no field" in captured.err


@pytest.mark.parametrize("fields", ["3", "0,3"])
def test_les_fields_the_ring_rules_out_are_a_usage_error(tmp_path, capsys, fields):
    # Over Z/4 only GF(2) applies: a list naming no other field would check
    # nothing, so it fails with one line naming each field and its reason.
    path = str(tmp_path / "ses.json")
    write_document(ses_to_doc(random_ses(random.Random(44), ring=Ring.modular(4))), path)
    assert main(["les", "--ses", path, "--max-degree", "1", "--fields", fields, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --fields")
    assert "GF(3): 3 does not divide the modulus 4" in captured.err
    assert ("Q: no rational coefficients over a modular ring" in captured.err) == ("0" in fields)

    assert main(["les", "--ses", path, "--max-degree", "1", "--fields", "2,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["fields"] == ["GF(2)"]
    assert payload["results"]["skipped GF(3)"] == "3 does not divide the modulus 4"
    assert payload["ok"] is True


def test_les_default_fields_of_a_large_modulus(tmp_path, capsys):
    path = str(tmp_path / "ses.json")
    mersenne = 2**61 - 1
    write_document(ses_to_doc(_coupled_ses(Ring.modular(mersenne))), path)
    start = time.perf_counter()
    assert main(["les", "--ses", path, "--max-degree", "1", "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["fields"] == [f"GF({mersenne})"]
    assert payload["ok"] is True

    # Two primes near 2^40: no factor below the trial bound, and the
    # product is composite, so the default fields cannot be named.
    product = 1099511627791 * 1099511627803
    write_document(ses_to_doc(_coupled_ses(Ring.modular(product))), path)
    assert main(["les", "--ses", path, "--max-degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--fields" in captured.err


def test_nerve_command(tmp_path, capsys):
    path = str(tmp_path / "cat.json")
    write_document(_monoid_category_doc(), path)
    argv = ["nerve", "--category", path, "--object", "o0", "--rank", "2",
            "--max-degree", "2", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["H^0"] == "Z^2"
    assert payload["results"]["H^1"] == "0"
    assert payload["results"]["H^2"] == "0"
    assert payload["ok"] is True

    assert main(["nerve", "--category", path, "--object", "nope"]) == 2
    assert "not in the category" in capsys.readouterr().err


def test_cohere_check(tmp_path, capsys):
    path = str(tmp_path / "family.json")
    write_document(family_to_doc(_two_member_family()), path)

    assert main(["cohere", "check", "--family", path]) == 0
    out = capsys.readouterr().out
    assert "members 0 and 1 cohere" in out

    assert main(["cohere", "check", "--family", path, "--budget", "0", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["verdicts"][0]["detail"] == "disagreements: [(0, 0)]"

    assert main(["cohere", "check", "--family", path, "--budget", "1"]) == 0
    capsys.readouterr()


def test_cohere_trivialize(tmp_path, capsys):
    path = str(tmp_path / "family.json")
    write_document(family_to_doc(_two_member_family()), path)

    args = ["cohere", "trivialize", "--family", path, "--horizon", "6", "--json"]
    assert main(args + ["--budget", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["witness"] == "none"
    assert payload["results"]["exhaustive over"] == 2 ** 4

    assert main(args + ["--budget", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["witness"] == {"default": 0, "exceptions": []}


def test_deep_trivialize_succeeds_without_recursion(tmp_path, capsys):
    # Two members on 30 columns of height about 40 (1,200 cells) with a
    # budget above the cell count: the search descends one level per cell,
    # past any recursion limit, and its first descent succeeds.
    tall = GridFun.make(EvcFun.of([40] * 30), 2, 0, {(0, 0): 1})
    short = GridFun.make(EvcFun.of([39] * 30), 2, 0, {})
    path = str(tmp_path / "deep.json")
    write_document(family_to_doc(FamilySpec.of(2, [tall, short])), path)
    argv = ["cohere", "trivialize", "--family", path, "--budget", "2000", "--horizon", "40"]
    assert main(argv + ["--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["results"]["witness"] == {"default": 0, "exceptions": []}
    assert payload["stats"]["assignments tried"] == 1200


@pytest.mark.parametrize(
    "exc, says",
    [
        (MemoryError(), "out of memory"),
        (KeyError("x"), "missing key 'x'"),
        (RecursionError(), "recursion limit"),
    ],
)
def test_resource_errors_exit_two_with_one_line(tmp_path, capsys, monkeypatch, exc, says):
    def boom(path):
        raise exc

    monkeypatch.setattr("rooslab.cli.parse_system", boom)
    assert main(["limit", "--system", str(tmp_path / "s.json"), "--degree", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


def test_parser_is_reused_across_calls(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    write_system(_cospan_system(), path)
    argv = ["limit", "--system", path, "--degree", "1", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exit_info:
        main(["limit", "--system", path])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    first["stats"].pop("seconds")
    second["stats"].pop("seconds")
    assert first == second


def test_tree_commands(tmp_path, capsys):
    rng = random.Random(2)
    t = random_tree_instance(rng, max_stages=2, rungs=4)
    while t.length < 2:
        t = random_tree_instance(rng, max_stages=2, rungs=4)
    path = str(tmp_path / "tree.json")
    write_document(tree_to_doc(t), path)

    assert main(["tree", "build", "--instance", path, "--depth", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    branches = [k for k in payload["results"] if k.startswith("branch ")]
    assert len(branches) == 4
    assert payload["stats"]["branches"] == 4

    assert main(["tree", "separate", "--instance", path, "--depth", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["results"]["split stage"] == 0
    assert len(payload["results"]["certified points"]) >= 4 - 0 - 0

    argv = ["tree", "separate", "--instance", path, "--depth", "2",
            "--left", "00", "--right", "10", "--probe", "0,0", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True

    assert main(["tree", "separate", "--instance", path, "--depth", "1",
                 "--left", "0", "--right", "0"]) == 2
    assert "equal" in capsys.readouterr().err


def test_tree_separate_depth_zero_names_the_flag(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    write_document(tree_to_doc(random_tree_instance(random.Random(2), rungs=4)), path)
    for given in ([], ["--left", "1"], ["--right", "1"]):
        assert main(["tree", "separate", "--instance", path, "--depth", "0"] + given) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: --depth 0 "), given
    # With both branches named, --depth is not read.
    argv = ["tree", "separate", "--instance", path, "--depth", "0", "--left", "0"]
    assert main(argv + ["--right", "1"]) == 0


def test_tree_verdict_is_computed_once_per_command(tmp_path, capsys, monkeypatch):
    made = []

    class CountingReport(rooslab.trees.TreeReport):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rooslab.trees, "TreeReport", CountingReport)
    path = str(tmp_path / "tree.json")
    write_document(tree_to_doc(random_tree_instance(random.Random(2), rungs=4)), path)
    for argv in (["tree", "build", "--depth", "1"], ["tree", "separate", "--depth", "1"]):
        made.clear()
        assert main(argv + ["--instance", path]) == 0
        assert len(made) == 1, argv
    capsys.readouterr()


def _malformed(doc, where, value):
    """A copy of the document with the JSON value at the key path replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return doc


@pytest.mark.parametrize(
    "kind,where,value,says",
    [
        ("family", ("members", 0, "exceptions"), [[["x", 0], 1]], "exceptions[0] cell"),
        ("family", ("members", 0, "exceptions"), [[[0, 0], "1"]], "exceptions[0] value"),
        ("family", ("modulus",), 0, 'key "modulus" must be at least 2'),
        ("tree", ("stages", 0, "points", 0), ["a", "b"], "points[0] coordinate"),
        ("tree", ("stages", 0, "points", 0), [0.5, 1], "points[0] coordinate"),
        ("system", ("objects",), {"a": True}, "rank of 'a' is not an integer"),
        ("system", ("ring",), "Z/4_0", "bad modulus in tag 'Z/4_0'"),
        ("system", ("indices",), [["a"]], "indices entry ['a'] is not a string"),
        ("system", ("leq",), [[["a"], "a"]], "leq entry [['a'], 'a'] has a label"),
        ("category", ("objects",), [[1]], "objects entry [1] is not a string"),
        ("category", ("identities", "o0"), [1], "identity of 'o0' is [1]"),
        ("category", ("compose", 0), [[1], "a", "b"], "compose entry [[1], 'a', 'b']"),
        ("category", ("morphisms", "a"), [["o0"], "o1"], "morphism 'a' endpoints"),
    ],
    ids=[
        "cell", "value", "modulus", "point-strings", "point-float", "bool-rank", "ring-tag",
        "list-index", "list-leq", "list-object", "list-identity", "list-compose",
        "list-endpoint",
    ],
)
def test_malformed_documents_exit_two_with_one_line(tmp_path, capsys, kind, where, value, says):
    path = str(tmp_path / f"{kind}.json")
    if kind == "family":
        doc = family_to_doc(_two_member_family())
        argv = ["cohere", "check", "--family", path]
    elif kind == "tree":
        doc = tree_to_doc(random_tree_instance(random.Random(2), rungs=4))
        argv = ["tree", "separate", "--instance", path, "--depth", "1"]
    elif kind == "category":
        doc = _monoid_category_doc()
        argv = ["nerve", "--category", path, "--object", "o0"]
    else:
        doc = {"ring": "Z", "indices": ["a"], "leq": [], "objects": {"a": 1},
               "maps": {"a->a": [[True]]}}
        argv = ["limit", "--system", path, "--degree", "0"]
    write_document(_malformed(doc, where, value), path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, path)
    assert says in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "before,rung,says",
    [
        ({"prefix": [1], "tail": 0}, {"prefix": [True], "tail": 0},
         "prefix values must be integers"),
        ({"prefix": [0, 1], "tail": 0}, {"prefix": [False, 1], "tail": 0},
         "prefix values must be integers"),
        ({"prefix": [2], "tail": 1}, {"prefix": [2], "tail": True},
         'key "tail" is not an integer: True'),
        ({"prefix": [1], "tail": 0}, {"prefix": [-1], "tail": 0}, "values must be naturals"),
        ({"prefix": [], "tail": 1}, {"prefix": [], "tail": -1}, "values must be naturals"),
    ],
    ids=["true-prefix", "false-prefix", "true-tail", "negative-prefix", "negative-tail"],
)
def test_repeated_rung_is_checked_where_it_stands(tmp_path, capsys, before, rung, says):
    """A rung that equals the one before it in Python (``True == 1``) but not
    in JSON is still rejected, and the error names that rung."""
    path = str(tmp_path / "tree.json")
    doc = tree_to_doc(random_tree_instance(random.Random(2), rungs=4))
    doc["stages"][0]["ladder"][1:3] = [before, rung]
    write_document(doc, path)
    assert main(["tree", "separate", "--instance", path, "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: tree.stages[0].ladder[2]: {says}\n"


def test_make_a_command(tmp_path, capsys):
    out_path = str(tmp_path / "a.json")
    argv = ["make-a", "--functions", "2,1;1,2;2,2", "--ring", "Z", "--out", out_path]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["note"] == TRUNCATION_NOTE
    assert doc["objects"] == {"2,1": 3, "1,2": 3, "2,2": 4}
    assert set(doc["maps"]) == {"2,2->2,1", "2,2->1,2"}

    from rooslab.io import parse_system

    system = parse_system(out_path)
    assert system.rank("2,2") == 4
    assert system.index.leq("2,1", "2,2")
    assert not system.index.leq("2,1", "1,2")

    assert main(["make-a", "--functions", "2,x"]) == 2
    assert "--functions" in capsys.readouterr().err

    assert main(["make-a", "--functions", "2,1;3"]) == 2
    capsys.readouterr()


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["limit", "--system", str(tmp_path / "nope.json"), "--degree", "0"]) == 2
    assert "no such file" in capsys.readouterr().err


def _one_error_line(err: str, path: str) -> bool:
    return err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_unreadable_paths_exit_two_with_one_line(tmp_path, capsys):
    assert main(["limit", "--system", str(tmp_path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, str(tmp_path))

    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ring": "\xe9"}')
    assert main(["limit", "--system", str(path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err, str(path)) and "UTF-8" in captured.err


def test_unwritable_out_path_exits_two_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "x.json")
    assert main(["make-a", "--functions", "1,1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err, out) and "cannot write" in err


def test_verify_reports_bond_surjectivity(tmp_path, capsys):
    path = str(tmp_path / "cospan.json")
    write_system(_cospan_system(), path)
    assert main(["verify", "--system", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["all bonds surjective"] is False

    path = str(tmp_path / "a.json")
    assert main(["make-a", "--functions", "2,1;1,2;2,2", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--system", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["all bonds surjective"] is True


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--degree", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_negative_degrees_are_usage_errors(tmp_path, capsys):
    system = str(tmp_path / "s.json")
    write_system(_cospan_system(), system)
    ses = str(tmp_path / "ses.json")
    write_document(ses_to_doc(_coupled_ses()), ses)
    category = str(tmp_path / "cat.json")
    write_document(_monoid_category_doc(), category)
    family = str(tmp_path / "family.json")
    write_document(family_to_doc(_two_member_family()), family)
    tree = str(tmp_path / "tree.json")
    write_document(tree_to_doc(random_tree_instance(random.Random(2), rungs=4)), tree)
    cases = [
        (["limit", "--system", system, "--degree", "-1"], "--degree"),
        (["limit", "--system", system, "--degree", "-3"], "--degree"),
        (["verify", "--system", system, "--max-degree", "-1"], "--max-degree"),
        (["les", "--ses", ses, "--max-degree", "-1"], "--max-degree"),
        (["nerve", "--category", category, "--object", "o0", "--max-degree", "-1"],
         "--max-degree"),
        # Counts, not degrees, but refused the same way.
        (["verify", "--system", system, "--spot-checks", "-3"], "--spot-checks"),
        (["nerve", "--category", category, "--object", "o0", "--rank", "-1"], "--rank"),
        (["cohere", "trivialize", "--family", family, "--horizon", "-1"], "--horizon"),
        (["cohere", "trivialize", "--family", family, "--horizon", "6", "--budget", "-1"],
         "--budget"),
        (["tree", "build", "--instance", tree, "--depth", "-1"], "--depth"),
        (["tree", "separate", "--instance", tree, "--depth", "-1"], "--depth"),
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and f"argument {flag}:" in captured.err, argv
        assert "at least 0" in captured.err and "Traceback" not in captured.err
