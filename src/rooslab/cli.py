"""Command-line front end: parse documents, run computations, render reports.

Every subcommand builds a :class:`Report` — command echo, results, verdicts,
stats — and prints it as text or, with ``--json``, as a machine-readable
object with stable field names: the bytes of ``json.dumps(report.payload(),
indent=2, sort_keys=True)``, which :meth:`Report.render_json` writes in one
pass.  The exit status is 0 exactly when every verdict passes, 1 when one
fails, and 2 for parse or usage errors.  The ``ROOSLAB_SEED`` environment
variable fixes the seed of the randomized spot-checks so runs are
reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .category import corepresented_system, nerve_complex
from .coherence import coherence_check, trivialize_report
from .complexes import build_complex, limit_complex, limit_direct
from .gen import random_cofinal_subset
from .io import (
    DocumentError,
    family_to_doc,
    parse_category,
    parse_family,
    parse_ring,
    parse_ses,
    parse_system,
    parse_tree,
    render_invariants,
    system_to_doc,
    write_document,
)
from .les import les_of_ses
from .linalg import GroupInvariants
from .systems import (
    TRUNCATION_NOTE,
    TruncationSpec,
    collapse_equivalences,
    surjective_bonds,
    truncated_A,
    validate_system,
)
from .trees import basecase_tree, branch_separation


@dataclass
class Report:
    """One run's report: ``results`` and ``stats`` map strings to JSON
    values, and each verdict is a (name, ok, detail) tuple of a string, a
    bool and a string, as :meth:`verdict` records it. ``payload`` is its JSON
    schema; ``render_text`` and ``render_json`` print it."""

    command: str
    results: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def verdict(self, name: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def payload(self) -> dict:
        return {
            "command": self.command,
            "results": self.results,
            "verdicts": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.verdicts
            ],
            "stats": self.stats,
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.results.items():
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"result {key}: {value}")
        for name, ok, detail in self.verdicts:
            mark = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"verdict [{mark}] {name}{suffix}")
        for key, value in self.stats.items():
            lines.append(f"stat {key}: {value}")
        passed = sum(1 for _, ok, _ in self.verdicts if ok)
        lines.append(
            f"status: {'ok' if self.ok else 'FAILED'}"
            f" ({passed}/{len(self.verdicts)} verdicts pass)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """``json.dumps(self.payload(), indent=2, sort_keys=True)``, byte for
        byte, written in one pass from templates of the payload's fixed
        shape. Strings are escaped by the function ``json.dumps`` itself
        uses; values other than strings, bools and ints are dumped alone and
        re-indented to their depth, which is exact because an encoded JSON
        string holds no raw newline. ``payload`` stays the schema, and the
        tests hold this rendering to its dump."""
        if self.verdicts:
            verdicts = (
                "[\n    "
                + ",\n    ".join(
                    _VERDICT % (_quote(detail), _quote(name), "true" if ok else "false")
                    for name, ok, detail in self.verdicts
                )
                + "\n  ]"
            )
        else:
            verdicts = "[]"
        return _REPORT % (
            _quote(self.command),
            "true" if self.ok else "false",
            _object(self.results),
            _object(self.stats),
            verdicts,
        )


_REPORT = (
    '{\n  "command": %s,\n  "ok": %s,\n  "results": %s,\n  "stats": %s,\n'
    '  "verdicts": %s\n}'
)
_VERDICT = '{\n      "detail": %s,\n      "name": %s,\n      "ok": %s\n    }'


def _value(value) -> str:
    """One value of a report's ``results`` or ``stats``, as ``json.dumps``
    writes it two levels deep."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n    ")


def _object(table: dict) -> str:
    """A report's ``results`` or ``stats`` (string keys) at depth one."""
    if not table:
        return "{}"
    return (
        "{\n    "
        + ",\n    ".join(f"{_quote(k)}: {_value(v)}" for k, v in sorted(table.items()))
        + "\n  }"
    )


def _print(text: str) -> None:
    """Print and flush; a reader that closed early (``rooslab ... | head -1``)
    is no error, and what it read stands."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush of
        # what is left in the buffer stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: Report, args) -> int:
    if args.json:
        _print(report.render_json())
    else:
        _print(report.render_text())
    return 0 if report.ok else 1


def _seed() -> int:
    raw = os.environ.get("ROOSLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise DocumentError(f"ROOSLAB_SEED must be an integer, got {raw!r}")


def _block_stats(report: Report, cx) -> None:
    """Tuple count and dimension per degree of the complex actually built."""
    for n in range(cx.n_max + 1):
        report.stats[f"tuples[{n}]"] = len(cx.blocks[n])
        report.stats[f"dimension[{n}]"] = cx.total_ranks[n]


def _cmd_limit(args) -> int:
    start = time.perf_counter()
    system = parse_system(args.system)
    cx = limit_complex(system, args.degree + 1, degenerate=args.degenerate)
    group = cx.cohomology(args.degree)
    report = Report(command=args.echo)
    report.results[f"lim^{args.degree}"] = render_invariants(group)
    report.results["ring"] = system.ring.render()
    _block_stats(report, cx)
    report.stats["seconds"] = round(time.perf_counter() - start, 3)
    return _emit(report, args)


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    system = parse_system(args.system)
    report = Report(command=args.echo)
    vrep = validate_system(system)
    report.verdict(
        "bonds are functorial",
        vrep.ok,
        "all composite paths agree"
        if vrep.ok
        else f"bad triples: {list(vrep.violations[:3])}",
    )
    report.results["all bonds surjective"] = all(surjective_bonds(system).values())
    degrees = range(args.max_degree + 1)
    cx = limit_complex(system, args.max_degree + 1)
    report.verdict(
        "differential squares to zero",
        True,
        f"checked degrees 0..{args.max_degree} at construction",
    )
    h0 = cx.cohomology(0)
    direct = limit_direct(system)
    report.verdict(
        "degree 0 matches the direct limit computation",
        h0 == direct,
        f"complex: {render_invariants(h0)}, equalizer: {render_invariants(direct)}",
    )
    groups = {n: cx.cohomology(n) for n in degrees}
    for n in degrees:
        report.results[f"lim^{n}"] = render_invariants(groups[n])
    if system.index.is_directed():
        rng = random.Random(_seed())
        failures = []
        for _ in range(args.spot_checks):
            subset = random_cofinal_subset(rng, system.index)
            # The collapsed restriction, not its core: on a directed index
            # both cores are one point, and the check would compare nothing.
            restricted = collapse_equivalences(system.restrict(subset))
            sub_cx = build_complex(restricted, args.max_degree + 1, strict=True)
            for n in degrees:
                if sub_cx.cohomology(n) != groups[n]:
                    failures.append((sorted(subset), n))
        report.verdict(
            "cofinal restrictions preserve every degree",
            not failures,
            f"{args.spot_checks} random cofinal subsets, degrees 0..{args.max_degree}"
            if not failures
            else f"disagrees at {failures[:3]}",
        )
    else:
        report.verdict(
            "cofinal restrictions preserve every degree",
            True,
            "index not directed; restriction invariance is not promised, skipped",
        )
    _block_stats(report, cx)
    report.stats["seconds"] = round(time.perf_counter() - start, 3)
    return _emit(report, args)


def _cmd_les(args) -> int:
    start = time.perf_counter()
    ses = parse_ses(args.ses)
    fields = None
    if args.fields is not None:
        try:
            fields = tuple(int(p) for p in args.fields.split(",") if p != "")
        except ValueError:
            raise DocumentError(f"--fields wants comma-separated integers, got {args.fields!r}")
        if not fields:
            raise DocumentError(f"--fields names no field, got {args.fields!r}")
    lrep = les_of_ses(ses, args.max_degree, fields=fields)
    if not lrep.fields:
        # Only an explicit list can lose every field: the default fields are
        # the ones the ring allows.
        reasons = "; ".join(f"{name}: {reason}" for name, reason in lrep.skipped.items())
        raise DocumentError(
            f"--fields names no field the ring {lrep.ring.render()} allows, "
            f"got {args.fields!r} ({reasons})"
        )
    report = Report(command=args.echo)
    for (part, n), group in sorted(lrep.groups.items()):
        report.results[f"lim^{n}({part})"] = render_invariants(group)
    report.results["fields"] = list(lrep.fields)
    for name, reason in lrep.skipped.items():
        report.results[f"skipped {name}"] = reason
    report.verdicts += [
        (f"{p.field}: exact at {p.at} in degree {p.degree}", p.ok, p.detail)
        for p in lrep.positions
    ]
    report.stats["positions"] = len(lrep.positions)
    report.stats["seconds"] = round(time.perf_counter() - start, 3)
    return _emit(report, args)


def _cmd_nerve(args) -> int:
    start = time.perf_counter()
    cat = parse_category(args.category)
    if args.object not in cat.objects:
        raise DocumentError(
            f"object {args.object!r} is not in the category (has {list(cat.objects)})"
        )
    fun = corepresented_system(cat, args.object, copies=args.rank)
    cx = nerve_complex(cat, fun, args.max_degree + 1)
    report = Report(command=args.echo)
    expected = GroupInvariants.free(args.rank)
    for n in range(args.max_degree + 1):
        group = cx.cohomology(n)
        report.results[f"H^{n}"] = render_invariants(group)
        if n == 0:
            report.verdict(
                "degree 0 is free on the copies",
                group == expected,
                f"expected {render_invariants(expected)}",
            )
        else:
            report.verdict(f"degree {n} vanishes", group.is_trivial, "")
    for k in range(cx.n_max + 1):
        report.stats[f"chains[{k}]"] = len(cx.blocks[k])
        report.stats[f"dimension[{k}]"] = cx.total_ranks[k]
    report.stats["seconds"] = round(time.perf_counter() - start, 3)
    return _emit(report, args)


def _budget(text: str):
    if text == "finite":
        return "finite"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'budget is a natural number or "finite", got {text!r}')
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be at least 0")
    return value


def _natural(what: str):
    """The argparse type of a nonnegative ``what``, so a negative value is a
    usage error naming its flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} is a natural number, got {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be at least 0, got {value}")
        return value

    return parse


_degree = _natural("degree")


def _cmd_cohere_check(args) -> int:
    family = parse_family(args.family)
    crep = coherence_check(family, args.budget)
    report = Report(command=args.echo)
    for p in crep.pairs:
        name = f"members {p.first} and {p.second} cohere"
        if p.infinite:
            start_col, height = p.witness
            detail = (
                "infinite disagreement: every cell from column "
                f"{start_col} below height {height} differs"
            )
        else:
            detail = f"disagreements: {list(p.points)}"
        report.verdict(name, p.ok, detail)
    report.stats["members"] = len(family)
    report.stats["budget"] = args.budget
    return _emit(report, args)


def _cmd_cohere_trivialize(args) -> int:
    start = time.perf_counter()
    family = parse_family(args.family)
    trep = trivialize_report(family, args.budget, args.horizon)
    report = Report(command=args.echo)
    if trep.found is None:
        report.results["witness"] = "none"
    else:
        report.results["witness"] = {
            "default": trep.found.default,
            "exceptions": [[list(p), v] for p, v in trep.found.exceptions],
        }
    report.results["exhaustive over"] = trep.space
    report.verdict(
        "a colouring within budget exists",
        trep.found is not None,
        f"searched all {trep.space} assignments"
        if trep.found is None
        else "lexicographically least witness reported",
    )
    report.stats["cells"] = len(trep.cells)
    report.stats["assignments tried"] = trep.explored
    report.stats["seconds"] = round(time.perf_counter() - start, 3)
    return _emit(report, args)


def _bits(text: str):
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError(f"branch codes are strings of 0/1, got {text!r}")
    return tuple(int(c) for c in text)


def _points_arg(text: str):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"points look like i,j;i,j — got {chunk!r}")
        points.append((int(parts[0]), int(parts[1])))
    return points


def _cmd_tree_build(args) -> int:
    instance = parse_tree(args.instance)
    report = Report(command=args.echo)
    branches = basecase_tree(instance, args.depth)
    for branch in branches:
        code = "".join(str(b) for b in branch.code) or "(root)"
        report.results[f"branch {code}"] = {
            "default": branch.state.default,
            "exceptions": [[list(p), v] for p, v in branch.state.exceptions],
        }
    report.verdict("instance invariants hold", True, "validated before branching")
    report.stats["branches"] = len(branches)
    report.stats["stage size"] = instance.stage_size
    return _emit(report, args)


def _cmd_tree_separate(args) -> int:
    if args.depth == 0 and (args.left is None or args.right is None):
        raise DocumentError("--depth 0 leaves no stage to split the default branches at")
    instance = parse_tree(args.instance)
    left = args.left if args.left is not None else (0,) * args.depth
    right = args.right if args.right is not None else (1,) + (0,) * (args.depth - 1)
    cert = branch_separation(instance, left, right, probe=args.probe)
    report = Report(command=args.echo)
    report.results["split stage"] = cert.split
    report.results["certified points"] = [list(p) for p in cert.points]
    report.results["values"] = [list(v) for v in cert.values]
    report.verdict(
        "certificate meets its floor",
        len(cert.points) >= cert.floor,
        f"{len(cert.points)} certified >= floor {cert.floor} "
        f"(= {cert.stage_size} - {cert.perturbation} perturbation - {cert.probe_size} probed)",
    )
    report.verdict(
        "every certified point separates",
        all(lv != rv for lv, rv in cert.values),
        "branch states evaluated at each point",
    )
    return _emit(report, args)


def _cmd_make_a(args) -> int:
    family = []
    for chunk in args.functions.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            family.append([int(p) for p in chunk.split(",")])
        except ValueError:
            raise DocumentError(f"--functions wants digits and commas, got {chunk!r}")
    if not family:
        raise DocumentError("--functions is empty")
    try:
        spec = TruncationSpec(
            columns=len(family[0]),
            family=tuple(tuple(f) for f in family),
            ring=parse_ring(args.ring),
        )
        system = truncated_A(spec)
    except ValueError as err:
        raise DocumentError(str(err))
    doc = {"note": TRUNCATION_NOTE}
    doc.update(system_to_doc(system))
    _print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        write_document(doc, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use, reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="rooslab",
        description="Exact derived limits of finite inverse systems, and the "
        "verification suites around them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit", parents=[common], help="derived limit of a system")
    p.add_argument("--system", required=True, help="system document path")
    p.add_argument("--degree", type=_degree, required=True, help="derived-limit degree")
    p.add_argument(
        "--degenerate",
        action="store_true",
        help="oracle route: the degenerate-tuple complex of the system as given, "
        "every weakly increasing tuple and no collapse of equivalent indices "
        "(same groups, larger complex)",
    )
    p.set_defaults(run=_cmd_limit)

    p = sub.add_parser("verify", parents=[common], help="verification suite on a system")
    p.add_argument("--system", required=True)
    p.add_argument("--max-degree", type=_degree, default=3)
    p.add_argument("--spot-checks", type=_natural("spot-check count"), default=3)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("les", parents=[common], help="long exact sequence of a levelwise SES")
    p.add_argument("--ses", required=True, help="short-exact-sequence document path")
    p.add_argument("--max-degree", type=_degree, required=True)
    p.add_argument("--fields", default=None, help="comma-separated characteristics, 0 = rationals")
    p.set_defaults(run=_cmd_les)

    p = sub.add_parser("nerve", parents=[common], help="nerve cohomology of a finite category")
    p.add_argument("--category", required=True, help="category document path")
    p.add_argument("--object", required=True, help="base object")
    p.add_argument("--rank", type=_natural("rank"), default=1, help="copies of the base block")
    p.add_argument("--max-degree", type=_degree, default=3)
    p.set_defaults(run=_cmd_nerve)

    p = sub.add_parser("cohere", parents=[], help="grid-family coherence lab")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pc = csub.add_parser("check", parents=[common], help="pairwise coherence")
    pc.add_argument("--family", required=True)
    pc.add_argument("--budget", type=_budget, default="finite")
    pc.set_defaults(run=_cmd_cohere_check)
    pt = csub.add_parser("trivialize", parents=[common], help="exhaustive trivialization search")
    pt.add_argument("--family", required=True)
    pt.add_argument("--budget", type=_natural("budget"), default=0)
    pt.add_argument("--horizon", type=_natural("horizon"), required=True)
    pt.set_defaults(run=_cmd_cohere_trivialize)

    p = sub.add_parser("tree", parents=[], help="branching trivialization instances")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    tb = tsub.add_parser("build", parents=[common], help="all branch states to a depth")
    tb.add_argument("--instance", required=True)
    tb.add_argument("--depth", type=_natural("depth"), required=True)
    tb.set_defaults(run=_cmd_tree_build)
    ts = tsub.add_parser("separate", parents=[common], help="branch separation certificate")
    ts.add_argument("--instance", required=True)
    ts.add_argument("--depth", type=_natural("depth"), required=True)
    ts.add_argument("--left", type=_bits, default=None, help="branch code, e.g. 010")
    ts.add_argument("--right", type=_bits, default=None)
    ts.add_argument("--probe", type=_points_arg, default=[], help='probed cells "i,j;i,j"')
    ts.set_defaults(run=_cmd_tree_separate)

    p = sub.add_parser(
        "make-a", parents=[common], help="emit a truncated grid-sum system document"
    )
    p.add_argument(
        "--functions", required=True, help='semicolon-separated columns, e.g. "2,1;1,2;2,2"'
    )
    p.add_argument("--ring", default="Z", help='"Z" or "Z/m"')
    p.add_argument("--out", default=None, help="also write the document here")
    p.set_defaults(run=_cmd_make_a)
    return parser


def _fail(message: str) -> int:
    """Exit status 2 with a one-line message on stderr."""
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = "rooslab " + " ".join(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError) as err:  # DocumentError is a ValueError
        return _fail(str(err))
    except RecursionError:
        return _fail("input too large: the computation exceeded the recursion limit")
    except MemoryError:
        return _fail("input too large: the computation ran out of memory")
    except KeyError as err:
        return _fail(f"missing key {err}")


if __name__ == "__main__":
    sys.exit(main())
