"""End-to-end benchmark of the rooslab CLI, with outside-in layer tracing.

One workload, as the benchmark contract runs it:

    python3 bench/run.py --workload limits --seed 1 --seconds 20 --trace 0

Every workload at once, untraced and traced, as one table (each workload
runs in its own child process, so peak memory is per workload):

    python3 bench/run.py --seed 1 --seconds 20 [--save bench/results/x.json]

The harness generates a workload's pass of operations from the seed and
writes its inputs as JSON documents under .bench_work/ (set-up), then
drives ``rooslab.cli.main`` in-process in a closed loop: one client, one
thread, the next operation sent only after the previous one returned.  It
measures whole passes until their summed operation time reaches the time
budget, checks every answer (untimed) and prints, last, one JSON line with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Times are scaled to a host of fixed speed.  The speed of the shared hosts
this runs on wanders by up to 2x over seconds to minutes, for the program
and other Python code alike, so between two operations (and around each
set-up) the harness times a fixed piece of pure-Python work, the probe, and
scales each operation's time by REFERENCE_S over the mean of the probe times
just before and just after it.  The reported times are those on a host where
the probe takes REFERENCE_S; the run also prints the unscaled throughput and
median.

A traced run alternates untraced and traced passes; the per-layer metrics
(unscaled) come from the first traced pass, and the tracing overhead
compares the scaled times of the two kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
# latency_tail_ms is this percentile for every workload.  A pass has at
# least 361 operations, so at least 18 of its samples lie beyond it; the
# percentile with only ten beyond sits among a pass's few slowest
# operations, whose mix varies too much from seed to seed.
TAIL_PERCENTILE = 95
# The probe's time on the host the committed results come from (2-CPU Xeon
# VM, CPython 3.11) in its faster stretches: a tenth of its runs there take
# less than 1.15 ms, the fastest 0.9 ms, the median 1.6 ms.
REFERENCE_S = 0.0012

# name -> unit; all six are printed, BENCHMARK.json bounds all but
# failed_frac, which is 0 on a healthy workload (the JSON line carries
# attempted and failed instead).
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name, unit, which end-to-end metric it should move on which workload.
# Times are self time (span minus child spans) unless marked inclusive.
PER_LAYER = (
    ("cli.self_s", "s", "latency_p50_ms on limits"),
    ("io.parse_s", "s", "latency_p50_ms on limits, les-coupled"),
    ("io.doc_bytes", "bytes", "latency_p50_ms on limits, les-coupled"),
    ("systems.validate_s", "s", "latency_p50_ms on limits (inclusive)"),
    ("systems.validate_calls", "count", "latency_p50_ms on limits"),
    ("linalg.snf_validate_s", "s", "latency_p50_ms on limits (SNF under validation)"),
    ("orders.chains_s", "s", "ops_per_s on limits (12-chain)"),
    ("orders.tuples", "count", "ops_per_s on limits (12-chain)"),
    ("complexes.assemble_s", "s", "ops_per_s on limits"),
    ("complexes.identity_check_s", "s", "ops_per_s on limits (inclusive)"),
    ("complexes.builds", "count", "ops_per_s on limits (4 per system today)"),
    ("complexes.dim_sum", "count", "ops_per_s on limits"),
    ("linalg.snf_s", "s", "ops_per_s on limits (large), latency_p50_ms on limits, les-coupled"),
    ("linalg.snf_calls", "count", "ops_per_s on limits"),
    ("linalg.snf_cells", "count", "ops_per_s on limits (sum of rows x cols, computed)"),
    ("linalg.snf_max_rows", "count", "ops_per_s on limits"),
    ("linalg.snf_max_cols", "count", "ops_per_s on limits"),
    ("linalg.snf_max_bits", "bits", "ops_per_s on limits"),
    ("linalg.cohomology_s", "s", "latency_p50_ms on limits, les-coupled"),
    ("linalg.mul_s", "s", "latency_p50_ms on limits, les-coupled"),
    ("linalg.mul_calls", "count", "latency_p50_ms on limits, les-coupled"),
    ("les.self_s", "s", "latency_p50_ms on les-coupled"),
    ("les.positions", "count", "latency_p50_ms on les-coupled"),
    ("category.nerve_s", "s", "latency_p50_ms on limits"),
    ("category.chains", "count", "latency_p50_ms on limits"),
    ("coherence.trivialize_s", "s", "ops_per_s, latency_tail_ms on grid-search"),
    ("coherence.explored", "count", "ops_per_s, latency_tail_ms on grid-search (exact)"),
    ("coherence.assignments_per_s", "1/s", "ops_per_s, latency_tail_ms on grid-search"),
    ("coherence.check_s", "s", "ops_per_s, latency_tail_ms on grid-search"),
    ("trees.separate_s", "s", "latency_p50_ms on grid-search"),
    ("trees.pairs", "count", "latency_p50_ms on grid-search"),
    ("trace.overhead_frac", "fraction", "none (must stay small)"),
)


_probe_rng = random.Random(0)
PROBE_MATRIX = [[_probe_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
PROBE_KEYS = [(_probe_rng.randint(0, 50), _probe_rng.randint(0, 50)) for _ in range(600)]


def probe() -> float:
    """Time of one run of fixed pure-Python work of the program's kind:
    fraction-free elimination on a 10x10 integer matrix (entries grow to
    hundreds of bits), then counting, sorting and JSON-encoding 600 keys."""
    start = time.perf_counter()
    n = len(PROBE_MATRIX)
    for _ in range(3):
        m = [row[:] for row in PROBE_MATRIX]
        for k in range(n - 1):
            pivot = m[k][k] or 1
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k, n):
                    row[j] = row[j] * pivot - f * m[k][j]
    counts = {}
    for key in PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    json.dumps(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probe runs to the
    reference host."""
    return 2 * REFERENCE_S / (before + after)


@dataclass
class Tally:
    """What a run saw over whole passes of one workload."""

    passes: int = 0
    attempted: int = 0
    errors: dict = field(default_factory=dict)
    wrong: list = field(default_factory=list)
    times: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    digest_entries: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)

    @property
    def op_time(self) -> float:
        return sum(self.raw)

    def latencies(self, raw: bool = False) -> list:
        """Scaled (or raw) time of every attempt that did not fail."""
        times = self.raw if raw else self.times
        return [t for t, ok in zip(times, self.ok) if ok]

    def digest(self) -> str:
        text = json.dumps(self.digest_entries, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _execute(cli, op):
    """Run the op's CLI calls; return (raw JSON outputs, failure or None).

    Any exception out of ``main`` (RecursionError and MemoryError included),
    argparse's SystemExit and exit status 2 are failures of the operation,
    never of the harness.
    """
    outputs = []
    for call in op.calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(call + ["--json"])
        except KeyboardInterrupt:
            raise
        except SystemExit as exc:
            status = exc.code
        except BaseException as exc:  # noqa: BLE001 - counted, see docstring
            return outputs, type(exc).__name__
        if status == 2:
            return outputs, "exit status 2"
        outputs.append(out.getvalue())
    return outputs, None


def _pass(cli, ops, tally: Tally, tracer=None) -> None:
    """One pass over ``ops``, a probe between every two; answer checks run
    after each op, untimed."""
    clock = time.perf_counter
    first = tally.passes == 0
    before = probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        start = clock()
        outputs, failure = _execute(cli, op)
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        after = probe()
        tally.attempted += 1
        tally.raw.append(elapsed)
        tally.times.append(elapsed * scale(before, after))
        before = after
        if failure is None:
            reports = [json.loads(text) for text in outputs]
            try:
                problem = op.check(reports)
            except Exception as exc:  # noqa: BLE001 - a broken report is a wrong answer
                problem = f"check could not read the report: {exc!r}"
            if problem is not None:
                tally.wrong.append(f"{op.label}: {problem}")
            entry = [op.label, [[r["results"], r["verdicts"]] for r in reports]]
        else:
            tally.errors[failure] = tally.errors.get(failure, 0) + 1
            problem = failure
            entry = [op.label, failure]
        tally.ok.append(problem is None)
        if first:
            tally.digest_entries.append(entry)
    tally.passes += 1


def measure(cli, ops, budget: float) -> Tally:
    """Closed loop over whole passes of ``ops`` until their summed
    operation time reaches ``budget`` (at least one pass)."""
    tally = Tally()
    while tally.passes == 0 or tally.op_time < budget:
        _pass(cli, ops, tally)
    return tally


def measure_traced(cli, ops, budget: float, tracer, spans_path: str):
    """Alternate untraced and traced passes (at least one of each) until
    their summed operation time reaches ``budget``.  Returns the two
    tallies and the per-layer metrics of the first traced pass, whose spans
    are written to ``spans_path``; later traced passes keep the wrappers'
    cost but drop their spans."""
    plain, traced = Tally(), Tally()
    metrics = None
    while metrics is None or plain.op_time + traced.op_time < budget:
        _pass(cli, ops, plain)
        _pass(cli, ops, traced, tracer)
        if metrics is None:
            metrics = spans.layer_metrics(tracer.spans, tracer.counts)
            tracer.write(spans_path)
        tracer.clear()
    return plain, traced, metrics


def tail(latencies, pct: float):
    """(value, samples beyond it) of the ``pct`` percentile by nearest rank."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _import_program():
    if not (SRC / "rooslab" / "__init__.py").is_file():
        sys.exit(f"error: no rooslab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rooslab.cli

    if Path(rooslab.cli.__file__).resolve().parent != SRC / "rooslab":
        sys.exit(f"error: imported rooslab from {rooslab.cli.__file__}, not {SRC}")
    return rooslab.cli


def setup(builder, seed: int, workdir: Path):
    """Generate and write the inputs SETUPS times; the median scaled time
    is setup_s, the last pass built is the one measured."""
    times = []
    ops = None
    for i in range(SETUPS):
        target = workdir / f"setup{i}"
        before = probe()
        start = time.perf_counter()
        target.mkdir(parents=True)
        ops = builder(seed, str(target))
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale(before, probe()))
        if i:
            shutil.rmtree(workdir / f"setup{i - 1}")
    return ops, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = _import_program()
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r} (have {sorted(workloads.WORKLOADS)})")
    builder = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        ops, setup_s = setup(builder, seed, workdir)
        if trace:
            tracer = spans.Tracer()
            try:
                untraced, traced, metrics = measure_traced(
                    cli, ops, seconds, tracer, str(WORK / f"spans-{name}.jsonl"))
            finally:
                tracer.close()
        else:
            untraced = measure(cli, ops, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def show(t: Tally, label: str):
        print(f"{label}: {t.passes} passes of {len(ops)} ops, {t.attempted} attempted, "
              f"{t.failed} failed {dict(sorted(t.errors.items()))}, {len(t.wrong)} wrong "
              f"answers, digest {t.digest()} over pass 0")
        for line in t.wrong[:5]:
            print(f"  wrong: {line}")

    print(f"workload {name}, seed {seed}, budget {seconds:g} s of operations, "
          f"closed loop, 1 client")
    show(untraced, "untraced")
    final = traced if trace else untraced
    correct = not untraced.wrong and not final.wrong
    if trace:
        show(traced, "traced")
        metrics["trace.overhead_frac"] = sum(traced.times) / sum(untraced.times) - 1
        units = {n: u for n, u, _ in PER_LAYER}
        detail = {"traced_passes": traced.passes, "traced_s": traced.op_time,
                  "untraced_s": untraced.op_time}
    else:
        ok = untraced.latencies() or [float("nan")]
        tail_s, beyond = tail(ok, TAIL_PERCENTILE)
        metrics = {
            "ops_per_s": len(untraced.latencies()) / sum(untraced.times),
            "latency_p50_ms": statistics.median(ok) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "failed_frac": untraced.failed / untraced.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        raw = untraced.latencies(raw=True) or [float("nan")]
        detail = {"samples": len(untraced.latencies()), "tail_percentile": TAIL_PERCENTILE,
                  "tail_beyond": beyond, "op_time_s": untraced.op_time, "setups": SETUPS,
                  "unscaled_ops_per_s": len(untraced.latencies()) / untraced.op_time,
                  "unscaled_p50_ms": statistics.median(raw) * 1e3}
    detail.update(digest=untraced.digest(), passes=untraced.passes, pass_ops=len(ops),
                  errors=untraced.errors, wrong=len(untraced.wrong))
    for key, value in metrics.items():
        print(f"  {key:30s} {value:14.6g} {units[key]}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    reported = {n for n, _, _ in PER_LAYER} if trace else set(END_TO_END) - {"failed_frac"}
    print(json.dumps({
        "correct": correct,
        "attempted": final.attempted,
        "failed": final.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in reported},
    }))
    return 0


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"error: {' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = next(
        json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")
    )
    return result


def report(seed: int, seconds: float, save: str | None) -> int:
    """Every workload untraced and traced, one child process per run."""
    _import_program()
    import workloads

    sources = hashlib.sha256()
    for path in sorted((SRC / "rooslab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    out = {"seed": seed, "seconds": seconds, "python": sys.version.split()[0],
           "cpus": os.cpu_count(), "program_sha256": sources.hexdigest(), "workloads": {}}
    for name in workloads.WORKLOADS:
        untraced = _child(name, seed, seconds, 0)
        traced = _child(name, seed, seconds, 1)
        d = untraced["detail"]
        m = {k: v["value"] for k, v in untraced["metrics"].items()}
        m["failed_frac"] = untraced["failed"] / untraced["attempted"]
        checks = "pass" if untraced["correct"] else f"{d['wrong']} WRONG"
        print(f"\n== {name}: {d['passes']} passes of {d['pass_ops']} ops, "
              f"answer checks {checks}, failures {d['errors'] or 'none'}, digest {d['digest']}")
        notes = {
            "ops_per_s": f"{d['samples']} ops completed, unscaled "
                         f"{d['unscaled_ops_per_s']:.4g}",
            "latency_p50_ms": f"n={d['samples']}, unscaled {d['unscaled_p50_ms']:.4g}",
            "latency_tail_ms": f"p{d['tail_percentile']:g}, n={d['samples']}, "
                               f"{d['tail_beyond']} beyond",
            "failed_frac": f"{untraced['failed']}/{untraced['attempted']}",
            "setup_s": f"median of {d['setups']} set-ups",
            "peak_rss_mb": "ru_maxrss of the process",
        }
        for key, unit in END_TO_END.items():
            print(f"  {key:18s} {m[key]:12.4f} {unit:8s} ({notes[key]})")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        busy = {k: v for k, v in layers.items() if v and not k.startswith("trace.")}
        print(f"  traced (first of {traced['detail']['traced_passes']} traced passes): "
              + ", ".join(f"{k}={v:.4g}" for k, v in busy.items()))
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']:.3f}")
        out["workloads"][name] = {
            "untraced": {"correct": untraced["correct"], "attempted": untraced["attempted"],
                         "failed": untraced["failed"], "metrics": m, "detail": d},
            "traced": {"correct": traced["correct"], "attempted": traced["attempted"],
                       "failed": traced["failed"], "metrics": layers,
                       "detail": traced["detail"]},
        }
    if save:
        with open(save, "w") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit for the full report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="summed operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="report mode: also write the results here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return report(args.seed, args.seconds, args.save)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
