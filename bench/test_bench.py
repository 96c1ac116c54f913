"""Smoke run of the benchmark harness at tiny sizes, and the self-time
arithmetic of the span tracer on synthetic spans."""

import json
import random

import pytest

import rooslab.cli
from rooslab.coherence import trivialize_report
import run
import spans
import workloads


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    rows = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),   # overlaps b: union [1, 5] covers 4
        ("b", 2.0, 5.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),  # runs past the parent: only [8, 10] counts
        ("a.x", 1.5, 2.5, 1, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(rows) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_layer_metrics_split_self_and_inclusive_time():
    v, snf, mul = (
        "systems:systems.validate_system",
        "linalg:linalg.smith_normal_form",
        "linalg:linalg.IntMatrix.mul",
    )
    rows = [
        ("cli:cli.main", 0.0, 10.0, -1, 0),
        (v, 1.0, 5.0, 0, 0),
        (snf, 2.0, 4.0, 1, 0),
        (snf, 6.0, 7.0, 0, 0),
        (mul, 7.0, 7.5, 0, 0),
    ]
    counts = {f"{v}.calls": 1, f"{snf}.calls": 2, f"{mul}.calls": 1}
    m = spans.layer_metrics(rows, counts)
    assert m["cli.self_s"] == pytest.approx(10 - 4 - 1 - 0.5)
    assert m["systems.validate_s"] == pytest.approx(4.0)
    assert m["linalg.snf_s"] == pytest.approx(3.0)
    assert m["linalg.snf_validate_s"] == pytest.approx(2.0)
    assert m["linalg.mul_s"] == pytest.approx(0.5)
    assert m["linalg.snf_calls"] == 2


def _tiny(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    return {
        "limits": workloads.build_limits(7, str(tmp_path), pool=40, systems=2, nerves=1,
                                         chain=False),
        "les-coupled": workloads.build_les(7, str(tmp_path), pool=4, sequences=2),
        "grid-search": workloads.build_grid(7, str(tmp_path), pool=20, families=1,
                                            tree_pool=2, trees=1),
    }


def test_tiny_workloads_pass_their_checks_and_digest_reproducibly(tmp_path):
    first = _tiny(tmp_path / "a")
    second = _tiny(tmp_path / "b")
    for name, ops in first.items():
        p = run.measure(rooslab.cli, ops, 0.0)
        run._pass(rooslab.cli, ops, p)
        q = run.measure(rooslab.cli, second[name], 0.0)
        assert p.failed == 0, (name, p.errors, p.wrong)
        assert p.passes == 2 and p.attempted == 2 * len(ops)
        assert len(p.latencies()) == len(p.latencies(raw=True)) == 2 * len(ops)
        assert p.digest() == q.digest(), name


def test_traced_pass_reports_every_layer_metric_and_unwraps(tmp_path):
    ops = [op for built in _tiny(tmp_path).values() for op in built]
    original = rooslab.cli.main
    tracer = spans.Tracer()
    try:
        assert rooslab.cli.main is not original
        plain, traced, metrics = run.measure_traced(
            rooslab.cli, ops, 0.0, tracer, str(tmp_path / "spans.jsonl"))
    finally:
        tracer.close()
    assert rooslab.cli.main is original
    assert plain.failed == 0 and traced.failed == 0
    assert plain.passes == traced.passes == 1
    assert set(metrics) | {"trace.overhead_frac"} == {n for n, _, _ in run.PER_LAYER}
    # One pass: 4 complexes per system, 3 per sequence.
    assert metrics["complexes.builds"] == 4 * 2 + 3 * 2
    assert metrics["les.positions"] == 48 * 2
    assert metrics["trees.pairs"] == 1
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line)[4] >= 0 for line in lines)


def test_evenly_takes_the_middle_of_equal_slices():
    assert workloads.evenly(list(range(10)), 5) == [1, 3, 5, 7, 9]
    assert workloads.evenly(list(range(10)), 1) == [5]
    with pytest.raises(ValueError):
        workloads.evenly([1, 2], 3)


class _Raising:
    """Stands in for the CLI module; its main raises the given exception."""

    def __init__(self, exc):
        self.exc = exc

    def main(self, argv):
        raise self.exc


@pytest.mark.parametrize(
    "exc, name", [(RecursionError(), "RecursionError"), (MemoryError(), "MemoryError"),
                  (SystemExit(2), "exit status 2")]
)
def test_harness_counts_any_failing_operation_and_continues(exc, name):
    op = workloads.Op("boom", [["limit"]], lambda reports: None)
    p = run.measure(_Raising(exc), [op, op], 0.0)
    run._pass(_Raising(exc), [op, op], p)
    assert p.attempted == 4 and p.failed == 4 and p.errors == {name: 4}
    assert p.latencies() == []
    assert json.loads(json.dumps(p.digest_entries)) == [["boom", name]] * 2


def test_tail_is_the_nearest_rank_percentile_with_its_samples_beyond():
    xs = [float(i) for i in range(100, 0, -1)]
    assert run.tail(xs, 90) == (90.0, 10)
    assert run.tail(xs, 99) == (99.0, 1)


def test_every_pass_leaves_ten_samples_beyond_the_tail_percentile():
    sizes = {"limits": workloads.LIMIT_SYSTEMS + workloads.LIMIT_NERVES + 1,
             "les-coupled": workloads.LES_SEQUENCES,
             "grid-search": 2 * workloads.GRID_FAMILIES + workloads.GRID_TREES}
    for name, n in sizes.items():
        assert run.tail([float(i) for i in range(n)], run.TAIL_PERCENTILE)[1] >= 10, name


def test_scale_takes_probe_times_to_the_reference_host():
    r = run.REFERENCE_S
    assert run.scale(r, r) == pytest.approx(1.0)
    assert run.scale(2 * r, 2 * r) == pytest.approx(0.5)
    assert run.scale(r, 3 * r) == pytest.approx(0.5)


def test_search_bound_is_the_search_size_and_knows_the_witness():
    rng = random.Random(3)
    seen = 0
    while seen < 8:
        family, budget, bound, witness = workloads._moderate_family(rng)
        if bound > 5000:
            continue
        seen += 1
        report = trivialize_report(family, budget, workloads.COLUMNS)
        assert (report.found is not None) == witness
        assert report.explored == bound if not witness else report.explored <= bound


@pytest.mark.parametrize("draw, shares, picks", [
    (workloads.draw_system, workloads.SYSTEM_SHARES, workloads.LIMIT_SYSTEMS),
    (workloads.draw_family, workloads.FAMILY_SHARES, workloads.GRID_FAMILIES),
])
def test_strata_are_apportioned_in_their_shares(draw, shares, picks):
    counts = workloads.apportion(shares, picks)
    assert sum(counts.values()) == picks
    for key, share in shares.items():
        assert abs(counts[key] - share * picks) < 1
    assert set(workloads.measure_shares(draw, 200)) <= set(shares)
