"""Tests of the benchmark itself: request lists, tracing and output checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import speed
import tracing
import workloads
from worker import execute, run_job

import riordan_graphs
from riordan_graphs import cli, counting, formulas, graphs, series, verify

LAYERS = {
    "cli": cli,
    "series": series,
    "graphs": graphs,
    "counting": counting,
    "formulas": formulas,
    "verify": verify,
}
MODULES = [riordan_graphs, *LAYERS.values()]

CHEAP_REQUESTS = [
    ["series", "eval", "--expr", "motzkin", "--order", "64"],
    ["graph", "build", "--spec", "bell:g=catalan;n=30", "--format", "dot"],
    ["count", "--spec", "pascal:n=20", "--what", "max-is", "--force"],
    ["count", "--spec", "toeplitz:n=40;d=1,3", "--force"],
    ["bounds", "--spec", "toeplitz:n=12;d=2,4"],
    ["bounds", "--spec", "pascal:n=9", "--format", "table"],
    ["verify", "sweep", "--family", "deltaTilde:n={n}", "--range", "3..5", "--format", "csv"],
    ["verify", "decomposition", "--spec", "bell:g=motzkin;n=40"],
    ["count", "--spec", "nonsense:n=3"],  # exits 2: the error path is traced too
]


def _snapshot():
    """Every module binding and class attribute, by identity."""
    snap = {}
    for module in MODULES:
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    snap[(module.__name__, name, key)] = item
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    snap[(module.__name__, name, "attr", attr)] = raw
    return snap


def _traced(requests):
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, LAYERS, MODULES)
    try:
        results = [execute(cli.run, argv, timeout=60, tracer=tracer) for argv in requests]
    finally:
        installed.restore()
    return tracer, results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    first = workloads.rounds(workload, 7)
    assert first == workloads.rounds(workload, 7)
    assert first != workloads.rounds(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_draw_one_request_per_cell_without_repeated_inputs(workload):
    cells = workloads.cells(workload)
    plan = workloads.rounds(workload, 3)
    assert len(plan) == min(len(cell) for cell in cells.values())
    anchors = workloads.ANCHORS[workload]
    assert plan[0][: len(anchors)] == anchors
    plan[0] = plan[0][len(anchors) :]
    cell_of = {workloads.request_key(argv): name for name, cell in cells.items() for argv in cell}
    drawn = [workloads.request_key(argv) for batch in plan for argv in batch]
    assert len(drawn) == len(set(drawn))
    assert not any(workloads.request_key(argv) in drawn for argv in anchors)
    for batch in plan:
        assert sorted(cell_of[workloads.request_key(argv)] for argv in batch) == sorted(cells)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_count_follows_seconds_not_host_speed(workload):
    plan = workloads.rounds(workload, 1)
    for seconds in (0.1, 30, 1e6):
        count = workloads.round_count(workload, seconds)
        assert 1 <= count <= len(plan)
        assert sum(map(len, plan[:count])) >= workloads.MIN_REQUESTS
    assert workloads.round_count(workload, 1e6) == len(plan)


def test_every_request_has_a_reference():
    refs = json.loads((Path(workloads.__file__).parent / "references.json").read_text())
    for workload in workloads.WORKLOADS:
        keys = {workloads.request_key(argv) for argv in workloads.requests(workload)}
        assert keys == set(refs[workload])


def test_restore_leaves_every_binding_unchanged():
    before = _snapshot()
    tracer, _ = _traced(CHEAP_REQUESTS)
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert tracer.calls["counting"] > 0


def test_install_covers_from_import_bindings():
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, LAYERS, MODULES)
    try:
        graph = graphs.build_toeplitz(6, (1,))
        tracer.begin_request()
        verify.count_is(graph)
        formulas.count_is(graph)
        riordan_graphs.count_is(graph)
        graphs._SPEC_MAKERS["pascal"](5)
        tracer.end_request()
    finally:
        installed.restore()
    assert tracer.function_calls["counting.count_is"] == 3
    assert tracer.function_calls["graphs.pascal_spec"] == 1


def test_self_times_and_harness_residual_add_up_to_request_time():
    tracer, results = _traced(CHEAP_REQUESTS)
    assert [r["error"] for r in results] == [None] * len(results)
    metrics = {name: value for name, (value, unit) in tracer.metrics().items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + metrics["harness.self_s"]
    assert math.isclose(total, sum(tracer.request_s), rel_tol=1e-9)
    assert math.isclose(sum(r["seconds"] for r in results), sum(tracer.request_s), rel_tol=1e-12)
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in tracing.LAYERS)
    assert metrics["cli.raised"] == 0 and metrics["graphs.raised"] > 0  # spec parse error


def test_spans_nest_and_merge_into_one_tree_per_request():
    tracer, _ = _traced(CHEAP_REQUESTS[:3])
    ids = {span[1] for span in tracer.spans}
    roots = [span for span in tracer.spans if span[2] == 0]
    assert [span[4] for span in roots] == [tracing.HARNESS] * 3
    assert all(span[2] == 0 or span[2] in ids for span in tracer.spans)


def test_counters_track_builds_and_counting_inputs():
    tracer, _ = _traced([["bounds", "--spec", "pascal:n=9"]])
    metrics = {name: value for name, (value, unit) in tracer.metrics().items()}
    assert metrics["verify.reports"] == 1
    assert metrics["graphs.build_calls"] >= 1
    assert 0 < metrics["graphs.build_useful_ratio"] <= 1
    assert 0 < metrics["counting.useful_ratio"] <= 1
    assert metrics["counting.branch_calls"] >= 1


def test_series_check_accepts_the_program_and_rejects_a_flipped_bit():
    for expr in ("catalan", "motzkin", *workloads.RATIONAL_EXPRS):
        coeffs = list(series.evaluate(series.parse(expr), 200).coeffs)
        assert checks.check_series(expr, 200, coeffs) is None
        coeffs[150] ^= 1
        assert checks.check_series(expr, 200, coeffs) is not None


def test_checker_rejects_a_wrong_count_with_a_matching_digest():
    argv = ["count", "--spec", "delta:n=20"]
    checker = checks.Checker({})
    result = {"argv": argv, "rc": 0, "sha256": "x", "stdout": None, "error": None, "seconds": 0}
    assert "no reference" in checker.check(result)
    good = execute(cli.run, argv, timeout=60)
    checker = checks.Checker({workloads.request_key(argv): [0, good["sha256"][:32]]})
    assert checker.check(good) is None
    bad = dict(good, stdout=good["stdout"].replace(str(formulas.delta(20)), "1"))
    assert "independent route" in checker.check(bad)


def test_harrell_davis_quantiles_lie_between_the_order_statistics():
    values = [float(v) for v in range(1, 102)]
    assert math.isclose(speed.quantile(values, 0.5), 51.0, rel_tol=1e-9)
    assert 90 < speed.quantile(values, 0.9) < 92
    skewed = [1.0] * 50 + [100.0] * 51
    assert 1 < speed.quantile(skewed, 0.5) < 100


def test_slowdowns_take_the_probes_around_each_request():
    ref = speed.REFERENCE_S
    probes = [(t * 0.5, ref) for t in range(20)] + [(t * 0.5, 3 * ref) for t in range(20, 40)]
    early, late, across = speed.slowdowns([(1.0, 1.1), (18.0, 18.1), (9.6, 9.9)], probes)
    assert (early, late) == pytest.approx((1, 3))
    assert across == pytest.approx(2)  # as many probes on either side of the change
    # With no probe inside the window, the nearest ones on either side count.
    sparse = [(0.0, ref), (100.0, 2 * ref)]
    assert speed.slowdowns([(50.0, 51.0)], sparse) == pytest.approx([1.5])


def test_plain_worker_runs_time_probes_between_requests():
    import io

    job = {
        "rounds": [CHEAP_REQUESTS[:3]],
        "max_seconds": 60,
        "timeout": 60,
        "trace": False,
        "probe_every": 1e-9,
    }
    out = io.StringIO()
    run_job(job, out)
    *lines, summary = [json.loads(line) for line in out.getvalue().splitlines()]
    starts = [line["start"] for line in lines]
    probe_times = [t for t, _ in summary["probes"]]
    assert len(probe_times) == 4  # before each request and after the last
    assert all(a < b < c for a, b, c in zip(probe_times, starts, probe_times[1:]))
