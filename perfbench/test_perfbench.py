"""Tests of the benchmark's own logic (run: ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import math
import types

import numpy as np
import pytest

from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.stats import (
    Span,
    disagreeing_groups,
    percentile,
    quartile_spread,
    rel_close,
    schedule_mismatches,
    self_time_by_name,
    self_times,
    unattributed_frac,
    worker_spans,
)
from perfbench.tracing import Tracer
from perfbench.workloads import SweepFigures


def span(sid, name, start, end, parent=None, pid=1):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent, cell="c", pid=pid)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(p):
    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 0.2, 7.7]
    assert percentile(data, p).value == pytest.approx(np.percentile(data, p))


def test_percentile_reports_sample_count_and_tail():
    result = percentile(range(1, 101), 90)
    assert result.count == 100
    assert result.value == pytest.approx(90.1)
    assert result.beyond == 10


def test_percentile_of_one_sample_has_nothing_beyond():
    result = percentile([2.5], 90)
    assert (result.value, result.count, result.beyond) == (2.5, 1, 0)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread():
    values = [10.0, 10.0, 11.0, 12.0, 10.5]
    q1, med, q3 = 10.0, 10.5, 11.5
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def nested_spans():
    return [
        span("1:0", "outer", 0.0, 10.0),
        span("1:1", "child", 1.0, 4.0, parent="1:0"),
        span("1:2", "child", 5.0, 6.0, parent="1:0"),
        span("1:3", "leaf", 5.2, 5.5, parent="1:2"),
        span("1:4", "other", 11.0, 12.0),
        # a pool worker forked while "outer" was open
        span("2:0", "worker", 2.0, 9.0, parent="1:0", pid=2),
        span("2:1", "leaf", 3.0, 4.0, parent="2:0", pid=2),
    ]


def test_self_time_subtracts_same_process_children_only():
    own = self_times(nested_spans())
    assert own["1:0"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["1:1"] == pytest.approx(3.0)
    assert own["1:2"] == pytest.approx(1.0 - 0.3)
    assert own["1:3"] == pytest.approx(0.3)
    assert own["2:0"] == pytest.approx(6.0)


def test_self_time_by_name_adds_up_to_wall_in_one_process():
    spans = [s for s in nested_spans() if s.pid == 1]
    totals = self_time_by_name(spans)
    assert totals["child"] == pytest.approx(3.7)
    assert totals["leaf"] == pytest.approx(0.3)
    assert sum(totals.values()) == pytest.approx(11.0)


def test_unattributed_residual_uses_top_level_spans_of_the_process():
    # top-level spans of pid 1 cover 10 + 1 seconds of a 12 s wall
    assert unattributed_frac(nested_spans(), pid=1, wall=12.0) == pytest.approx(1 / 12)
    with pytest.raises(ValueError):
        unattributed_frac(nested_spans(), pid=1, wall=0.0)


def test_worker_spans_are_the_outermost_spans_of_other_processes():
    assert [s.sid for s in worker_spans(nested_spans(), pid=1)] == ["2:0"]


def test_layer_metrics_ratios_and_zero_layers():
    spans = [
        span("1:0", "mip.bnb_solve", 0.0, 2.0),
        span("1:1", "mip.lp_solve", 0.5, 1.0, parent="1:0"),
        span("1:2", "mip.lp_solve", 1.0, 1.5, parent="1:0"),
    ]
    snapshot = {
        "counters": {
            "solver.lp_iterations": 50,
            "solver.lp_hot_starts": 3,
            "solver.lp_cold_starts": 1,
            "cache.standard_form_hits": 1,
            "cache.standard_form_misses": 3,
        }
    }
    out = layer_metrics(
        spans, {"mip.bnb_nodes": 10.0}, snapshot, wall=2.5, pid=1, workers=1, store_bytes=0
    )
    assert out["mip.bnb_solve_ms"] == pytest.approx(1000.0)
    assert out["mip.lp_solve_ms"] == pytest.approx(1000.0)
    assert out["mip.lp_solves"] == 2
    assert out["mip.bnb_nodes_per_s"] == pytest.approx(5.0)
    assert out["mip.lp_iterations_per_node"] == pytest.approx(5.0)
    assert out["mip.lp_hot_start_ratio"] == pytest.approx(0.75)
    assert out["mip.form_cache_hit_ratio"] == pytest.approx(0.25)
    assert out["mip.highs_ms_per_solve"] == 0.0
    assert out["bench.unattributed_frac"] == pytest.approx(0.2)
    assert set(out) | {
        "import.ms", "workloads.generate_ms", "bench.trace_overhead_frac",
        "bench.decision_samples",
    } == set(PER_LAYER)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_tracer_records_nested_spans_only_while_enabled(tmp_path):
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer(tmp_path)
    layers = (
        (__name__, "Layer.outer", "outer", {}),
        (__name__, "Layer.inner", "inner", {}),
    )
    globals()["Layer"] = Layer
    try:
        tracer.install(layers)
        assert Layer().outer() == 2
        assert tracer.spans == []
        tracer.enabled = True
        tracer.cell = "cell-a"
        assert Layer().outer() == 2
        tracer.enabled = False
    finally:
        tracer.uninstall()
        del globals()["Layer"]
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.cell == inner.cell == "cell-a"
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def test_collect_workers_folds_span_files(tmp_path):
    worker = span("7:0", "evaluation.run_exact", 1.0, 2.0, parent="1:3", pid=7)
    lines = [
        json.dumps({"span": worker.__dict__}),
        json.dumps({"counts": {"mip.highs_nodes": 4.0, "model.num_vars": 10.0}}),
        json.dumps({"counts": {"mip.highs_nodes": 1.0, "model.num_vars": 30.0}}),
    ]
    (tmp_path / "spans-7.jsonl").write_text("\n".join(lines) + "\n")
    tracer = Tracer(tmp_path)
    tracer.counts = {"mip.highs_nodes": 2.0, "model.num_vars": 20.0}
    tracer.collect_workers()
    assert tracer.spans == [worker]
    assert tracer.counts == {"mip.highs_nodes": 7.0, "model.num_vars": 30.0}
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# oracle comparisons
# ----------------------------------------------------------------------
def test_rel_close():
    assert rel_close(100.0, 100.0 + 5e-5)
    assert not rel_close(100.0, 100.001)
    assert rel_close(0.0, 5e-7)
    assert not rel_close(math.nan, math.nan)


def test_schedule_mismatches():
    expected = {"R1": 0.0, "R2": 3.5}
    assert schedule_mismatches(expected, {"R1": 0.0, "R2": 3.5 + 1e-9}) == []
    problems = schedule_mismatches(expected, {"R1": 0.5, "R3": 1.0})
    assert len(problems) == 3
    assert any("R2" in p for p in problems) and any("R3" in p for p in problems)


def test_disagreeing_groups():
    optima = {
        (0, 0.0): {"delta": 19.0, "sigma": 19.0, "csigma": 19.0},
        (0, 1.0): {"delta": 19.0, "sigma": 18.5, "csigma": 19.0},
    }
    assert list(disagreeing_groups(optima)) == [(0, 1.0)]


def record(algorithm, objective_name="access_control", objective=19.0, **kw):
    fields = dict(
        scenario="small-s0", seed=0, flexibility=0.0, algorithm=algorithm,
        objective_name=objective_name, objective=objective, gap=0.0,
        status="solved", verified_feasible=True, error="", runtime=0.1,
    )
    fields.update(kw)
    r = types.SimpleNamespace(**fields)
    r.proved_optimal = r.gap <= 1e-6
    return r


def test_sweep_check_counts_each_failed_record():
    sweep = SweepFigures()
    expected = {"access": 3, "greedy": 1}
    good = [record("delta"), record("sigma"), record("csigma"), record("greedy", gap=math.inf)]
    assert sweep.check(None, (good, 0), expected).errors == []

    bad = [
        record("delta"),
        record("sigma", objective=18.0),
        record("csigma", verified_feasible=False),
        record("greedy", status="error", gap=math.inf),
    ]
    checked = sweep.check(None, (bad, 0), expected)
    assert checked.attempted == 4
    assert len(checked.errors) == 4  # three disagree, greedy errored

    checked = sweep.check(None, (good[:2], 0), expected)
    assert checked.attempted == 4 and len(checked.errors) == 2
