"""Warm starts at the TVNEP layer: schedule reconstruction, validation,
the HiGHS MIP starts and the standard-form cache wins of the
incremental greedy loop."""

from __future__ import annotations

import pytest

from repro.mip import solve_bnb, standard_form_cache_stats
from repro.mip.lp_engine import HAVE_HIGHS_BINDINGS
from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace
from repro.tvnep import CSigmaModel, greedy_csigma
from repro.tvnep.greedy import _link_flow_values
from repro.tvnep.warmstart import schedule_warm_start, validated_warm_start
from repro.workloads import small_scenario


@pytest.fixture(autouse=True)
def fresh_registry():
    # a scoped registry isolates cache stats (and all other counters)
    # from other tests — nothing to reset, nothing leaks out
    with use_registry(MetricsRegistry()) as registry:
        yield registry


def scenario_and_model(seed=0, num_requests=3, flexibility=1.0):
    scenario = small_scenario(seed, num_requests=num_requests).with_flexibility(
        flexibility
    )
    model = CSigmaModel(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings,
    )
    return scenario, model


def solution_schedule(scenario, solution):
    """``name -> (embedded, start, end)`` from a solved model; rejected
    requests are pinned to their earliest window (Definition 2.1 still
    needs times for them)."""
    by_name = {r.name: r for r in scenario.requests}
    schedule = {}
    for name, entry in solution.scheduled.items():
        if entry.embedded:
            schedule[name] = (True, entry.start, entry.end)
        else:
            request = by_name[name]
            schedule[name] = (
                False,
                request.earliest_start,
                request.earliest_start + request.duration,
            )
    return schedule


class TestScheduleWarmStart:
    def test_optimal_schedule_validates_and_matches_cold_solve(
        self, fresh_registry
    ):
        scenario, model = scenario_and_model()
        raw = model.solve_raw(backend="highs")
        solution = model.extract(raw)
        # link flows come from the previous solve — the schedule alone
        # does not determine them (greedy threads them the same way)
        warm = validated_warm_start(
            model, solution_schedule(scenario, solution), _link_flow_values(raw)
        )
        assert warm is not None
        assert fresh_registry.counter("warmstart.validated") == 1
        assert fresh_registry.counter("warmstart.discarded") == 0

        cold_trace, warm_trace = SolveTrace(), SolveTrace()
        with use_trace(cold_trace):
            cold = solve_bnb(model.model)
        with use_trace(warm_trace):
            warmed = solve_bnb(model.model, warm_start=warm)
        assert warmed.objective == pytest.approx(cold.objective)
        assert warmed.node_count <= cold.node_count
        # the trace agrees with the solution on both counts
        event = warm_trace.last("warm_start")
        assert event is not None and event["accepted"] is True
        assert fresh_registry.counter("warmstart.used") == 1
        assert (
            warm_trace.last("solve_end")["nodes"]
            <= cold_trace.last("solve_end")["nodes"]
        )

    def test_incomplete_schedule_returns_none(self):
        _, model = scenario_and_model()
        assert schedule_warm_start(model, {}) is None
        assert validated_warm_start(model, {}) is None

    def test_garbage_schedule_never_raises(self, fresh_registry):
        scenario, model = scenario_and_model()
        schedule = {r.name: (True, -1e9, 1e9) for r in scenario.requests}
        assert validated_warm_start(model, schedule) is None
        assert fresh_registry.counter("warmstart.discarded") == 1
        assert fresh_registry.counter("warmstart.validated") == 0


@pytest.mark.skipif(not HAVE_HIGHS_BINDINGS, reason="needs HiGHS bindings")
def test_greedy_hands_every_validated_warm_start_to_highs(fresh_registry):
    scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
    greedy_csigma(scenario.substrate, scenario.requests, scenario.node_mappings)
    validated = fresh_registry.counter("warmstart.validated")
    assert validated > 0
    assert fresh_registry.counter("warmstart.used") == validated
    assert fresh_registry.counter("warmstart.rejected") == 0


class TestGreedyCacheWins:
    def test_greedy_run_hits_the_standard_form_cache(self):
        # acceptance criterion: the warm-start validation compiles each
        # iteration's form once, the backend solve then reuses it — a
        # strictly positive hit rate over the whole greedy run
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        result = greedy_csigma(
            scenario.substrate, scenario.requests, scenario.node_mappings
        )
        assert result.solution is not None
        stats = standard_form_cache_stats()
        assert stats["hits"] > 0
        assert stats["hit_rate"] > 0.0
