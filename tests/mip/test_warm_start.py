"""Warm starts: coercion, validation, bnb incumbent seeding, HiGHS MIP starts.

The contract under test: a *feasible* warm start never yields a worse
incumbent and never costs extra branch-and-bound nodes; an *invalid*
one is rejected with a warning — never silently used.  Both MIP
backends run the same admission gate, so the acceptance, rejection and
telemetry assertions loop over ``BACKENDS``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.mip import (
    Model,
    ObjectiveSense,
    SolveStatus,
    quicksum,
    solve,
    solve_bnb,
)
from repro.mip.lp_engine import HAVE_HIGHS_BINDINGS
from repro.mip.warm_start import coerce_assignment, validate_assignment
from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace


#: the backends that take warm starts through ``admit_warm_start``
#: (``highs`` only on its bindings: the ``milp`` fallback cannot)
BACKENDS = ("bnb", "highs") if HAVE_HIGHS_BINDINGS else ("bnb",)


def knapsack(weights, profits, capacity):
    m = Model("knap")
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(
        quicksum(w * x for w, x in zip(weights, xs)) <= capacity, name="cap"
    )
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    return m, xs


class TestCoerce:
    def test_variable_keys(self):
        m, xs = knapsack([2, 3, 4], [3, 4, 5], 5)
        form = m.to_standard_form()
        x = coerce_assignment(form, {xs[0]: 1.0, xs[1]: 1.0})
        assert x is not None
        # missing variables default to 0 clamped into bounds
        np.testing.assert_allclose(x, [1.0, 1.0, 0.0])

    def test_name_keys(self):
        m, _ = knapsack([2, 3, 4], [3, 4, 5], 5)
        form = m.to_standard_form()
        x = coerce_assignment(form, {"x2": 1.0})
        np.testing.assert_allclose(x, [0.0, 0.0, 1.0])

    def test_unknown_name_uninterpretable(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        assert coerce_assignment(m.to_standard_form(), {"nope": 1.0}) is None

    def test_foreign_variable_uninterpretable(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        other = Model()
        alien = other.binary_var("alien")
        assert coerce_assignment(m.to_standard_form(), {alien: 1.0}) is None

    def test_vector(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        form = m.to_standard_form()
        x = coerce_assignment(form, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [1.0, 0.0])
        assert coerce_assignment(form, np.array([1.0])) is None
        assert coerce_assignment(form, [1.0, np.nan]) is None

    def test_non_numeric_value(self):
        m, xs = knapsack([2, 3], [3, 4], 5)
        assert (
            coerce_assignment(m.to_standard_form(), {xs[0]: "huh"}) is None
        )


class TestValidate:
    def test_feasible_point_passes(self):
        m, _ = knapsack([2, 3, 4], [3, 4, 5], 5)
        form = m.to_standard_form()
        assert validate_assignment(form, np.array([1.0, 1.0, 0.0])) is None

    def test_near_integral_values_snap(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        form = m.to_standard_form()
        x = np.array([0.999999, 1e-7])
        assert validate_assignment(form, x) is None
        np.testing.assert_allclose(x, [1.0, 0.0])

    def test_fractional_integral_rejected(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        reason = validate_assignment(m.to_standard_form(), np.array([0.5, 0.0]))
        assert reason is not None and "fractional" in reason

    def test_out_of_bounds_rejected(self):
        m, _ = knapsack([2, 3], [3, 4], 5)
        reason = validate_assignment(m.to_standard_form(), np.array([2.0, 0.0]))
        assert reason is not None and "outside" in reason

    def test_violated_row_rejected(self):
        m, _ = knapsack([2, 3], [3, 4], 4)
        reason = validate_assignment(m.to_standard_form(), np.array([1.0, 1.0]))
        assert reason is not None and "cap" in reason


class TestBnbWarmStart:
    @pytest.mark.parametrize("capacity", [5, 9, 12])
    def test_never_worse_and_no_more_nodes(self, capacity):
        m, _ = knapsack([2, 3, 4, 5, 7], [3, 4, 5, 6, 9], capacity)
        cold = solve_bnb(m)
        warm = solve_bnb(m, warm_start=cold.values)
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.node_count <= cold.node_count

    def test_incumbent_survives_node_starvation(self):
        # even when the search is cut off immediately, the warm start is
        # the incumbent: the solver never reports worse than it
        m, xs = knapsack([3, 5, 7, 4, 6], [4, 7, 9, 5, 8], 12)
        for backend in BACKENDS:
            warm = solve(
                m,
                backend=backend,
                warm_start={xs[0]: 1.0, xs[3]: 1.0},
                node_limit=1,
            )
            assert warm.has_solution, backend
            assert warm.objective >= 9.0 - 1e-9, backend

    def _assert_rejected_cold_optimum(self, caplog, model, warm_start):
        for backend in BACKENDS:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.runtime"):
                sol = solve(model, backend=backend, warm_start=warm_start)
            assert "rejecting invalid warm start" in caplog.text, backend
            assert sol.status is SolveStatus.OPTIMAL, backend
            assert sol.objective == pytest.approx(7.0), backend

    def test_infeasible_warm_start_rejected(self, caplog):
        m, xs = knapsack([2, 3, 4], [3, 4, 5], 5)
        self._assert_rejected_cold_optimum(caplog, m, {x: 1.0 for x in xs})

    def test_fractional_warm_start_rejected(self, caplog):
        m, xs = knapsack([2, 3, 4], [3, 4, 5], 5)
        self._assert_rejected_cold_optimum(caplog, m, {xs[0]: 0.5})

    def test_uninterpretable_warm_start_rejected(self, caplog):
        m, _ = knapsack([2, 3, 4], [3, 4, 5], 5)
        self._assert_rejected_cold_optimum(caplog, m, {"nope": 1.0})

    def test_infeasible_model_stays_infeasible(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        for backend in BACKENDS:
            sol = solve(m, backend=backend, warm_start={x: 1.0})
            assert sol.status is SolveStatus.INFEASIBLE, backend


@pytest.mark.skipif(not HAVE_HIGHS_BINDINGS, reason="needs HiGHS bindings")
class TestHighsMipStart:
    def test_start_is_the_incumbent_when_time_runs_out_at_once(self):
        # with no time to search, HiGHS can only report its MIP start
        m, xs = knapsack([3, 5, 7, 4, 6], [4, 7, 9, 5, 8], 12)
        cold = solve(m, backend="highs", time_limit=0.0)
        warm = solve(
            m, backend="highs", time_limit=0.0, warm_start={xs[0]: 1.0, xs[3]: 1.0}
        )
        assert cold.status is SolveStatus.NO_SOLUTION
        assert warm.status is SolveStatus.FEASIBLE
        assert warm.objective == pytest.approx(9.0)


class TestWarmStartTelemetry:
    """The solve trace states *whether* and *why* a warm start was used."""

    def _traced_solve(self, model, backend="bnb", **kwargs):
        registry, trace = MetricsRegistry(), SolveTrace()
        with use_registry(registry), use_trace(trace):
            solution = solve(model, backend=backend, **kwargs)
        return solution, registry, trace

    def test_accepted_warm_start_reported_in_trace(self):
        m, _ = knapsack([2, 3, 4, 5, 7], [3, 4, 5, 6, 9], 9)
        for backend in BACKENDS:
            cold, cold_reg, cold_trace = self._traced_solve(m, backend)
            warm, warm_reg, warm_trace = self._traced_solve(
                m, backend, warm_start=cold.values
            )
            event = warm_trace.last("warm_start")
            assert event is not None and event["accepted"] is True, backend
            assert event["objective"] == pytest.approx(cold.objective)
            assert warm.objective == pytest.approx(cold.objective)
            assert warm_reg.counter("warmstart.used") == 1, backend
            assert warm_reg.counter("warmstart.rejected") == 0, backend
            # cold solves say nothing about warm starts
            assert cold_trace.last("warm_start") is None, backend
            assert cold_reg.counter("warmstart.used") == 0, backend
            if backend == "bnb":
                # the incumbent seeded from the warm start is on record too
                sources = [e["source"] for e in warm_trace.select("incumbent")]
                assert sources[0] == "warm_start"

    def test_warm_solve_reports_no_more_nodes_than_cold(self):
        m, _ = knapsack([2, 3, 4, 5, 7], [3, 4, 5, 6, 9], 12)
        cold, _, cold_trace = self._traced_solve(m)
        _, _, warm_trace = self._traced_solve(m, warm_start=cold.values)
        cold_nodes = cold_trace.last("solve_end")["nodes"]
        warm_nodes = warm_trace.last("solve_end")["nodes"]
        assert warm_nodes <= cold_nodes

    def test_rejected_warm_start_reported_with_reason(self, caplog):
        m, xs = knapsack([2, 3, 4], [3, 4, 5], 5)
        for backend in BACKENDS:
            with caplog.at_level(logging.WARNING, logger="repro.runtime"):
                _, registry, trace = self._traced_solve(
                    m, backend, warm_start={x: 1.0 for x in xs}
                )
            event = trace.last("warm_start")
            assert event is not None and event["accepted"] is False, backend
            assert event["reason"]
            assert registry.counter("warmstart.rejected") == 1, backend
            assert registry.counter("warmstart.used") == 0, backend
