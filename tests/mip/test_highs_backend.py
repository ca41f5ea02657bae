"""Tests of the HiGHS backend (MILP + LP relaxation).

MILPs go through the HiGHS bindings; ``TestMilpFallback`` takes the
bindings away and checks that the :func:`scipy.optimize.milp` adapter
gives the same answers.
"""

from __future__ import annotations

import math

import pytest

from repro.mip import (
    Model,
    ObjectiveSense,
    SolveStatus,
    highs_backend,
    lp_engine,
    quicksum,
    solve_highs,
    solve_relaxation,
)
from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace


def knapsack(weights, profits, capacity):
    m = Model("knapsack")
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    return m, xs


class TestMilp:
    def test_knapsack_optimum(self):
        m, xs = knapsack([2, 3, 4, 5], [3, 4, 5, 6], 5)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)
        chosen = [i for i, x in enumerate(xs) if sol.rounded(x) == 1]
        assert chosen == [0, 1]

    def test_minimization(self):
        m = Model()
        x = m.integer_var("x", lb=0, ub=10)
        m.add_constr(2 * x >= 7)
        m.set_objective(x, ObjectiveSense.MINIMIZE)
        sol = solve_highs(m)
        assert sol.rounded(x) == 4

    def test_infeasible(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.has_solution

    def test_unbounded(self):
        m = Model()
        x = m.continuous_var("x", lb=0)
        m.set_objective(x, ObjectiveSense.MAXIMIZE)
        sol = solve_highs(m)
        assert sol.status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_objective_constant_carried(self):
        m = Model()
        x = m.binary_var("x")
        m.set_objective(x + 10, ObjectiveSense.MAXIMIZE)
        sol = solve_highs(m)
        assert sol.objective == pytest.approx(11.0)

    def test_gap_zero_when_optimal(self):
        m, _ = knapsack([1, 2], [1, 2], 3)
        sol = solve_highs(m)
        assert sol.gap == 0.0
        assert sol.is_optimal

    def test_value_of_expression(self):
        m, xs = knapsack([2, 3], [3, 4], 5)
        sol = solve_highs(m)
        assert sol.value(3 * xs[0] + 4 * xs[1]) == pytest.approx(sol.objective)

    def test_no_value_without_solution(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        sol = solve_highs(m)
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            sol.value(x)


def integer_cover():
    m = Model()
    x = m.integer_var("x", lb=0, ub=10)
    m.add_constr(2 * x >= 7)
    m.set_objective(x, ObjectiveSense.MINIMIZE)
    return m


def infeasible_binary():
    m = Model()
    x = m.binary_var("x")
    m.add_constr(x >= 0.4)
    m.add_constr(x <= 0.6)
    return m


def unbounded_lp():
    m = Model()
    x = m.continuous_var("x", lb=0)
    m.set_objective(x, ObjectiveSense.MAXIMIZE)
    return m


def continuous_lp():
    m = Model()
    x = m.continuous_var("x", lb=0, ub=4)
    y = m.continuous_var("y", lb=0, ub=4)
    m.add_constr(x + 2 * y <= 5)
    m.set_objective(3 * x + y + 1, ObjectiveSense.MAXIMIZE)
    return m


#: one model per status and objective shape the solve cases above cover
FALLBACK_CASES = {
    "knapsack": lambda: knapsack([2, 3, 4, 5], [3, 4, 5, 6], 5)[0],
    "integer_cover": integer_cover,
    "infeasible": infeasible_binary,
    "unbounded": unbounded_lp,
    "continuous": continuous_lp,
}


def same_number(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)


@pytest.fixture
def milp_calls(monkeypatch):
    """Count the backend's calls into :func:`scipy.optimize.milp`."""
    calls = []
    real = highs_backend.milp

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_backend, "milp", spy)
    return calls


def drop_bindings(monkeypatch):
    monkeypatch.setattr(lp_engine, "_HIGHS_MOD", None)
    monkeypatch.setattr(lp_engine, "HAVE_HIGHS_BINDINGS", False)


class TestMilpFallback:
    @pytest.mark.skipif(
        not lp_engine.HAVE_HIGHS_BINDINGS, reason="needs HiGHS bindings"
    )
    @pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
    def test_same_answer_as_bindings(self, case, monkeypatch, milp_calls):
        on_bindings = solve_highs(FALLBACK_CASES[case]())
        assert milp_calls == []
        drop_bindings(monkeypatch)
        on_milp = solve_highs(FALLBACK_CASES[case]())
        assert len(milp_calls) == 1
        assert on_milp.status is on_bindings.status
        assert same_number(on_milp.objective, on_bindings.objective)
        assert same_number(on_milp.best_bound, on_bindings.best_bound)

    def test_warm_start_accepted_but_unused(self, monkeypatch, milp_calls):
        # a zero time limit leaves HiGHS nothing but its MIP start; the
        # milp adapter cannot pass one, so it ends without a solution
        m, xs = knapsack([3, 5, 7, 4, 6], [4, 7, 9, 5, 8], 12)
        drop_bindings(monkeypatch)
        registry, trace = MetricsRegistry(), SolveTrace()
        with use_registry(registry), use_trace(trace):
            sol = solve_highs(
                m, warm_start={xs[0]: 1.0, xs[3]: 1.0}, time_limit=0.0
            )
        assert len(milp_calls) == 1
        assert sol.status is SolveStatus.NO_SOLUTION
        assert registry.counter("warmstart.used") == 0
        assert registry.counter("warmstart.rejected") == 0
        assert trace.last("warm_start") is None
        # and with enough time the start changes nothing
        assert solve_highs(m, warm_start={xs[0]: 1.0}).objective == pytest.approx(16.0)


class TestRelaxation:
    def test_relaxation_bounds_milp(self):
        m, _ = knapsack([2, 3, 4], [3, 4, 5], 5)
        milp = solve_highs(m)
        lp = solve_relaxation(m)
        assert lp.status is SolveStatus.OPTIMAL
        assert lp.objective >= milp.objective - 1e-9

    def test_relaxation_fractional(self):
        m, xs = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m)
        # LP takes item 1 fully and 1/2 of item 0
        assert lp.objective == pytest.approx(5 + 3 / 2 * (1 / 3) * 2, abs=1.0)
        values = [lp.value(x) for x in xs]
        assert any(0.01 < v < 0.99 for v in values)

    def test_relaxation_with_fixings(self):
        m, xs = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m, fixed={xs[1]: 0.0})
        assert lp.value(xs[1]) == pytest.approx(0.0)
        assert lp.objective == pytest.approx(3.0)

    def test_relaxation_infeasible(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=1)
        m.add_constr(x >= 2)
        lp = solve_relaxation(m)
        assert lp.status is SolveStatus.INFEASIBLE


class TestSolutionObject:
    def test_summary_renders(self):
        m, _ = knapsack([1], [1], 1)
        sol = solve_highs(m)
        text = sol.summary()
        assert "optimal" in text

    def test_rounded_rejects_fractional(self):
        m, _ = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m)
        from repro.exceptions import SolverError

        fractional = [
            v for v in lp.values if 0.01 < lp.values[v] < 0.99
        ]
        assert fractional
        with pytest.raises(SolverError):
            lp.rounded(fractional[0])

    def test_value_map(self):
        m, xs = knapsack([1, 1], [1, 1], 2)
        sol = solve_highs(m)
        mapped = sol.value_map({"a": xs[0], "b": xs[1]})
        assert set(mapped) == {"a", "b"}

    def test_relative_gap_infinite_for_nan(self):
        from repro.mip import relative_gap

        assert math.isinf(relative_gap(math.nan, 1.0))
        assert math.isinf(relative_gap(1.0, math.inf))
        assert relative_gap(10.0, 11.0) == pytest.approx(0.1)
