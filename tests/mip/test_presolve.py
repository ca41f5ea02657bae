"""Tests of the branch-and-bound bound-tightening presolve."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mip import Model, ObjectiveSense, quicksum, solve_bnb, solve_highs
from repro.mip.bnb import BranchAndBoundSolver
from repro.mip.bnb.presolve import tighten_bounds


def presolved(model):
    form = model.to_standard_form()
    return form, tighten_bounds(form, form.lb, form.ub)


class TestTightening:
    def test_singleton_row_tightens_upper(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=100)
        m.add_constr(2 * x <= 10)
        form, result = presolved(m)
        assert result.feasible
        assert result.ub[x.index] == pytest.approx(5.0)

    def test_singleton_row_tightens_lower(self):
        m = Model()
        x = m.continuous_var("x", lb=-100, ub=100)
        m.add_constr(x >= 3)
        _, result = presolved(m)
        assert result.lb[x.index] == pytest.approx(3.0)

    def test_integral_rounding(self):
        m = Model()
        x = m.integer_var("x", lb=0, ub=10)
        m.add_constr(2 * x <= 7)
        _, result = presolved(m)
        assert result.ub[x.index] == 3.0  # floor(3.5)

    def test_propagation_chains(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=10)
        y = m.continuous_var("y", lb=0, ub=10)
        m.add_constr(x <= 2)
        m.add_constr(y <= x)  # needs x's new bound
        _, result = presolved(m)
        assert result.ub[y.index] == pytest.approx(2.0)
        assert result.rounds >= 1

    def test_big_m_binary_fixed(self):
        """Binary forced on via propagation through a big-M row."""
        m = Model()
        b = m.binary_var("b")
        x = m.continuous_var("x", lb=4, ub=10)
        m.add_constr(x <= 10 * b)  # x >= 4 forces b = 1
        _, result = presolved(m)
        assert result.lb[b.index] == 1.0

    def test_detects_infeasibility(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=1)
        m.add_constr(x >= 2)
        _, result = presolved(m)
        assert not result.feasible

    def test_detects_conflicting_rows(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=10)
        y = m.continuous_var("y", lb=0, ub=10)
        m.add_constr(x + y >= 15)
        m.add_constr(x + y <= 5)
        _, result = presolved(m)
        assert not result.feasible

    def test_idempotent_at_fixed_point(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=5)
        m.add_constr(x <= 5)
        _, result = presolved(m)
        assert result.tightenings == 0

    def test_original_arrays_untouched(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=100)
        m.add_constr(x <= 1)
        form = m.to_standard_form()
        before = form.ub.copy()
        tighten_bounds(form, form.lb, form.ub)
        assert np.array_equal(form.ub, before)


class TestSolverIntegration:
    def knapsack(self):
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(5)]
        m.add_constr(quicksum((i + 2) * x for i, x in enumerate(xs)) <= 8)
        m.set_objective(
            quicksum((i + 3) * x for i, x in enumerate(xs)),
            ObjectiveSense.MAXIMIZE,
        )
        return m

    def test_same_optimum_with_and_without_presolve(self):
        m = self.knapsack()
        with_presolve = BranchAndBoundSolver(presolve=True).solve(m)
        without = BranchAndBoundSolver(presolve=False).solve(m)
        assert with_presolve.objective == pytest.approx(without.objective)

    def test_presolve_proves_infeasibility_without_lp(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 2.0 - x)  # 2x >= 2 -> x = 1 ... feasible; build real one
        m2 = Model()
        y = m2.continuous_var("y", lb=0, ub=1)
        m2.add_constr(y >= 5)
        result = BranchAndBoundSolver(presolve=True).solve(m2)
        assert not result.has_solution
        assert result.node_count == 0  # caught before any LP

    def test_presolve_work_reaches_trace_and_registry(self):
        from repro.observability import MetricsRegistry, SolveTrace, use_registry
        from repro.observability.schema import validate_event

        m = self.knapsack()
        x = m.continuous_var("x", lb=4, ub=10)
        b = m.binary_var("b")
        m.add_constr(x <= 10 * b)  # x >= 4 forces b = 1
        form = m.to_standard_form()
        expected = tighten_bounds(form, form.lb, form.ub)
        trace = SolveTrace()
        registry = MetricsRegistry()
        with use_registry(registry):
            BranchAndBoundSolver().solve(m, trace=trace)
        event = trace.last("presolve")
        assert validate_event(event) == []
        assert event["rounds"] == expected.rounds
        assert event["rows_processed"] == expected.rows_processed > 0
        assert registry.counter("solver.presolve_rows") == expected.rows_processed


@st.composite
def random_bounded_milp(draw):
    n = draw(st.integers(2, 5))
    m = Model()
    xs = [m.integer_var(f"x{i}", lb=0, ub=draw(st.integers(1, 6))) for i in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        coefs = [draw(st.integers(-4, 4)) for _ in range(n)]
        rhs = draw(st.integers(-10, 20))
        if all(c == 0 for c in coefs):
            continue
        m.add_constr(quicksum(c * x for c, x in zip(coefs, xs)) <= rhs)
    m.set_objective(
        quicksum(draw(st.integers(-3, 5)) * x for x in xs),
        ObjectiveSense.MAXIMIZE,
    )
    return m


@settings(max_examples=25, deadline=None)
@given(random_bounded_milp())
def test_presolve_preserves_optimum(model):
    """Bound tightening must never change the MILP optimum."""
    try:
        highs = solve_highs(model)
    except Exception:
        return  # trivially infeasible constructions rejected by modeling
    bnb = solve_bnb(model)
    assert highs.status == bnb.status
    if highs.has_solution:
        assert highs.objective == pytest.approx(bnb.objective, abs=1e-6)


def raw_form(A, row_lb, row_ub, lb, ub, integrality):
    """Assemble a StandardForm directly (edge cases the modeling layer
    would reject or normalize away)."""
    import scipy.sparse as sp

    from repro.mip.expr import Variable, VarType
    from repro.mip.model import StandardForm

    n = len(lb)
    variables = [
        Variable(
            f"x{i}",
            lb=float(lb[i]),
            ub=float(ub[i]),
            vtype=VarType.INTEGER if integrality[i] else VarType.CONTINUOUS,
            index=i,
        )
        for i in range(n)
    ]
    return StandardForm(
        c=np.zeros(n),
        c0=0.0,
        A=sp.csr_matrix(np.asarray(A, dtype=float).reshape(-1, n)),
        row_lb=np.asarray(row_lb, dtype=float),
        row_ub=np.asarray(row_ub, dtype=float),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        integrality=np.asarray(integrality, dtype=float),
        sense_sign=1.0,
        variables=variables,
        constraint_names=[f"r{i}" for i in range(len(row_lb))],
    )


class TestEdgeCases:
    def test_empty_row_satisfiable_is_ignored(self):
        """An all-zero row with 0 inside its bounds changes nothing."""
        form = raw_form(
            A=[[0.0, 0.0]],
            row_lb=[-1.0],
            row_ub=[1.0],
            lb=[0.0, 0.0],
            ub=[5.0, 5.0],
            integrality=[0.0, 0.0],
        )
        result = tighten_bounds(form, form.lb, form.ub)
        assert result.feasible
        assert np.array_equal(result.lb, form.lb)
        assert np.array_equal(result.ub, form.ub)

    def test_empty_row_with_violated_bounds_is_infeasible(self):
        """An all-zero row demanding a nonzero activity proves infeasibility."""
        form = raw_form(
            A=[[0.0, 0.0]],
            row_lb=[2.0],
            row_ub=[3.0],
            lb=[0.0, 0.0],
            ub=[5.0, 5.0],
            integrality=[0.0, 0.0],
        )
        result = tighten_bounds(form, form.lb, form.ub)
        assert not result.feasible

    def test_input_bound_crossing_is_infeasible(self):
        """Starting bounds with lb > ub are reported infeasible, not NaN."""
        form = raw_form(
            A=[[1.0]],
            row_lb=[-np.inf],
            row_ub=[10.0],
            lb=[0.0],
            ub=[5.0],
            integrality=[0.0],
        )
        lb = form.lb.copy()
        lb[0] = 6.0  # crosses ub = 5
        result = tighten_bounds(form, lb, form.ub)
        assert not result.feasible

    def test_propagated_crossing_is_infeasible(self):
        """Rows forcing lb above ub during propagation stop the sweep."""
        form = raw_form(
            A=[[1.0], [1.0]],
            row_lb=[7.0, -np.inf],
            row_ub=[np.inf, 3.0],
            lb=[0.0],
            ub=[10.0],
            integrality=[0.0],
        )
        result = tighten_bounds(form, form.lb, form.ub)
        assert not result.feasible

    def test_integral_rounding_both_directions(self):
        """Fractional tightened bounds snap inward for integral columns."""
        form = raw_form(
            A=[[2.0], [-2.0]],
            row_lb=[-np.inf, -np.inf],
            row_ub=[7.0, -3.0],  # x <= 3.5 and x >= 1.5
            lb=[0.0],
            ub=[10.0],
            integrality=[1.0],
        )
        result = tighten_bounds(form, form.lb, form.ub)
        assert result.feasible
        assert result.ub[0] == 3.0  # floor(3.5)
        assert result.lb[0] == 2.0  # ceil(1.5)

    def test_integral_rounding_can_prove_infeasibility(self):
        """Rounding an integral window to empty proves infeasibility."""
        form = raw_form(
            A=[[4.0], [-4.0]],
            row_lb=[-np.inf, -np.inf],
            row_ub=[9.0, -5.0],  # 1.25 <= x <= 2.25 -> integral window empty? no: {2}
            lb=[0.0],
            ub=[10.0],
            integrality=[1.0],
        )
        result = tighten_bounds(form, form.lb, form.ub)
        assert result.feasible
        assert result.lb[0] == 2.0 and result.ub[0] == 2.0
        # now shrink the window so no integer survives: 1.25 <= x <= 1.75
        form2 = raw_form(
            A=[[4.0], [-4.0]],
            row_lb=[-np.inf, -np.inf],
            row_ub=[7.0, -5.0],
            lb=[0.0],
            ub=[10.0],
            integrality=[1.0],
        )
        result2 = tighten_bounds(form2, form2.lb, form2.ub)
        assert not result2.feasible


class TestInfiniteBounds:
    def test_unbounded_column_residuals(self):
        """Rows touching unbounded columns must not produce NaNs."""
        import warnings

        m = Model()
        x = m.continuous_var("x", lb=-np.inf, ub=np.inf)
        y = m.continuous_var("y", lb=0, ub=np.inf)
        z = m.continuous_var("z", lb=0, ub=5)
        m.add_constr(x + y + z <= 10)
        m.add_constr(x >= -3)
        form = m.to_standard_form()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = tighten_bounds(form, form.lb, form.ub)
        assert result.feasible
        # x >= -3 propagates; then x + y + z <= 10 bounds y: y <= 10 - (-3) - 0
        assert result.lb[x.index] == pytest.approx(-3.0)
        assert result.ub[y.index] == pytest.approx(13.0)

    def test_two_unbounded_terms_give_no_tightening(self):
        m = Model()
        x = m.continuous_var("x", lb=-np.inf, ub=np.inf)
        y = m.continuous_var("y", lb=-np.inf, ub=np.inf)
        m.add_constr(x + y <= 1)
        form = m.to_standard_form()
        result = tighten_bounds(form, form.lb, form.ub)
        assert result.feasible
        assert np.isinf(result.ub[x.index])
        assert np.isinf(result.ub[y.index])


# ----------------------------------------------------------------------
# differential parity against the frozen full-sweep loop
# ----------------------------------------------------------------------
_COEFS = st.one_of(
    st.sampled_from([-7.0, -2.0, -1.0, -0.5, 1.0 / 3.0, 0.1, 1.0, 2.0, 3.0, 1e3]),
    st.floats(-20.0, 20.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
)
_BOUNDS = st.one_of(
    st.sampled_from([-np.inf, -10.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 10.0, np.inf]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def sparse_forms(draw):
    """A raw sparse form plus starting bounds (possibly crossing)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 8))
    dense = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                dense[i, j] = draw(_COEFS)
    rows = [sorted((draw(_BOUNDS), draw(_BOUNDS))) for _ in range(m)]
    cols = [sorted((draw(_BOUNDS), draw(_BOUNDS))) for _ in range(n)]
    integrality = [float(draw(st.booleans())) for _ in range(n)]
    form = raw_form(
        A=dense,
        row_lb=[lo for lo, _ in rows],
        row_ub=[hi for _, hi in rows],
        lb=[lo for lo, _ in cols],
        ub=[hi for _, hi in cols],
        integrality=integrality,
    )
    lb, ub = form.lb.copy(), form.ub.copy()
    for j in range(n):
        if draw(st.integers(0, 9)) == 0:  # a column whose bounds cross
            lb[j], ub[j] = ub[j] + 1.0, lb[j]
    return form, lb, ub, draw(st.integers(1, 10))


def assert_reference_parity(form, lb, ub, max_rounds=10):
    from tests.mip._presolve_reference import tighten_bounds as reference

    # random forms reach inf - inf residuals; both loops warn the same
    with np.errstate(all="ignore"):
        expected = reference(form, lb, ub, max_rounds)
        got = tighten_bounds(form, lb, ub, max_rounds)
    assert got.lb.tobytes() == expected.lb.tobytes()
    assert got.ub.tobytes() == expected.ub.tobytes()
    assert got.feasible == expected.feasible
    assert got.rounds == expected.rounds
    assert got.tightenings == expected.tightenings
    return got


def scenario_forms(seed):
    from repro.tvnep import CSigmaModel, DeltaModel, SigmaModel, objectives
    from repro.workloads import small_scenario

    sc = small_scenario(seed, num_requests=8).with_flexibility(1.0)
    for cls in (DeltaModel, SigmaModel, CSigmaModel):
        model = cls(sc.substrate, sc.requests, fixed_mappings=sc.node_mappings)
        objectives.set_access_control(model)
        yield cls.__name__, model.model.to_standard_form()


class TestReferenceParity:
    """``tighten_bounds`` is byte-identical to the full-sweep loop."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_forms())
    def test_random_sparse_forms(self, case):
        form, lb, ub, max_rounds = case
        assert_reference_parity(form, lb, ub, max_rounds)

    @pytest.mark.parametrize("seed", range(8))
    def test_scenario_forms(self, seed):
        for name, form in scenario_forms(seed):
            result = assert_reference_parity(form, form.lb, form.ub)
            assert result.feasible, name
            # the screen keeps most rows away from the row-by-row code
            assert result.rows_processed < result.rounds * form.num_constraints

    @pytest.mark.parametrize(
        "row_hi, x0_ub, tightens",
        [(1000.0, 995.0, True), (5.0, 0.0, False)],
        ids=["tightening", "infeasibility"],
    )
    def test_summation_order_cannot_hide_a_change(self, row_hi, x0_ub, tightens):
        """The screen sums a row in another order than the row code.

        Here the two orders disagree by 8 on the activity of the fixed
        columns x1..x9 (1e16 + 1 + ... + 1 - 1e16).  In the row code's
        order the row tightens x0 or is infeasible; in the screen's it
        would do neither, so only the screen's margins flag it.
        """
        form = raw_form(
            A=[[1.0] * 10],
            row_lb=[-np.inf],
            row_ub=[row_hi],
            lb=[0.0, 1e16] + [1.0] * 7 + [-1e16],
            ub=[x0_ub, 1e16] + [1.0] * 7 + [-1e16],
            integrality=[0.0] * 10,
        )
        terms = form.A.data * form.lb  # the row's min-activity terms
        assert terms.sum() - sum(terms.tolist()) == 8.0
        result = assert_reference_parity(form, form.lb, form.ub)
        if tightens:
            assert result.ub[0] == row_hi - 8.0
        else:
            assert not result.feasible

    def test_rows_processed_counts_only_screened_rows(self):
        """A row no bound can move is screened out after round one."""
        form = raw_form(
            A=[[1.0, 0.0], [0.0, 1.0]],
            row_lb=[-np.inf, -np.inf],
            row_ub=[3.0, 100.0],  # tightens x0; vacuous for x1
            lb=[0.0, 0.0],
            ub=[10.0, 10.0],
            integrality=[0.0, 0.0],
        )
        result = assert_reference_parity(form, form.lb, form.ub)
        assert result.ub[0] == 3.0 and result.ub[1] == 10.0
        # round one processes row 0 only; round two re-screens row 0
        # (its column moved) and finds nothing to do
        assert result.rounds == 2
        assert result.rows_processed == 1
