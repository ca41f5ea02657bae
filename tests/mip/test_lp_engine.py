"""Tests of the incremental LP engine behind branch-and-bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.mip import Model, ObjectiveSense, quicksum
from repro.mip.bnb import BranchAndBoundSolver
from repro.mip.lp_engine import (
    HAVE_HIGHS_BINDINGS,
    HighspySession,
    ScipySession,
    default_session_spec,
    form_extends,
    make_session,
    reduced_cost_fixing,
)
from repro.mip.model import StandardForm
from repro.observability.metrics import MetricsRegistry, use_registry

needs_highs = pytest.mark.skipif(
    not HAVE_HIGHS_BINDINGS, reason="no usable HiGHS bindings"
)


def simple_lp():
    """max x + 2y s.t. x + y <= 4, 0 <= x,y <= 3 (optimum 7 at (1, 3))."""
    m = Model()
    x = m.continuous_var("x", lb=0, ub=3)
    y = m.continuous_var("y", lb=0, ub=3)
    m.add_constr(x + y <= 4)
    m.set_objective(x + 2 * y, ObjectiveSense.MAXIMIZE)
    return m.to_standard_form()


def knapsack(n=6):
    m = Model()
    xs = [m.binary_var(f"x{i}") for i in range(n)]
    m.add_constr(quicksum((i + 2) * x for i, x in enumerate(xs)) <= n + 3)
    m.set_objective(
        quicksum((2 * i + 3) * x for i, x in enumerate(xs)),
        ObjectiveSense.MAXIMIZE,
    )
    return m


class TestScipySession:
    def test_solves_and_reuses_buffer(self):
        form = simple_lp()
        session = ScipySession(form)
        buffer = session._bounds
        first = session.solve(form.lb.copy(), form.ub.copy())
        second = session.solve(form.lb.copy(), form.ub.copy())
        assert first.status == "optimal"
        assert form.user_objective(first.x) == pytest.approx(7.0)
        assert second.internal_obj == pytest.approx(first.internal_obj)
        # the (n, 2) bounds array is allocated once, not per solve
        assert session._bounds is buffer

    def test_bound_update_changes_answer(self):
        form = simple_lp()
        session = ScipySession(form)
        ub = form.ub.copy()
        ub[1] = 1.0  # y <= 1
        result = session.solve(form.lb.copy(), ub)
        assert form.user_objective(result.x) == pytest.approx(5.0)

    def test_detects_infeasible(self):
        form = simple_lp()
        lb = form.lb.copy()
        lb[:] = 3.0  # x = y = 3 violates x + y <= 4
        result = ScipySession(form).solve(lb, form.ub.copy())
        assert result.status == "infeasible"
        assert result.internal_obj == math.inf

    def test_reports_reduced_costs(self):
        form = simple_lp()
        result = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        assert result.reduced_costs is not None
        assert result.reduced_costs.shape == (form.num_vars,)

    def test_counts_cold_starts(self):
        form = simple_lp()
        registry = MetricsRegistry()
        with use_registry(registry):
            session = ScipySession(form)
            session.solve(form.lb.copy(), form.ub.copy())
            session.solve(form.lb.copy(), form.ub.copy(), basis=object())
        # linprog has no basis interface: everything is a cold start
        assert registry.counter("solver.lp_cold_starts") == 2
        assert registry.counter("solver.lp_hot_starts") == 0


@needs_highs
class TestHighspySession:
    def test_matches_scipy_on_lp(self):
        form = simple_lp()
        scipy_res = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        with HighspySession(form) as session:
            highs_res = session.solve(form.lb.copy(), form.ub.copy())
        assert highs_res.status == scipy_res.status
        assert highs_res.internal_obj == pytest.approx(scipy_res.internal_obj)

    def test_basis_hot_start(self):
        form = simple_lp()
        registry = MetricsRegistry()
        with use_registry(registry), HighspySession(form) as session:
            root = session.solve(form.lb.copy(), form.ub.copy())
            assert root.basis is not None and not root.hot
            ub = form.ub.copy()
            ub[1] = 1.0
            child = session.solve(form.lb.copy(), ub, basis=root.basis)
        assert child.hot
        assert form.user_objective(child.x) == pytest.approx(5.0)
        assert registry.counter("solver.lp_hot_starts") == 1
        assert registry.counter("solver.lp_cold_starts") == 1

    def test_detects_infeasible(self):
        form = simple_lp()
        lb = form.lb.copy()
        lb[:] = 3.0
        with HighspySession(form) as session:
            result = session.solve(lb, form.ub.copy())
        assert result.status == "infeasible"

    def test_differential_bound_sweep(self):
        """Scipy and HiGHS sessions agree across many bound updates."""
        form = knapsack().to_standard_form()
        scipy_session = ScipySession(form)
        with HighspySession(form) as highs_session:
            basis = None
            for j in range(form.num_vars):
                lb = form.lb.copy()
                ub = form.ub.copy()
                lb[j] = ub[j] = float(j % 2)  # fix one binary per step
                a = scipy_session.solve(lb, ub)
                b = highs_session.solve(lb, ub, basis=basis)
                basis = b.basis or basis
                assert a.status == b.status
                if a.status == "optimal":
                    assert a.internal_obj == pytest.approx(
                        b.internal_obj, abs=1e-7
                    )


class TestFactory:
    def test_scipy_spec(self):
        assert make_session(simple_lp(), "scipy").engine == "scipy"

    @needs_highs
    def test_highs_spec(self):
        with make_session(simple_lp(), "highs") as session:
            assert session.engine == "highspy"
            assert session.supports_basis

    def test_callable_spec(self):
        marker = []

        def build(form):
            session = ScipySession(form)
            marker.append(session)
            return session

        assert make_session(simple_lp(), build) is marker[0]

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            make_session(simple_lp(), "cplex")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_SESSION", "scipy")
        assert default_session_spec() == "scipy"
        monkeypatch.setenv("REPRO_LP_SESSION", "nonsense")
        assert default_session_spec() in ("scipy", "highs")


class TestReducedCostFixing:
    def test_fixes_provably_bad_columns(self):
        """With a zero gap every nonbasic column with |rc| > 0 is fixed."""
        form = knapsack().to_standard_form()
        root = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        lb = form.lb.copy()
        ub = form.ub.copy()
        fixed = reduced_cost_fixing(form, lb, ub, root, root.internal_obj)
        assert fixed >= 0
        # fixing is recorded by collapsing lb == ub
        assert int(np.count_nonzero(lb == ub)) >= fixed

    def test_noop_without_incumbent(self):
        form = knapsack().to_standard_form()
        root = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        lb, ub = form.lb.copy(), form.ub.copy()
        assert reduced_cost_fixing(form, lb, ub, root, math.inf) == 0
        assert np.array_equal(ub, form.ub)

    def test_noop_on_infeasible_root(self):
        form = knapsack().to_standard_form()
        bad = ScipySession(form).solve(form.lb.copy() + 10, form.ub.copy())
        lb, ub = form.lb.copy(), form.ub.copy()
        assert reduced_cost_fixing(form, lb, ub, bad, 0.0) == 0

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_never_changes_optimum(self, n):
        model = knapsack(n)
        with_fix = BranchAndBoundSolver(rc_fixing=True).solve(model)
        without = BranchAndBoundSolver(rc_fixing=False).solve(model)
        assert with_fix.status == without.status
        assert with_fix.objective == pytest.approx(without.objective)


class TestNodeCacheParity:
    @pytest.mark.parametrize("session_spec", ["scipy", "auto"])
    def test_same_tree_with_and_without_cache(self, session_spec):
        model = knapsack(7)
        cached = BranchAndBoundSolver(
            lp_session=session_spec, node_lp_cache=True
        ).solve(model)
        uncached = BranchAndBoundSolver(
            lp_session=session_spec, node_lp_cache=False
        ).solve(model)
        assert cached.objective == pytest.approx(uncached.objective)
        assert cached.node_count == uncached.node_count
        assert cached.status == uncached.status

    def test_engines_agree_on_milp(self):
        model = knapsack(7)
        scipy_res = BranchAndBoundSolver(lp_session="scipy").solve(model)
        auto_res = BranchAndBoundSolver(lp_session="auto").solve(model)
        assert scipy_res.objective == pytest.approx(auto_res.objective)
        assert scipy_res.status == auto_res.status


def cut_prone_form():
    """max x1+x2+x3 s.t. 2x1+2x2+2x3 <= 5 over binaries.

    The LP optimum (1, 1, 0.5) violates the cover cut
    ``x1 + x2 + x3 <= 2``, so cover separation always finds work here.
    """
    m = Model()
    xs = [m.binary_var(f"x{i}") for i in range(3)]
    m.add_constr(quicksum(2 * x for x in xs) <= 5)
    m.set_objective(quicksum(xs), ObjectiveSense.MAXIMIZE)
    return m.to_standard_form()


def form_with_cuts(form):
    from repro.mip.bnb.cover_cuts import (
        extend_form_with_cuts,
        separate_cover_cuts,
    )

    session = ScipySession(form)
    root = session.solve(form.lb.copy(), form.ub.copy())
    cuts = separate_cover_cuts(form, root.x)
    assert cuts, "the cut-prone instance must admit a violated cover cut"
    extended = extend_form_with_cuts(form, cuts)
    session.close()
    return extended


class TestFormExtends:
    def test_appended_block_satisfies_the_contract(self):
        form = cut_prone_form()
        extended = form_with_cuts(form)
        assert extended.num_constraints > form.num_constraints
        assert form_extends(form, extended)
        assert form_extends(form, form)

    def test_shrunk_or_reordered_forms_are_rejected(self):
        form = cut_prone_form()
        extended = form_with_cuts(form)
        # extension is one-directional
        assert not form_extends(extended, form)

    def test_modified_prefix_is_rejected(self):
        form = cut_prone_form()
        extended = form_with_cuts(form)
        tampered = StandardForm(
            c=extended.c,
            c0=extended.c0,
            A=extended.A.copy(),
            row_lb=extended.row_lb,
            row_ub=extended.row_ub,
            lb=extended.lb,
            ub=extended.ub,
            integrality=extended.integrality,
            sense_sign=extended.sense_sign,
            variables=extended.variables,
            constraint_names=extended.constraint_names,
        )
        tampered.A.data[0] += 1.0
        assert not form_extends(form, tampered)

    def test_changed_objective_is_rejected(self):
        form = cut_prone_form()
        extended = form_with_cuts(form)
        changed = StandardForm(
            c=extended.c.copy(),
            c0=extended.c0,
            A=extended.A,
            row_lb=extended.row_lb,
            row_ub=extended.row_ub,
            lb=extended.lb,
            ub=extended.ub,
            integrality=extended.integrality,
            sense_sign=extended.sense_sign,
            variables=extended.variables,
            constraint_names=extended.constraint_names,
        )
        changed.c[0] += 1.0
        assert not form_extends(form, changed)


class TestLoadAppended:
    def assert_absorbs_cut_rows(self, session_cls):
        form = cut_prone_form()
        extended = form_with_cuts(form)
        registry = MetricsRegistry()
        with use_registry(registry):
            session = session_cls(form)
            before = session.solve(form.lb.copy(), form.ub.copy())
            assert form.user_objective(before.x) == pytest.approx(2.5)
            assert session.load_appended(extended)
            after = session.solve(extended.lb.copy(), extended.ub.copy())
        # the cover cut tightens the LP bound from 2.5 to the true 2.0
        assert extended.user_objective(after.x) == pytest.approx(2.0)
        assert registry.counter("solver.lp_appends") == 1
        # cross-check against a cold session on the extended form
        fresh = session_cls(extended)
        cold = fresh.solve(extended.lb.copy(), extended.ub.copy())
        assert cold.internal_obj == pytest.approx(after.internal_obj)
        session.close()
        fresh.close()

    def test_scipy_absorbs_cut_rows(self):
        self.assert_absorbs_cut_rows(ScipySession)

    @needs_highs
    def test_highs_absorbs_cut_rows(self):
        self.assert_absorbs_cut_rows(HighspySession)

    def test_unrelated_form_is_refused(self):
        form = cut_prone_form()
        other = simple_lp()
        session = ScipySession(form)
        assert not session.load_appended(other)
        session.close()

    @needs_highs
    def test_highs_refuses_column_growth(self):
        form = cut_prone_form()
        grown = form_with_cuts(form)
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(3)]
        m.add_constr(quicksum(2 * x for x in xs) <= 5)
        m.set_objective(quicksum(xs), ObjectiveSense.MAXIMIZE)
        mark = m.mark()
        m.continuous_var("slacky", lb=0.0, ub=1.0)
        with_col = form.append_block(m.extend(mark))
        assert form_extends(form, with_col)
        session = HighspySession(form)
        assert not session.load_appended(with_col)
        session.close()
        # rows-only growth is absorbed (checked in the cut test above);
        # scipy has no in-memory model, so it takes column growth too
        scipy_session = ScipySession(form)
        assert scipy_session.load_appended(with_col)
        scipy_session.close()
        del grown

    def test_cut_rounds_reuse_the_session(self):
        """End-to-end: cut-and-branch absorbs cut rows via addRows."""
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(3)]
        m.add_constr(quicksum(2 * x for x in xs) <= 5)
        m.set_objective(quicksum(xs), ObjectiveSense.MAXIMIZE)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = BranchAndBoundSolver(
                cover_cuts=True, lp_session="scipy"
            ).solve(m)
        assert result.objective == pytest.approx(2.0)
        assert registry.counter("solver.lp_appends") >= 1


# ----------------------------------------------------------------------
# changed-columns-only bound pushes
# ----------------------------------------------------------------------
class PushEverySession(HighspySession):
    """Pushes every column bound on every solve, changed or not."""

    def _solve(self, lb, ub, basis):
        if self.form.num_vars:
            self._h.changeColsBounds(
                self.form.num_vars,
                np.arange(self.form.num_vars, dtype=np.int32),
                np.ascontiguousarray(lb, dtype=np.float64),
                np.ascontiguousarray(ub, dtype=np.float64),
            )
            self._lb[:] = lb
            self._ub[:] = ub
        return super()._solve(lb, ub, basis)


def csigma_instance():
    from repro.tvnep import CSigmaModel, objectives
    from repro.workloads import small_scenario

    sc = small_scenario(4, num_requests=6).with_flexibility(1.0)
    model = CSigmaModel(sc.substrate, sc.requests, fixed_mappings=sc.node_mappings)
    objectives.set_access_control(model)
    return model.model


def search_fingerprint(model, session, warm_start=None, **options):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = BranchAndBoundSolver(lp_session=session, **options).solve(
            model, warm_start=warm_start
        )
    counters = {
        name: registry.counter(name)
        for name in (
            "solver.nodes",
            "solver.lp_iterations",
            "solver.lp_hot_starts",
            "solver.cuts_added",
            "solver.rc_fixed_cols",
        )
    }
    return result.objective, counters


@needs_highs
class TestChangedColumnPushes:
    @pytest.mark.parametrize(
        "options",
        [{}, {"cover_cuts": True}, {"rounding_heuristic": False, "warm": True}],
        ids=["plain", "cover_cuts", "rc_fixing_after_warm_start"],
    )
    def test_same_search_as_pushing_every_column(self, options):
        model = csigma_instance()
        options = dict(options)
        warm = None
        if options.pop("warm", False):
            warm = BranchAndBoundSolver().solve(model).values
        default = search_fingerprint(model, "highs", warm, **options)
        every = search_fingerprint(model, PushEverySession, warm, **options)
        assert default == every
        counters = default[1]
        assert counters["solver.nodes"] > 1
        if "cover_cuts" in options:
            assert counters["solver.cuts_added"] > 0  # load_appended path
        if warm is not None:
            assert counters["solver.rc_fixed_cols"] > 0

    def test_reverting_and_infinite_bounds_match_a_fresh_session(self):
        """Bounds that move, revert and go to ±inf reach HiGHS exactly."""
        m = Model()
        xs = [m.continuous_var(f"x{i}", lb=-np.inf, ub=np.inf) for i in range(4)]
        for x in xs:  # rows keep the LP bounded whatever the column bounds
            m.add_constr(x <= 5)
            m.add_constr(x >= -5)
        m.add_constr(xs[0] + xs[1] <= 3)
        m.add_constr(xs[1] - xs[2] >= -1)
        m.add_constr(xs[2] + 2 * xs[3] <= 4)
        m.set_objective(
            xs[0] + 2 * xs[1] - 3 * xs[2] + 0.5 * xs[3], ObjectiveSense.MAXIMIZE
        )
        form = m.to_standard_form()
        free_lb, free_ub = form.lb.copy(), form.ub.copy()
        boxed_lb, boxed_ub = free_lb.copy(), free_ub.copy()
        boxed_lb[0], boxed_ub[0] = 0.0, 2.0
        capped_lb, capped_ub = boxed_lb.copy(), boxed_ub.copy()
        capped_ub[1] = 1.0
        capped_lb[3] = -np.inf
        infeasible_lb, infeasible_ub = free_lb.copy(), free_ub.copy()
        infeasible_lb[2] = 6.0  # beyond the row x2 <= 5
        sequence = [
            (free_lb, free_ub),
            (boxed_lb, boxed_ub),
            (capped_lb, capped_ub),
            (boxed_lb, boxed_ub),
            (free_lb, free_ub),
            (infeasible_lb, infeasible_ub),
            (capped_lb, capped_ub),
            (free_lb, free_ub),
        ]
        with HighspySession(form) as session:
            basis = None
            for lb, ub in sequence:
                got = session.solve(lb.copy(), ub.copy(), basis=basis)
                basis = got.basis or basis
                held = session._h.getLp()
                assert np.array_equal(np.asarray(held.col_lower_), lb)
                assert np.array_equal(np.asarray(held.col_upper_), ub)
                with HighspySession(form) as fresh:
                    want = fresh.solve(lb.copy(), ub.copy())
                assert got.status == want.status
                if want.status == "optimal":
                    assert got.internal_obj == pytest.approx(
                        want.internal_obj, abs=1e-9
                    )
                    assert got.x == pytest.approx(want.x, abs=1e-9)
