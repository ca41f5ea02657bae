"""HiGHS solver backend.

This is the default exact backend.  It solves:

* full MILPs (:func:`solve`), honouring time limits and gap tolerances so
  the paper's timeout-then-report-gap methodology (Figures 3-6) can be
  reproduced.  Models go straight to the HiGHS bindings that
  :mod:`repro.mip.lp_engine` discovers and self-tests (the optional
  ``highspy`` package or the copy scipy >= 1.15 vendors), and a
  validated warm start becomes HiGHS's MIP start (``setSolution``).
  Only where no usable bindings exist (``HAVE_HIGHS_BINDINGS`` false)
  does the solve go through :func:`scipy.optimize.milp`, which has no
  warm-start interface, and
* LP relaxations (:func:`solve_relaxation`), used for the
  relaxation-strength ablation comparing the Delta-, Sigma- and
  cSigma-Models and inside the pure-Python branch-and-bound solver.
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Mapping

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import SolverError
from repro.mip import lp_engine
from repro.mip.model import Model, StandardForm
from repro.mip.solution import Solution, SolveStatus
from repro.mip.warm_start import admit_warm_start
from repro.observability import current_trace, get_registry

__all__ = ["solve", "solve_relaxation", "HIGHS_NAME"]

HIGHS_NAME = "highs"

# scipy.optimize.milp status codes (documented in OptimizeResult.status);
# the bindings path maps HiGHS model statuses onto the same codes
_MILP_OPTIMAL = 0
_MILP_ITER_OR_TIME = 1
_MILP_INFEASIBLE = 2
_MILP_UNBOUNDED = 3
_MILP_NUMERICAL = 4


def solve(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
    budget=None,
    warm_start=None,
) -> Solution:
    """Solve a model with HiGHS branch-and-cut.

    Parameters
    ----------
    model:
        The model to solve.
    warm_start:
        Optional assignment believed feasible (a mapping or a vector,
        see :func:`~repro.mip.warm_start.coerce_assignment`).  It is
        validated against the compiled form first; a feasible one is
        handed to HiGHS as its MIP start, an invalid one is rejected
        with a warning and the solve proceeds cold.  Without usable
        HiGHS bindings the :func:`scipy.optimize.milp` fallback runs,
        which has no warm-start interface: the start is accepted there
        but not used.
    time_limit:
        Wall-clock limit in seconds; on expiry the best incumbent (if
        any) is returned with status ``FEASIBLE``, mirroring the paper's
        one-hour-timeout methodology.
    budget:
        Optional :class:`~repro.runtime.budget.SolveBudget`; the
        effective limit is the tighter of ``time_limit`` and the
        budget's remaining wall-clock time.  An already-expired budget
        short-circuits to ``NO_SOLUTION`` without calling the solver.
    mip_gap:
        Relative optimality gap at which the search stops.
    node_limit:
        Branch-and-bound node limit.
    presolve:
        Enable HiGHS presolve (default).  KNOWN ISSUE: on models whose
        optimum sits exactly on several simultaneously-binding big-M
        rows and variable bounds (boundary-tight schedules in the
        Sigma-Model), the bundled HiGHS presolve can cut the true
        optimum and "prove" a worse solution optimal.  Disabling
        presolve (or using the ``bnb`` backend) recovers it — see
        EXPERIMENTS.md, "A reproduction war story, part two".  HiGHS
        symmetry detection is always off: it cut the optimum of
        pinned-chain cSigma instances the same way.
    """
    if budget is not None:
        if budget.expired:
            trace = current_trace()
            if trace is not None:
                trace.emit("budget", state="exhausted", where="pre_solve")
            return Solution(
                status=SolveStatus.NO_SOLUTION,
                solver=HIGHS_NAME,
                message="wall-clock budget exhausted before solve",
            )
        time_limit = budget.clamp(time_limit)
    form = model.to_standard_form()
    return solve_standard_form(
        form,
        time_limit=time_limit,
        mip_gap=mip_gap,
        node_limit=node_limit,
        presolve=presolve,
        warm_start=warm_start,
    )


def solve_standard_form(
    form: StandardForm,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
    warm_start=None,
) -> Solution:
    """Solve an already-compiled :class:`StandardForm` with HiGHS."""
    trace = current_trace()
    metrics = get_registry()
    metrics.inc("solver.solves")
    if trace is not None:
        trace.emit(
            "solve_start",
            solver=HIGHS_NAME,
            num_vars=form.num_vars,
            num_constraints=form.num_constraints,
            num_integral=int(np.count_nonzero(form.integrality)),
        )
    if form.num_vars == 0:
        # a model without variables is trivially optimal (the modeling
        # layer already rejected any violated constant constraint)
        if trace is not None:
            trace.emit(
                "solve_end",
                solver=HIGHS_NAME,
                status=SolveStatus.OPTIMAL.value,
                nodes=0,
                objective=form.c0,
                bound=form.c0,
            )
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=form.c0,
            values={},
            best_bound=form.c0,
            solver=HIGHS_NAME,
            message="empty model",
        )

    limits = (time_limit, mip_gap, node_limit, presolve)
    bindings = lp_engine._HIGHS_MOD is not None
    start_x = None
    if bindings and warm_start is not None:
        # HiGHS never sees a start that failed validation
        start_x = admit_warm_start(form, warm_start)
    start = time.perf_counter()
    if bindings:
        code, x, dual, node_count, message = _run_bindings(form, *limits, start_x)
    else:
        code, x, dual, node_count, message = _run_milp(form, *limits)
    runtime = time.perf_counter() - start

    status = _interpret_status(code, x is not None)
    values: dict = {}
    objective = math.nan
    if x is not None:
        x = _snap_integrality(np.asarray(x, dtype=float), form)
        values = {var: float(x[i]) for i, var in enumerate(form.variables)}
        objective = form.user_objective(x)

    best_bound = math.nan
    if dual is not None and math.isfinite(dual):
        best_bound = form.user_bound(float(dual))
    elif status is SolveStatus.OPTIMAL and x is not None:
        best_bound = objective

    metrics.inc("solver.nodes", node_count)
    metrics.add_ms("phase.solve", runtime * 1000.0)
    if trace is not None:
        trace.emit(
            "solve_end",
            solver=HIGHS_NAME,
            status=status.value,
            nodes=node_count,
            objective=objective,
            bound=best_bound,
        )
    return Solution(
        status=status,
        objective=objective,
        values=values,
        best_bound=best_bound,
        runtime=runtime,
        node_count=node_count,
        solver=HIGHS_NAME,
        message=message,
    )


def _run_bindings(form, time_limit, mip_gap, node_limit, presolve, start_x):
    """One MIP solve on a fresh bindings ``Highs`` instance.

    Returns ``(milp status code, x or None, dual bound or None, nodes,
    message)`` with :func:`scipy.optimize.milp`'s conventions: a
    solution is reported for optimal solves and for limit stops that
    found an incumbent, the dual bound and node count only alongside
    a solution.
    """
    mod = lp_engine._HIGHS_MOD
    model_status = mod.HighsModelStatus
    h = lp_engine._HIGHS_CLS()
    try:
        h.setOptionValue("output_flag", False)
        h.setOptionValue("mip_rel_gap", float(mip_gap))
        h.setOptionValue("mip_detect_symmetry", False)
        if not presolve:
            h.setOptionValue("presolve", "off")
        if time_limit is not None:
            h.setOptionValue("time_limit", float(time_limit))
        if node_limit is not None:
            h.setOptionValue("mip_max_nodes", int(node_limit))
        lp = lp_engine.highs_lp(form, integral=True)
        if h.passModel(lp) == mod.HighsStatus.kError:
            status = model_status.kModelError
        else:
            if start_x is not None:
                solution = mod.HighsSolution()
                solution.col_value = start_x
                h.setSolution(solution)
            h.run()
            status = h.getModelStatus()
        info = h.getInfo()
        is_mip = bool(form.integrality.any())
        limit_stop = status in (
            model_status.kTimeLimit,
            model_status.kIterationLimit,
            model_status.kSolutionLimit,
        )
        has_x = status == model_status.kOptimal or (
            is_mip
            and limit_stop
            and info.objective_function_value != mod.kHighsInf
        )
        x = np.array(h.getSolution().col_value) if has_x else None
        dual = nodes = None
        if is_mip and has_x:
            dual = float(info.mip_dual_bound)
            nodes = int(info.mip_node_count)
        message = h.modelStatusToString(status)
    finally:
        h.clear()
    code = {
        model_status.kOptimal: _MILP_OPTIMAL,
        model_status.kTimeLimit: _MILP_ITER_OR_TIME,
        model_status.kIterationLimit: _MILP_ITER_OR_TIME,
        model_status.kInfeasible: _MILP_INFEASIBLE,
        model_status.kModelError: _MILP_INFEASIBLE,
        model_status.kUnbounded: _MILP_UNBOUNDED,
    }.get(status, _MILP_NUMERICAL)
    return code, x, dual, max(nodes or 0, 0), message


def _run_milp(form, time_limit, mip_gap, node_limit, presolve):
    """The same solve through :func:`scipy.optimize.milp` (no bindings)."""
    options: dict[str, object] = {
        "mip_rel_gap": mip_gap,
        "disp": False,
        "mip_detect_symmetry": False,
    }
    if not presolve:
        options["presolve"] = False
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    try:
        with warnings.catch_warnings():
            # milp forwards options outside its own list to HiGHS and
            # warns about them
            warnings.filterwarnings("ignore", message="Unrecognized options")
            res = milp(
                c=form.c,
                constraints=_linear_constraints(form),
                integrality=form.integrality,
                bounds=Bounds(form.lb, form.ub),
                options=options,
            )
    except Exception as exc:  # pragma: no cover - defensive
        raise SolverError(f"HiGHS milp failed: {exc}") from exc
    return (
        res.status,
        res.x,
        getattr(res, "mip_dual_bound", None),
        int(getattr(res, "mip_node_count", 0) or 0),
        str(getattr(res, "message", "")),
    )


def solve_relaxation(
    model: Model,
    fixed: Mapping | None = None,
) -> Solution:
    """Solve the LP relaxation of a model (integrality dropped).

    Parameters
    ----------
    model:
        The model whose relaxation to solve.
    fixed:
        Optional ``Variable -> value`` mapping of temporary bound
        fixings applied on top of the model (used by branch-and-bound
        without mutating the model).
    """
    form = model.to_standard_form()
    lb = form.lb.copy()
    ub = form.ub.copy()
    if fixed:
        for var, value in fixed.items():
            lb[var.index] = value
            ub[var.index] = value
    return solve_relaxation_arrays(form, lb, ub)


def _relaxation_session(form: StandardForm):
    """The memoized per-form LP session used for relaxation solves.

    Repeated relaxation solves over one compiled form (the relaxation-
    strength ablation, feasibility probes, the enumerative greedy) share
    one :class:`~repro.mip.lp_engine.ScipySession`, so the (A_ub, A_eq)
    split and the bounds buffer are built once per form instead of once
    per call.  The scipy engine is used deliberately: it preserves the
    historical ``linprog`` semantics (statuses, vertices) exactly.
    """
    session = getattr(form, "_relaxation_session_cache", None)
    if session is None:
        from repro.mip.lp_engine import ScipySession

        session = ScipySession(form)
        form._relaxation_session_cache = session
    return session


def solve_relaxation_arrays(
    form: StandardForm, lb: np.ndarray, ub: np.ndarray
) -> Solution:
    """LP relaxation of a standard form with explicit bound arrays.

    This is the hot path of relaxation-based probes: the constraint
    matrix is reused across calls and only the bounds change, so the
    solve goes through the per-form cached LP session.
    """
    start = time.perf_counter()
    outcome = _relaxation_session(form).solve(lb, ub)
    runtime = time.perf_counter() - start
    get_registry().add_ms("phase.lp_total", runtime * 1000.0)

    if outcome.status == "optimal":
        x = outcome.x
        objective = form.user_objective(x)
        values = {var: float(x[i]) for i, var in enumerate(form.variables)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            values=values,
            best_bound=objective,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    if outcome.status == "infeasible":
        return Solution(
            status=SolveStatus.INFEASIBLE,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    if outcome.status == "unbounded":
        return Solution(
            status=SolveStatus.UNBOUNDED,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    return Solution(
        status=SolveStatus.ERROR,
        runtime=runtime,
        solver=f"{HIGHS_NAME}-lp",
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _linear_constraints(form: StandardForm) -> list[LinearConstraint]:
    if form.num_constraints == 0:
        return []
    return [LinearConstraint(form.A, form.row_lb, form.row_ub)]


def _interpret_status(code: int, has_x: bool) -> SolveStatus:
    if code == _MILP_OPTIMAL:
        return SolveStatus.OPTIMAL
    if code == _MILP_ITER_OR_TIME:
        return SolveStatus.FEASIBLE if has_x else SolveStatus.NO_SOLUTION
    if code == _MILP_INFEASIBLE:
        return SolveStatus.INFEASIBLE
    if code == _MILP_UNBOUNDED:
        return SolveStatus.UNBOUNDED
    # numerical trouble: keep the incumbent when one exists
    return SolveStatus.FEASIBLE if has_x else SolveStatus.ERROR


def _snap_integrality(x: np.ndarray, form: StandardForm) -> np.ndarray:
    """Round integral columns that are within solver tolerance of integers."""
    mask = form.integrality.astype(bool)
    if mask.any():
        snapped = np.round(x[mask])
        close = np.abs(x[mask] - snapped) <= 1e-5
        x = x.copy()
        vals = x[mask]
        vals[close] = snapped[close]
        x[mask] = vals
    return x


def _lp_data(form: StandardForm):
    """Split the two-sided row system into (A_ub, b_ub, A_eq, b_eq).

    The result is cached on the form instance because branch-and-bound
    solves thousands of LP relaxations over the same matrix, varying
    only the variable bounds.
    """
    cached = getattr(form, "_lp_data_cache", None)
    if cached is not None:
        return cached

    import scipy.sparse as sp

    eq = form.row_lb == form.row_ub
    ineq = ~eq
    A_ub = b_ub = A_eq = b_eq = None
    if eq.any():
        A_eq = form.A[eq]
        b_eq = form.row_lb[eq]
    if ineq.any():
        A = form.A[ineq]
        lo = form.row_lb[ineq]
        hi = form.row_ub[ineq]
        blocks = []
        rhs = []
        finite_hi = np.isfinite(hi)
        if finite_hi.any():
            blocks.append(A[finite_hi])
            rhs.append(hi[finite_hi])
        finite_lo = np.isfinite(lo)
        if finite_lo.any():
            blocks.append(-A[finite_lo])
            rhs.append(-lo[finite_lo])
        if blocks:
            A_ub = sp.vstack(blocks).tocsr()
            b_ub = np.concatenate(rhs)
    result = (A_ub, b_ub, A_eq, b_eq)
    form._lp_data_cache = result
    return result
