"""The heavy-hitters hybrid the paper's conclusion sketches.

    "[the greedy] could also be used in combination with the optimal
    algorithms, e.g., for allocating many smaller VNets while more
    rigorous optimizations are performed on the resource-intensive
    VNets (the 'heavy-hitters')."  — Sec. VIII

:func:`hybrid_heavy_hitters` implements exactly that division of
labor:

1. split the request set by revenue (``d_R * sum_v c_R(v)``): the top
   ``heavy_fraction`` are *heavy-hitters*, the rest are *small*;
2. solve the heavy-hitters **exactly** with the cSigma-Model (access
   control), obtaining their accept/reject decisions and schedules;
3. insert the small requests **greedily** (earliest-start order, each
   as one cSigma solve over the accepted requests, pinned, plus the
   candidate — the same per-iteration machinery as Algorithm
   cSigma^G_A, which leaves rejected requests out of the model).

The result is always feasible, dominates pure greedy whenever the
heavy-hitters carry most of the revenue (they get the optimal
treatment), and costs one moderately sized exact solve plus cheap
greedy iterations instead of one big exact solve.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ModelingError, SolverError, ValidationError
from repro.mip.model import ObjectiveSense
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.runtime.budget import SolveBudget
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.greedy import (
    _earliest_slot,
    _link_flow_values,
    _pinned_schedule,
    _reconcile,
    _with_horizon,
    solve_raw_warm,
)
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.tvnep.solution import TemporalSolution
from repro.tvnep.warmstart import validated_warm_start
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["HybridResult", "hybrid_heavy_hitters"]

logger = logging.getLogger("repro.runtime")


@dataclass
class HybridResult:
    """Outcome of the heavy-hitters hybrid.

    Attributes
    ----------
    solution:
        Final temporal solution over all requests.
    heavy_names / small_names:
        The revenue split used.
    exact_runtime:
        Seconds spent on the heavy-hitters' exact solve.
    greedy_runtimes:
        Per-insertion seconds for the small requests.
    """

    solution: TemporalSolution
    heavy_names: list[str] = field(default_factory=list)
    small_names: list[str] = field(default_factory=list)
    exact_runtime: float = 0.0
    greedy_runtimes: list[float] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return self.exact_runtime + sum(self.greedy_runtimes)


def hybrid_heavy_hitters(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    heavy_fraction: float = 0.3,
    options: ModelOptions | None = None,
    backend: str = "highs",
    exact_time_limit: float | None = None,
    time_limit_per_iteration: float | None = None,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
    lp_session: str | None = None,
    incremental: bool = True,
) -> HybridResult:
    """Exact on the heavy-hitters, greedy on the rest (Sec. VIII).

    Parameters
    ----------
    heavy_fraction:
        Fraction of requests (by count, after sorting by revenue
        descending) treated exactly; clamped to at least one request
        when the set is non-empty.
    exact_time_limit / time_limit_per_iteration:
        Budgets for the exact phase and each greedy insertion.
    time_limit / budget:
        One global wall-clock budget for the whole run (a
        :class:`~repro.runtime.budget.SolveBudget`, or seconds to build
        one from): the exact phase receives half the remaining time and
        the greedy insertions divide the rest fairly, so the hybrid
        always terminates on schedule.
    lp_session:
        Optional LP-engine spec (see :mod:`repro.mip.lp_engine`)
        forwarded to branch-and-bound backends; the insertion loop
        re-solves near-identical cSigma models, the best case for a
        persistent session.  Backends without the keyword ignore it.
    incremental:
        Run the insertion phase on one growing
        :class:`~repro.tvnep.incremental.IncrementalCSigmaModel`
        (default) — seeded with the accepted heavy-hitters, pinned,
        then extended per small request — instead of rebuilding a fresh
        cSigma model per insertion.  Decisions are identical either way
        (the per-insertion standard forms are byte-equal).
    """
    if not 0.0 <= heavy_fraction <= 1.0:
        raise ValidationError("heavy_fraction must lie in [0, 1]")
    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"hybrid needs fixed node mappings for all requests; missing {missing}"
        )
    options = options or ModelOptions()
    if budget is None and time_limit is not None:
        budget = SolveBudget(time_limit)
    horizon = max(r.latest_end for r in requests)
    options = _with_horizon(options, horizon)
    solve_hints = {} if lp_session is None else {"lp_session": lp_session}

    by_revenue = sorted(requests, key=lambda r: (-r.revenue(), r.name))
    num_heavy = max(1, round(heavy_fraction * len(by_revenue))) if by_revenue else 0
    heavy = by_revenue[:num_heavy]
    small = sorted(
        by_revenue[num_heavy:], key=lambda r: (r.earliest_start, r.name)
    )
    heavy_names = [r.name for r in heavy]
    small_names = [r.name for r in small]

    # -- phase 1: exact on the heavy-hitters ------------------------------
    # the exact phase gets half the remaining global budget; the greedy
    # insertions divide the rest
    if budget is not None:
        half = budget.remaining() * 0.5
        exact_time_limit = (
            half if exact_time_limit is None else min(exact_time_limit, half)
        )
    tick = time.perf_counter()
    exact_model = CSigmaModel(
        substrate,
        heavy,
        fixed_mappings={name: fixed_mappings[name] for name in heavy_names},
        options=options,
    )
    exact_raw = exact_model.solve_raw(backend=backend, time_limit=exact_time_limit)
    exact_solution = exact_model.extract(exact_raw)
    exact_runtime = time.perf_counter() - tick
    # x_E values of the exact phase seed the insertion warm starts
    flow_values = _link_flow_values(exact_raw) if exact_raw.has_solution else {}

    # pin the heavy-hitters' outcomes: accepted ones at their exact
    # schedule in the model's request set, rejected ones out of it
    current: dict[str, Request] = {}
    accepted: list[str] = []
    rejected: dict[str, Request] = {}
    for request in heavy:
        entry = exact_solution.scheduled.get(request.name)
        if entry is not None and entry.embedded:
            current[request.name] = request.with_schedule(entry.start, entry.end)
            accepted.append(request.name)
        else:
            rejected[request.name] = _earliest_slot(request)

    # -- phase 2: greedy insertion of the small requests -------------------
    # one growing model seeded with the accepted heavy-hitters; each
    # small request appends its embedding block and rebuilds only the
    # temporal tail
    inc: IncrementalCSigmaModel | None = None
    if incremental:
        inc = IncrementalCSigmaModel(substrate, options=options, horizon=horizon)
        try:
            for name in accepted:
                inc.insert(current[name], fixed_mappings[name])
                inc.decide(name, True, current[name])
        except (SolverError, ModelingError) as exc:  # pragma: no cover
            # a heavy embedding that built in the exact phase should
            # always build here; degrade to the fresh-model loop if not
            logger.warning(
                "hybrid could not seed the incremental model (%s); "
                "falling back to per-insertion models",
                exc,
            )
            inc = None

    greedy_runtimes: list[float] = []
    for position, request in enumerate(small):
        current[request.name] = request
        get_registry().inc("hybrid.insertions")

        def _reject() -> None:
            del current[request.name]
            rejected[request.name] = _earliest_slot(request)
            get_registry().inc("hybrid.rejected")
            if inc is not None and inc.contains(request.name):
                inc.decide(request.name, False)

        if inc is not None:
            try:
                inc.insert(request, fixed_mappings[request.name])
            except (SolverError, ModelingError) as exc:
                logger.warning(
                    "hybrid could not add %s to the incremental model "
                    "(%s); rejecting",
                    request.name,
                    exc,
                )
                greedy_runtimes.append(0.0)
                _reject()
                continue

        if budget is not None and budget.expired:
            logger.warning(
                "hybrid budget exhausted after %d/%d insertions; "
                "rejecting %s without solving",
                position,
                len(small),
                request.name,
            )
            greedy_runtimes.append(0.0)
            _reject()
            continue
        iteration_limit = time_limit_per_iteration
        if budget is not None:
            share = budget.per_iteration(len(small) - position + 1, floor=0.05)
            iteration_limit = (
                share if iteration_limit is None else min(iteration_limit, share)
            )
        tick = time.perf_counter()
        try:
            if inc is not None:
                inc.rebuild_tail()
                model = inc
            else:
                model = CSigmaModel(
                    substrate,
                    list(current.values()),
                    fixed_mappings={
                        name: fixed_mappings[name] for name in current
                    },
                    force_embedded=accepted,
                    options=options,
                )
            target = model.embeddings[request.name]
            model.model.set_objective(
                target.x_embed * horizon + (horizon - model.t_end[request.name]),
                ObjectiveSense.MAXIMIZE,
            )
            warm = validated_warm_start(
                model,
                _pinned_schedule(current, accepted, candidate=request.name),
                flow_values,
            )
            raw = solve_raw_warm(
                model, backend, iteration_limit, warm, **solve_hints
            )
        except (SolverError, ModelingError) as exc:
            logger.warning(
                "hybrid insertion for %s failed (%s); rejecting", request.name, exc
            )
            greedy_runtimes.append(time.perf_counter() - tick)
            _reject()
            continue
        greedy_runtimes.append(time.perf_counter() - tick)
        if raw.has_solution:
            flow_values = _link_flow_values(raw)
        if raw.has_solution and raw.rounded(target.x_embed) == 1:
            start = raw.value(model.t_start[request.name])
            end = raw.value(model.t_end[request.name])
            current[request.name] = request.with_schedule(start, end)
            accepted.append(request.name)
            get_registry().inc("hybrid.accepted")
            if inc is not None:
                inc.decide(request.name, True, current[request.name])
        else:
            _reject()

    # -- assemble the final solution ---------------------------------------
    # a fully-pinned solve over the accepted set (cheap: every decision
    # is fixed), reusing the incremental model (one more tail rebuild)
    # when there is one; with nothing accepted it runs over every
    # request pinned out, so a failing backend still raises
    final_requests = current if accepted else rejected
    if accepted and inc is not None:
        inc.rebuild_tail()
        final_model = inc
    else:
        final_model = CSigmaModel(
            substrate,
            list(final_requests.values()),
            fixed_mappings={name: fixed_mappings[name] for name in final_requests},
            force_embedded=accepted,
            force_rejected=[] if accepted else list(rejected),
            options=options,
        )
    # fully pinned and cheap; granted a grace second past the deadline
    final_limit = max(budget.clamp(None), 1.0) if budget is not None else None
    final_warm = validated_warm_start(
        final_model, _pinned_schedule(final_requests, accepted), flow_values
    )
    solution = final_model.extract(
        solve_raw_warm(final_model, backend, final_limit, final_warm, **solve_hints)
    )

    solution = _reconcile(solution, requests)
    solution.model_name = "hybrid-heavy-hitters"
    solution.objective = solution.total_revenue()
    solution.runtime = exact_runtime + sum(greedy_runtimes)
    solution.gap = 0.0
    return HybridResult(
        solution=solution,
        heavy_names=heavy_names,
        small_names=small_names,
        exact_runtime=exact_runtime,
        greedy_runtimes=greedy_runtimes,
    )
