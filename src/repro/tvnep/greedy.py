"""The greedy admission algorithm cSigma^G_A (Sec. V).

The algorithm processes requests in order of earliest possible start.
For request ``L[i]`` it solves a cSigma model over the requests
accepted so far plus ``L[i]`` in which

* node mappings are fixed a priori (Constraint 23),
* previously accepted requests are forced in (Constraint 24) with their
  windows pinned to the exact schedule chosen when they were accepted,
* previously rejected requests are forced out (Constraint 25) by
  *omission*: a request with ``x_R = 0`` holds no resources and cannot
  change the iteration's optimum, so its block is left out of the model
  altogether (as :func:`greedy_enumerative` leaves it out of its LPs).
  The result still fixes its times, per Definition 2.1, to the earliest
  slot ``[t^s, t^s + d]``, and
* the objective (21) ``max T * x_R(L[i]) + (T - t^-_{L[i]})`` embeds the
  new request if at all possible and then as early as possible.

Link allocations of accepted requests are *not* frozen — they are
re-optimized in every iteration (the paper stresses this), which is why
acceptance never degrades: a previously feasible flow assignment stays
feasible and better ones may appear.

Because all but one request have zero temporal flexibility in each
iteration, the dependency-graph event ranges collapse almost all event
assignments a priori, making each iteration's MIP tiny — the paper
reports ~0.1 s per iteration and argues polynomial solvability via
event-order enumeration + LPs.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ModelingError, SolverError
from repro.mip.model import ObjectiveSense
from repro.mip.solution import Solution
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.runtime.budget import SolveBudget
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.tvnep.solution import ScheduledRequest, TemporalSolution
from repro.tvnep.warmstart import validated_warm_start
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["GreedyResult", "greedy_csigma", "greedy_enumerative"]

logger = logging.getLogger("repro.runtime")


def _earliest_slot(request: Request) -> Request:
    """``request`` pinned to its earliest slot (a rejection's schedule)."""
    return request.with_schedule(
        request.earliest_start, request.earliest_start + request.duration
    )


def _pinned_schedule(
    current: Mapping[str, Request],
    accepted: Sequence[str],
    candidate: str | None = None,
) -> dict[str, tuple[bool, float, float]]:
    """The warm-start schedule implied by the iteration state.

    Every processed request sits at its pinned window; the candidate
    (if any) is proposed rejected at its earliest slot — exactly the
    feasible state the previous iteration established.
    """
    accepted_set = set(accepted)
    schedule: dict[str, tuple[bool, float, float]] = {}
    for name, request in current.items():
        if name == candidate:
            schedule[name] = (
                False,
                request.earliest_start,
                request.earliest_start + request.duration,
            )
        else:
            # pinned copies carry the chosen window as their only window
            schedule[name] = (
                name in accepted_set,
                request.earliest_start,
                request.latest_end,
            )
    return schedule


def _link_flow_values(raw: Solution) -> dict[str, float]:
    """Extract ``x_E`` values by name for reuse in the next iteration."""
    return {
        var.name: value
        for var, value in raw.values.items()
        if var.name.startswith("xE[")
    }


def solve_raw_warm(model, backend, time_limit, warm_start, **extra):
    """``solve_raw`` passing optional keywords only when the backend takes them.

    ``warm_start`` (and any ``extra`` keyword, e.g. the branch-and-bound
    ``lp_session`` spec) is an optimization hint, never a hard
    dependency on a backend's signature: a backend that rejects a
    keyword with :class:`TypeError` is retried with progressively fewer
    hints, down to a plain cold solve.
    """
    kwargs = dict(extra)
    if warm_start is not None:
        kwargs["warm_start"] = warm_start
    # drop hints one at a time: lp_session first (rarest), then
    # warm_start, then solve cold
    for attempt in (dict(kwargs), {"warm_start": warm_start} if warm_start is not None else {}, {}):
        try:
            return model.solve_raw(
                backend=backend, time_limit=time_limit, **attempt
            )
        except TypeError:
            if not attempt:
                raise
            logger.debug(
                "backend %r rejected keywords %s; retrying with fewer hints",
                backend,
                sorted(attempt),
            )
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class GreedyResult:
    """Outcome of the greedy run.

    Attributes
    ----------
    solution:
        The final temporal solution over all requests.
    iteration_runtimes:
        Per-iteration wall-clock seconds (the paper reports ~0.1 s).
    accepted_order:
        Request names in the order they were accepted.
    """

    solution: TemporalSolution
    iteration_runtimes: list[float] = field(default_factory=list)
    accepted_order: list[str] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(self.iteration_runtimes)


def greedy_csigma(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    options: ModelOptions | None = None,
    backend: str = "highs",
    time_limit_per_iteration: float | None = None,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
    lp_session: str | None = None,
    incremental: bool = True,
) -> GreedyResult:
    """Run Algorithm cSigma^G_A.

    Parameters
    ----------
    substrate, requests:
        The TVNEP instance.
    fixed_mappings:
        A-priori node mapping per request name (required — the
        algorithm only optimizes link embedding and scheduling; compute
        one with e.g. :func:`repro.vnep.random_node_mapping`).
    options:
        Formulation options for the per-iteration cSigma models
        (defaults to all reductions on — essential for speed).
    backend:
        MIP backend for the iterations (a registry name or callable,
        e.g. a :class:`~repro.runtime.resilient.ResilientBackend`).
    time_limit_per_iteration:
        Optional safety limit; an iteration that cannot prove
        embeddability in time conservatively rejects the request.
    time_limit:
        Global wall-clock limit for the *whole* run; it is divided
        fairly across the remaining iterations (deadline-aware), so the
        greedy degrades — rejecting the tail of the request list — but
        always terminates on schedule.
    budget:
        An existing :class:`~repro.runtime.budget.SolveBudget` to
        consume instead of creating one from ``time_limit`` (used when
        the caller threads one global budget through several phases).
    lp_session:
        Optional LP-engine spec (see :mod:`repro.mip.lp_engine`)
        forwarded to branch-and-bound backends.  The insertion loop
        re-solves near-identical cSigma models, so a persistent HiGHS
        session with basis hot-starts pays off here; backends without
        the keyword ignore it.
    incremental:
        Keep **one** growing
        :class:`~repro.tvnep.incremental.IncrementalCSigmaModel` for the
        whole run (default): each iteration appends the new request's
        embedding block and rebuilds only the temporal tail, instead of
        reconstructing every block from scratch.  The per-iteration
        models compile to byte-identical standard forms either way
        (``tests/tvnep/test_incremental_model.py``), so decisions and
        schedules never depend on this switch; ``False`` forces the
        historical fresh-model-per-iteration loop.
    """
    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"greedy needs fixed node mappings for all requests; missing {missing}"
        )
    options = options or ModelOptions()
    if budget is None and time_limit is not None:
        budget = SolveBudget(time_limit)
    solve_hints = {} if lp_session is None else {"lp_session": lp_session}

    # L <- R ordered by earliest possible start (stable for ties)
    order = sorted(requests, key=lambda r: (r.earliest_start, r.name))

    horizon = max(r.latest_end for r in requests)
    # the model's request set: accepted requests (pinned) plus the
    # candidate; rejected ones leave it for ``rejected`` (earliest slot)
    current: dict[str, Request] = {}
    accepted: list[str] = []
    rejected: dict[str, Request] = {}
    runtimes: list[float] = []
    # x_E values of the last successful solve, reused to warm-start the
    # next iteration (flows are time-invariant, so they stay feasible)
    flow_values: dict[str, float] = {}
    # one growing model for the whole run: embedding blocks append, the
    # temporal tail rebuilds per iteration, an accept is a bound update
    # and a reject truncates the candidate's block away
    inc = (
        IncrementalCSigmaModel(
            substrate, options=_with_horizon(options, horizon), horizon=horizon
        )
        if incremental
        else None
    )

    def reject(request: Request) -> None:
        del current[request.name]
        rejected[request.name] = _earliest_slot(request)
        get_registry().inc("greedy.rejected")
        if inc is not None and inc.contains(request.name):
            inc.decide(request.name, False)

    for position, request in enumerate(order):
        current[request.name] = request
        get_registry().inc("greedy.iterations")
        if inc is not None:
            try:
                inc.insert(request, fixed_mappings[request.name])
            except (SolverError, ModelingError) as exc:
                # the embedding block itself cannot be built (e.g. an
                # invalid mapping target): reject without a model — the
                # fresh-model path fails the same way on this request
                logger.warning(
                    "greedy could not add %s to the incremental model "
                    "(%s); rejecting",
                    request.name,
                    exc,
                )
                runtimes.append(0.0)
                reject(request)
                continue
        if budget is not None and budget.expired:
            # out of wall-clock: conservatively reject the tail instead
            # of blowing past the deadline
            logger.warning(
                "greedy budget exhausted after %d/%d iterations; "
                "rejecting %s without solving",
                position,
                len(order),
                request.name,
            )
            runtimes.append(0.0)
            reject(request)
            continue
        # fair share of the remaining budget for this iteration (the
        # +1 reserves a slot for the final fully-pinned solve)
        iteration_limit = time_limit_per_iteration
        if budget is not None:
            share = budget.per_iteration(len(order) - position + 1, floor=0.05)
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
                    options=_with_horizon(options, horizon),
                )
            # objective (21): embed L[i] if possible, then end it early
            target = model.embeddings[request.name]
            model.model.set_objective(
                target.x_embed * horizon
                + (horizon - model.t_end[request.name]),
                ObjectiveSense.MAXIMIZE,
            )
            # warm-start with the previous accepted state (candidate
            # proposed rejected) — the search then starts with a known
            # incumbent instead of cold
            warm = validated_warm_start(
                model,
                _pinned_schedule(current, accepted, candidate=request.name),
                flow_values,
            )
            raw = solve_raw_warm(
                model, backend, iteration_limit, warm, **solve_hints
            )
        except (SolverError, ModelingError) as exc:
            # a failed iteration conservatively rejects the request —
            # the run degrades instead of dying (Sec. V semantics: a
            # request that cannot be *proven* embeddable is rejected)
            logger.warning(
                "greedy iteration for %s failed (%s); rejecting", request.name, exc
            )
            runtimes.append(time.perf_counter() - tick)
            reject(request)
            continue
        runtimes.append(time.perf_counter() - tick)

        if raw.has_solution:
            flow_values = _link_flow_values(raw)
        embeddable = (
            raw.has_solution
            and raw.rounded(target.x_embed) == 1
        )
        if embeddable:
            start = raw.value(model.t_start[request.name])
            end = raw.value(model.t_end[request.name])
            # pin the window to the chosen schedule
            current[request.name] = request.with_schedule(start, end)
            accepted.append(request.name)
            get_registry().inc("greedy.accepted")
            if inc is not None:
                inc.decide(request.name, True, current[request.name])
        else:
            reject(request)

    # one final fully-pinned solve over the accepted set: with every
    # schedule fixed, this is cheap, and it yields the jointly
    # re-optimized flows even if a per-iteration time limit left some
    # intermediate solve empty.  When nothing was accepted, the solve
    # runs over every request, all pinned out — so a backend that fails
    # every call still surfaces as an error, not as "all rejected".
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
            options=_with_horizon(options, horizon),
        )
    # the final solve is fully pinned and therefore cheap; grant it a
    # small grace period even when the budget just ran out, because
    # without it there is nothing to extract
    final_limit = None
    if budget is not None:
        final_limit = max(budget.clamp(None), 1.0)
    try:
        final_warm = validated_warm_start(
            final_model, _pinned_schedule(final_requests, accepted), flow_values
        )
        final_raw = solve_raw_warm(
            final_model, backend, final_limit, final_warm, **solve_hints
        )
    except SolverError as exc:
        raise SolverError(
            f"greedy final extraction solve failed: {exc}"
        ) from exc
    solution = final_model.extract(final_raw)
    solution.model_name = "csigma-greedy"
    solution.objective = solution.total_revenue()
    solution.runtime = sum(runtimes)
    solution.gap = 0.0
    final = _reconcile(solution, requests)
    return GreedyResult(
        solution=final,
        iteration_runtimes=runtimes,
        accepted_order=accepted,
    )


def greedy_enumerative(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
) -> GreedyResult:
    """The provably polynomial variant of Algorithm cSigma^G_A.

    Sec. V argues the greedy is polynomial because, with all previously
    processed requests pinned in time, only polynomially many event
    placements exist for the new request, each reducing to an LP.  This
    function implements that argument directly:

    * candidate starts for the new request are its earliest start plus
      the end times of already-accepted requests inside its window — a
      left-shift exchange argument shows the earliest feasible start is
      always among them;
    * each candidate is tested with the fixed-schedule link-embedding
      LP (:func:`repro.tvnep.fixed_schedule.solve_fixed_schedule`);
    * the first feasible candidate (earliest) is chosen, matching the
      MIP variant's objective (21).

    Produces the same acceptance decisions and schedules as
    :func:`greedy_csigma` (tested), with strictly polynomial work:
    O(|R|) LPs per request.
    """
    from repro.temporal.interval import Interval
    from repro.tvnep.fixed_schedule import FixedPlacement, solve_fixed_schedule

    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"greedy needs fixed node mappings for all requests; missing {missing}"
        )
    order = sorted(requests, key=lambda r: (r.earliest_start, r.name))

    accepted: list[FixedPlacement] = []
    accepted_order: list[str] = []
    runtimes: list[float] = []
    scheduled: dict[str, ScheduledRequest] = {}
    latest_flows: dict[str, dict] = {}

    for request in order:
        tick = time.perf_counter()
        candidates = sorted(
            {request.earliest_start}
            | {
                placement.interval.hi
                for placement in accepted
                if request.earliest_start
                < placement.interval.hi
                <= request.latest_end - request.duration + 1e-12
            }
        )
        chosen: FixedPlacement | None = None
        for start in candidates:
            trial = FixedPlacement(
                request=request,
                node_mapping=fixed_mappings[request.name],
                interval=Interval(start, start + request.duration),
            )
            result = solve_fixed_schedule(substrate, accepted + [trial])
            if result.feasible:
                chosen = trial
                latest_flows = result.link_flows
                break
        runtimes.append(time.perf_counter() - tick)

        if chosen is not None:
            accepted.append(chosen)
            accepted_order.append(request.name)
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=True,
                start=chosen.interval.lo,
                end=chosen.interval.hi,
                node_mapping=dict(fixed_mappings[request.name]),
            )
        else:
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=False,
                start=request.earliest_start,
                end=request.earliest_start + request.duration,
            )

    # attach the final (jointly re-optimized) flows to the accepted set
    for name, entry in scheduled.items():
        if entry.embedded:
            entry.link_flows = latest_flows.get(name, {})

    solution = TemporalSolution(
        substrate,
        scheduled,
        objective=sum(
            e.request.revenue() for e in scheduled.values() if e.embedded
        ),
        model_name="enumerative-greedy",
        runtime=sum(runtimes),
        gap=0.0,
    )
    return GreedyResult(
        solution=solution,
        iteration_runtimes=runtimes,
        accepted_order=accepted_order,
    )


def _with_horizon(options: ModelOptions, horizon: float) -> ModelOptions:
    """Options with a shared time horizon across iterations."""
    if options.time_horizon is not None:
        return options
    from dataclasses import replace

    return replace(options, time_horizon=horizon)


def _reconcile(
    solution: TemporalSolution, original_requests: Sequence[Request]
) -> TemporalSolution:
    """The final solution over the caller's requests, in the caller's order.

    The greedy pins windows internally; the reported solution should
    reference the caller's requests so window checks use the *original*
    flexibilities.  Requests the final model left out (rejected ones)
    are added, and rejected ones it kept are reported, with
    ``embedded=False`` at their exact earliest slot.
    """
    scheduled = {}
    for request in original_requests:
        entry = solution.scheduled.get(request.name)
        if entry is None or not entry.embedded:
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=False,
                start=request.earliest_start,
                end=request.earliest_start + request.duration,
            )
            continue
        scheduled[request.name] = ScheduledRequest(
            request=request,
            embedded=entry.embedded,
            start=entry.start,
            end=entry.end,
            node_mapping=entry.node_mapping,
            link_flows=entry.link_flows,
        )
    return TemporalSolution(
        solution.substrate,
        scheduled,
        objective=solution.objective,
        model_name=solution.model_name,
        runtime=solution.runtime,
        gap=solution.gap,
        node_count=solution.node_count,
        status=solution.status,
        rung=solution.rung,
    )
