"""Backend fallback chains with bounded retry, backoff and validation.

Related work institutionalizes the degrade-gracefully pattern: when the
exact optimization fails or runs out of time, fall back to a cheaper
answer rather than crash ("It's Good to Relax", Münk et al.; the
randomized-rounding heuristics of Rost & Schmid).  The
:class:`ResilientBackend` implements that pattern at the MIP layer:

* a chain of *rungs* (by default HiGHS, then the pure-Python
  branch-and-bound solver), each tried with bounded retry + backoff;
* per-attempt wall-clock limits derived from one global
  :class:`~repro.runtime.budget.SolveBudget`;
* sanity validation of incumbents (constraints, integrality, objective
  consistency) so a corrupted answer from a misbehaving backend is
  rejected instead of silently propagated; and
* structured :mod:`logging` of every attempt (backend, status, wall
  time, retry count) replacing today's silent failures.

The returned :class:`~repro.mip.solution.Solution` is tagged with the
``rung`` that produced it, so downstream records can distinguish a
first-choice answer from a degraded one.  TVNEP-level callers (the
evaluation runner) add one more rung below the MIP chain: the greedy
heuristic as a degraded-mode answer — see
:func:`repro.evaluation.runner.run_exact`.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable

from repro.mip.solution import Solution, SolveStatus
from repro.observability import current_trace, get_registry
from repro.runtime.backends import Backend, get_backend
from repro.runtime.budget import SolveBudget

__all__ = ["Rung", "Attempt", "ResilientBackend", "default_chain"]

logger = logging.getLogger("repro.runtime")

#: statuses that settle the solve — no point trying another backend
_CONCLUSIVE = (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)


@dataclass(frozen=True)
class Rung:
    """One step of the fallback chain.

    Attributes
    ----------
    name:
        Tag recorded on solutions this rung produces.
    backend:
        Backend name (resolved via the registry at solve time, so fault
        injection on the name is visible) or a callable.
    retries:
        How many *additional* attempts after the first failure.
    backoff:
        Seconds slept before a retry (doubled per retry, clamped to the
        remaining budget).
    options:
        Extra keyword arguments for this rung's backend (e.g.
        ``{"presolve": False}`` for the known HiGHS presolve issue).
    """

    name: str
    backend: str | Backend
    retries: int = 0
    backoff: float = 0.1
    options: Mapping[str, object] = field(default_factory=dict)


@dataclass
class Attempt:
    """Log entry for one backend call (exposed for tests/diagnostics)."""

    rung: str
    attempt: int
    status: str
    runtime: float
    message: str = ""


class ResilientBackend:
    """A backend that falls through a chain of rungs instead of dying.

    Instances are callable with the standard backend signature
    ``(model, time_limit=None, budget=None, **kwargs) -> Solution`` and
    can therefore be passed anywhere a backend name is accepted
    (``model.solve(backend=chain)``, the greedy's ``backend=`` argument,
    the evaluation config, ...).

    Extra ``**kwargs`` — in particular ``warm_start`` from the
    incremental greedy/hybrid loops — are forwarded verbatim to every
    rung, so a warm start reaches whichever backend ends up answering
    (HiGHS takes it as its MIP start; branch-and-bound seeds its
    incumbent with it).

    Parameters
    ----------
    rungs:
        The fallback chain; defaults to HiGHS then branch-and-bound.
    validate:
        Reject incumbents that violate constraints/integrality or whose
        reported objective disagrees with their assignment (corrupted
        results count as failures and trigger the next attempt).
    min_time_limit:
        Smallest per-attempt limit handed to a backend, guarding
        against degenerate zero-second solves near the deadline.
    sleep:
        Injectable sleep used for retry backoff.
    """

    def __init__(
        self,
        rungs: Sequence[Rung] | None = None,
        validate: bool = True,
        min_time_limit: float = 0.05,
        objective_tol: float = 1e-4,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.rungs: tuple[Rung, ...] = tuple(
            rungs
            if rungs is not None
            else (Rung("highs", "highs", retries=1), Rung("bnb", "bnb"))
        )
        if not self.rungs:
            raise ValueError("ResilientBackend needs at least one rung")
        self.validate = validate
        self.min_time_limit = min_time_limit
        self.objective_tol = objective_tol
        self._sleep = sleep
        #: attempt log of the most recent solve
        self.attempts: list[Attempt] = []

    # ------------------------------------------------------------------
    def solve(
        self,
        model,
        time_limit: float | None = None,
        budget: SolveBudget | None = None,
        **kwargs,
    ) -> Solution:
        """Run the fallback chain on ``model``.

        Returns the first acceptable solution, tagged with its rung.
        When every rung fails, returns the best inconclusive outcome
        (a ``NO_SOLUTION`` timeout if one occurred, else an ``ERROR``
        solution summarizing the attempts) — it never raises for
        expected failure modes, so sweeps degrade instead of dying.
        """
        self.attempts = []
        start = time.perf_counter()
        timed_out: Solution | None = None

        for rung in self.rungs:
            outcome = self._run_rung(rung, model, time_limit, budget, kwargs)
            if outcome is None:
                continue
            if outcome.status is SolveStatus.NO_SOLUTION:
                if timed_out is None:
                    timed_out = outcome
                continue
            return outcome

        if timed_out is not None:
            return timed_out
        summary = "; ".join(
            f"{a.rung}#{a.attempt}:{a.status}" for a in self.attempts
        )
        logger.error(
            "resilient solve exhausted %d rung(s) without a result (%s)",
            len(self.rungs),
            summary,
        )
        return Solution(
            status=SolveStatus.ERROR,
            runtime=time.perf_counter() - start,
            solver="resilient",
            message=f"all rungs failed: {summary}",
        )

    __call__ = solve

    # ------------------------------------------------------------------
    def _run_rung(
        self,
        rung: Rung,
        model,
        time_limit: float | None,
        budget: SolveBudget | None,
        kwargs: dict,
    ) -> Solution | None:
        """Attempt one rung (with retries); ``None`` means move on."""
        trace = current_trace()
        metrics = get_registry()

        def note(attempt: int, status: str) -> None:
            metrics.inc("fallback.attempts")
            if trace is not None:
                trace.emit(
                    "fallback", rung=rung.name, attempt=attempt, status=status
                )

        for attempt in range(1, rung.retries + 2):
            limit = budget.clamp(time_limit) if budget is not None else time_limit
            if budget is not None and budget.expired:
                logger.warning(
                    "budget exhausted before rung=%s attempt=%d", rung.name, attempt
                )
                self.attempts.append(
                    Attempt(rung.name, attempt, "budget_exhausted", 0.0)
                )
                note(attempt, "budget_exhausted")
                if trace is not None:
                    trace.emit(
                        "budget", state="exhausted", where=f"rung:{rung.name}"
                    )
                return None
            if limit is not None:
                limit = max(float(limit), self.min_time_limit)

            merged = dict(kwargs)
            merged.update(rung.options)
            if limit is not None:
                merged["time_limit"] = limit

            tick = time.perf_counter()
            try:
                solution = get_backend(rung.backend)(model, **merged)
            except Exception as exc:
                wall = time.perf_counter() - tick
                self.attempts.append(
                    Attempt(rung.name, attempt, "exception", wall, str(exc))
                )
                note(attempt, "exception")
                logger.warning(
                    "solve attempt failed rung=%s backend=%s attempt=%d "
                    "wall=%.3fs error=%s",
                    rung.name,
                    rung.backend if isinstance(rung.backend, str) else "<callable>",
                    attempt,
                    wall,
                    exc,
                )
                self._backoff(rung, attempt, budget)
                continue

            wall = time.perf_counter() - tick
            self.attempts.append(
                Attempt(
                    rung.name, attempt, solution.status.value, wall, solution.message
                )
            )
            metrics.add_ms(f"phase.rung.{rung.name}", wall * 1000.0)
            logger.info(
                "solve attempt rung=%s attempt=%d status=%s wall=%.3fs "
                "objective=%s nodes=%d",
                rung.name,
                attempt,
                solution.status.value,
                wall,
                solution.objective,
                solution.node_count,
            )

            if solution.status in _CONCLUSIVE:
                note(attempt, solution.status.value)
                solution.rung = rung.name
                return solution
            if solution.has_solution:
                if self.validate and not self._plausible(model, solution):
                    logger.warning(
                        "rejecting implausible incumbent from rung=%s "
                        "attempt=%d (corrupted solution?)",
                        rung.name,
                        attempt,
                    )
                    self.attempts[-1].status = "corrupt"
                    note(attempt, "corrupt")
                    self._backoff(rung, attempt, budget)
                    continue
                note(attempt, solution.status.value)
                solution.rung = rung.name
                return solution
            if solution.status is SolveStatus.NO_SOLUTION:
                # a timeout without incumbent won't improve by retrying
                # the same backend; hand the chain to the next rung
                note(attempt, solution.status.value)
                solution.rung = rung.name
                return solution
            # SolveStatus.ERROR: retry, then fall through
            note(attempt, solution.status.value)
            self._backoff(rung, attempt, budget)
        return None

    def _backoff(self, rung: Rung, attempt: int, budget: SolveBudget | None) -> None:
        if attempt > rung.retries or rung.backoff <= 0:
            return
        delay = rung.backoff * (2 ** (attempt - 1))
        if budget is not None:
            delay = min(delay, budget.remaining())
        if delay > 0 and math.isfinite(delay):
            self._sleep(delay)

    # ------------------------------------------------------------------
    def _plausible(self, model, solution: Solution) -> bool:
        """Sanity-check an incumbent against its own model."""
        try:
            if model.check_assignment(solution.values):
                return False
            for var in solution.values:
                if var.vtype.is_integral:
                    value = solution.values[var]
                    if abs(value - round(value)) > 1e-4:
                        return False
            recomputed = solution.value(model.objective)
            tol = self.objective_tol * max(1.0, abs(recomputed))
            return abs(recomputed - solution.objective) <= tol
        except Exception:
            return False


def default_chain(
    primary: str = "highs",
    retries: int = 1,
    validate: bool = True,
    **kwargs,
) -> ResilientBackend:
    """The standard two-rung MIP chain: ``primary`` then the other backend.

    ``highs`` falls back to the pure-Python branch-and-bound solver and
    vice versa; additional keyword arguments reach the
    :class:`ResilientBackend` constructor.
    """
    secondary = "bnb" if primary != "bnb" else "highs"
    rungs = (
        Rung(primary, primary, retries=retries),
        Rung(secondary, secondary),
    )
    return ResilientBackend(rungs, validate=validate, **kwargs)
