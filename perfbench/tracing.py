"""Span tracing of ``repro`` from the outside.

:func:`install` replaces each public function or method in
:data:`LAYERS` with a wrapper that records a :class:`~perfbench.stats.Span`
while the tracer is enabled, patching the name where its caller looks
it up (a module attribute read at call time, or a class attribute).
The library itself is not edited.  Spans stay in memory; forked sweep
workers append theirs to ``spans-<pid>.jsonl`` in the output directory
whenever their outermost span closes, and the parent folds those files
back in with :meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections.abc import Callable
from pathlib import Path

from perfbench.stats import Span


def _count(key: str, attr: str) -> Callable:
    """``on_result`` hook adding ``result.<attr>`` to ``tracer.counts[key]``."""

    def hook(tracer: "Tracer", result, args, kwargs) -> None:
        tracer.counts[key] = tracer.counts.get(key, 0) + float(getattr(result, attr))

    return hook


def _form_size(tracer: "Tracer", form, args, kwargs) -> None:
    for key, value in (
        ("model.num_vars", form.num_vars),
        ("model.num_rows", form.num_constraints),
    ):
        tracer.counts[key] = max(tracer.counts.get(key, 0), float(value))


def _sweep_cell(args, kwargs) -> str:
    scenario = args[0] if args else kwargs["scenario"]
    objective = kwargs.get("objective", "access_control")
    algorithm = args[1] if len(args) > 1 else kwargs.get("algorithm", "greedy")
    return f"{scenario.label}/f{scenario.metadata.get('flexibility', 0.0):g}/{algorithm}/{objective}"


#: (module, attribute path, span name, options) of every traced boundary
LAYERS: tuple[tuple[str, str, str, dict], ...] = (
    # workloads
    ("repro.workloads.scenario", "paper_scenario", "workloads.generate", {}),
    ("repro.workloads.scenario", "small_scenario", "workloads.generate", {}),
    ("repro.workloads.scenario", "Scenario.with_flexibility", "workloads.generate", {}),
    # tvnep
    ("repro.tvnep.greedy", "greedy_csigma", "tvnep.greedy", {}),
    ("repro.evaluation.runner", "greedy_csigma", "tvnep.greedy", {}),
    ("repro.tvnep.greedy", "validated_warm_start", "tvnep.warm_start", {}),
    ("repro.tvnep.base", "TemporalModelBase.__init__", "tvnep.build", {}),
    ("repro.tvnep.incremental", "IncrementalCSigmaModel.__init__", "tvnep.build", {}),
    ("repro.tvnep.incremental", "IncrementalCSigmaModel.insert", "tvnep.insert", {}),
    ("repro.tvnep.incremental", "IncrementalCSigmaModel.rebuild_tail", "tvnep.rebuild_tail", {}),
    ("repro.tvnep.incremental", "IncrementalCSigmaModel.decide", "tvnep.decide", {}),
    ("repro.tvnep.objectives", "set_access_control", "tvnep.objective", {}),
    ("repro.tvnep.base", "TemporalModelBase.solve", "tvnep.solve", {}),
    ("repro.tvnep.base", "TemporalModelBase.solve_raw", "tvnep.solve", {}),
    ("repro.tvnep.base", "TemporalModelBase.extract", "tvnep.extract", {}),
    ("repro.evaluation.runner", "verify_solution", "tvnep.verify", {}),
    # mip
    ("repro.mip.model", "Model.to_standard_form", "mip.compile", {"on_result": _form_size}),
    ("repro.mip.highs_backend", "solve_standard_form", "mip.highs_solve",
     {"on_result": _count("mip.highs_nodes", "node_count")}),
    ("repro.mip.bnb.solver", "BranchAndBoundSolver.solve", "mip.bnb_solve",
     {"on_result": _count("mip.bnb_nodes", "node_count")}),
    ("repro.mip.bnb.presolve", "tighten_bounds", "mip.presolve", {}),
    ("repro.mip.bnb.cover_cuts", "separate_cover_cuts", "mip.cuts", {}),
    ("repro.mip.bnb.solver", "reduced_cost_fixing", "mip.rc_fixing", {}),
    ("repro.mip.lp_engine", "LPSession.solve", "mip.lp_solve", {}),
    # runtime
    ("repro.runtime.resilient", "ResilientBackend.solve", "runtime.resilient", {}),
    # ``__call__ = solve`` binds the original function, so patch both
    ("repro.runtime.resilient", "ResilientBackend.__call__", "runtime.resilient", {}),
    ("repro.runtime.parallel", "execute_cells", "runtime.execute_cells", {}),
    # evaluation
    ("repro.evaluation.experiments", "Evaluation.run_all", "evaluation.run_all", {}),
    ("repro.evaluation.runner", "run_exact", "evaluation.run_exact", {"cell_of": _sweep_cell}),
    ("repro.evaluation.runner", "run_greedy", "evaluation.run_greedy", {"cell_of": _sweep_cell}),
    ("repro.evaluation.persistence", "RecordStore.add", "evaluation.persist", {}),
)


class Tracer:
    """In-memory span recorder with process-aware flushing."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: numeric observations taken from layer results (nodes, sizes)
        self.counts: dict[str, float] = {}
        self.cell: str | None = None
        self.enabled = False
        self._stack: list[str] = []
        self._next = 0
        self._worker_depth: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable | None = None,
        cell_of: Callable | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._check_fork()
            sid = f"{tracer.pid}:{tracer._next}"
            tracer._next += 1
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = cell_of(args, kwargs)
            span = Span(
                sid=sid,
                name=name,
                start=time.perf_counter(),
                end=float("nan"),
                parent=tracer._stack[-1] if tracer._stack else None,
                cell=tracer.cell,
                pid=tracer.pid,
            )
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result, args, kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.cell = outer_cell
                if tracer._worker_depth == len(tracer._stack):
                    tracer._flush_worker()

        return traced

    def _check_fork(self) -> None:
        """Start a fresh span buffer in a forked worker.

        The stack inherited from the parent is kept, so the worker's
        outermost spans name the parent span that was open at the fork.
        """
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counts = {}
            self._next = 0
            self._worker_depth = len(self._stack)

    def _flush_worker(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s.__dict__}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
        self.spans = []
        self.counts = {}

    def collect_workers(self) -> None:
        """Fold the span files written by forked workers into memory."""
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    entry = json.loads(line)
                    if "span" in entry:
                        self.spans.append(Span(**entry["span"]))
                    else:
                        for key, value in entry["counts"].items():
                            old = self.counts.get(key, 0.0)
                            self.counts[key] = (
                                max(old, value)
                                if key.startswith("model.num_")
                                else old + value
                            )
            path.unlink()

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over (and forget) everything recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    # -- patching ----------------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Wrap every layer boundary (idempotent per tracer)."""
        for module_name, path, name, options in layers:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original, **options))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines (one object per span)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
