"""Metric names and units (read from ``BENCHMARK.json``), and the
per-layer metrics of a traced pass."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from perfbench.stats import self_time_by_name, unattributed_frac, worker_spans

ROOT = Path(__file__).resolve().parent.parent

#: the benchmark's declaration: workloads, metrics, units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: end-to-end metrics of the untraced run, with their units
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

#: per-layer metrics of the traced run, with their units
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: registry counters copied into the per-layer metrics unchanged
COPIED_COUNTERS = {
    "greedy.iterations": "greedy.iterations",
    "greedy.accepted": "greedy.accepted",
    "greedy.rejected": "greedy.rejected",
    "model.columnar_terms": "model.columnar_terms",
    "model.incremental_reuses": "model.incremental_reuses",
    "mip.cuts_added": "solver.cuts_added",
    "mip.lp_node_cache_hits": "solver.lp_node_cache_hits",
    "mip.rc_fixed_cols": "solver.rc_fixed_cols",
}

#: per-layer ``*_ms`` metric -> span name whose self time it reports
SELF_TIME = {
    "tvnep.build_ms": "tvnep.build",
    "tvnep.insert_ms": "tvnep.insert",
    "tvnep.rebuild_tail_ms": "tvnep.rebuild_tail",
    "tvnep.warm_start_ms": "tvnep.warm_start",
    "tvnep.extract_ms": "tvnep.extract",
    "tvnep.verify_ms": "tvnep.verify",
    "tvnep.greedy_loop_ms": "tvnep.greedy",
    "mip.compile_ms": "mip.compile",
    "mip.highs_solve_ms": "mip.highs_solve",
    "mip.bnb_solve_ms": "mip.bnb_solve",
    "mip.presolve_ms": "mip.presolve",
    "mip.cut_ms": "mip.cuts",
    "mip.lp_solve_ms": "mip.lp_solve",
    "evaluation.persist_ms": "evaluation.persist",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, snapshot, wall, pid, workers, store_bytes) -> dict:
    """Per-layer metrics of one traced pass over all cells."""
    own = self_time_by_name(spans)
    count = defaultdict(int)
    inclusive = defaultdict(float)
    for s in spans:
        count[s.name] += 1
        inclusive[s.name] += s.duration
    counters = snapshot["counters"]
    out = {metric: own.get(span, 0.0) * 1000.0 for metric, span in SELF_TIME.items()}
    out.update({m: float(counters.get(c, 0)) for m, c in COPIED_COUNTERS.items()})
    hits = counters.get("cache.standard_form_hits", 0)
    misses = counters.get("cache.standard_form_misses", 0)
    hot = counters.get("solver.lp_hot_starts", 0)
    cold = counters.get("solver.lp_cold_starts", 0)
    bnb_nodes = counts.get("mip.bnb_nodes", 0.0)
    out.update(
        {
            "model.num_vars": counts.get("model.num_vars", 0.0),
            "model.num_rows": counts.get("model.num_rows", 0.0),
            "mip.form_cache_hit_ratio": _ratio(hits, hits + misses),
            "mip.highs_solves": float(count["mip.highs_solve"]),
            "mip.highs_ms_per_solve": _ratio(
                inclusive["mip.highs_solve"] * 1000.0, count["mip.highs_solve"]
            ),
            "mip.highs_nodes": counts.get("mip.highs_nodes", 0.0),
            "mip.bnb_nodes": bnb_nodes,
            "mip.bnb_nodes_per_s": _ratio(bnb_nodes, inclusive["mip.bnb_solve"]),
            "mip.lp_solves": float(count["mip.lp_solve"]),
            "mip.lp_iterations_per_node": _ratio(
                counters.get("solver.lp_iterations", 0), bnb_nodes
            ),
            "mip.lp_hot_start_ratio": _ratio(hot, hot + cold),
            # attempts beyond the first of each resilient solve
            "runtime.fallback_attempts": float(
                counters.get("fallback.attempts", 0) - count["runtime.resilient"]
            ),
            "runtime.worker_busy_frac": _ratio(
                sum(s.duration for s in worker_spans(spans, pid)), workers * wall
            ),
            "evaluation.store_bytes": float(store_bytes),
            "bench.unattributed_frac": unattributed_frac(spans, pid, wall),
        }
    )
    return out
