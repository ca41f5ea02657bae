"""One benchmark process of one workload, in a fresh interpreter.

Started by ``perfbench/run.py``; prints ``READY`` once set-up is done
(imports, HiGHS bindings self-test, scenario generation).  What follows
depends on ``--mode``:

* ``setup`` exits at once (a set-up probe).
* ``oracle`` computes one oracle answer per cell and writes them to
  ``<out>/oracles.json``, so that the run's own process never holds
  the oracles' memory or time.
* ``run`` reads those answers, runs the timed cells and prints one
  JSON line ``{"worker": {...}}`` with the measurements.  Every timed
  answer is checked against its oracle outside the timed region.

With ``--trace 0`` the run cycles through the workload's cells (in an
order drawn from ``--seed``) until ``--seconds`` have passed and every
cell ran at least twice.  ``run_s`` is the sum over cells of each
cell's median time, so cells that happened to run one extra time do
not skew it.  With ``--trace 1`` it alternates untraced and traced
passes over all cells (at least two of each).  Per-layer metrics are
the median over the traced passes; deterministic registry counters
must be identical in every pass.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import the checkout's sources, never an installed copy
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.stats import per_key_medians, percentile, self_time_by_name  # noqa: E402

#: passes over all cells that an untraced run makes at least
MIN_PASSES = 2


def _import_repro() -> None:
    import repro
    import repro.evaluation  # noqa: F401
    import repro.mip  # noqa: F401
    import repro.mip.bnb  # noqa: F401
    import repro.mip.lp_engine  # noqa: F401  (runs the HiGHS bindings self-test)
    import repro.runtime  # noqa: F401
    import repro.tvnep  # noqa: F401
    import repro.workloads  # noqa: F401

    expected = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(f"imported repro from {repro.__file__}, not {expected}")


class Tally:
    """Attempted and failed units of the run, with the first errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(errors)
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def execute(workload, cell, expected, out_dir, tally, tracer=None, traced=False):
    """Run one cell (timed, under a fresh registry), then check it.

    Returns ``(seconds, answer or None, registry snapshot)``.
    """
    from repro.observability import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    answer = None
    if tracer is not None:
        tracer.cell = cell.cid
        tracer.enabled = traced
    tick = time.perf_counter()
    try:
        with use_registry(registry):
            answer = workload.run(cell, out_dir)
    except Exception:  # a failed cell is counted, the run goes on
        traceback.print_exc()
    finally:
        elapsed = time.perf_counter() - tick
        if tracer is not None:
            tracer.enabled = False
    if answer is None:
        tally.add(1, [f"{cell.cid}: raised"])
    else:
        checked = workload.check(cell, answer, expected[cell.cid])
        tally.add(checked.attempted, checked.errors)
    return elapsed, answer, registry.snapshot()


def decision_stats(decisions) -> dict:
    samples = list(per_key_medians(decisions).values())
    if not samples:  # every cell failed; the run already reports that
        return {"decision_ms_p50": 0.0, "decision_ms_p90": 0.0, "samples": 0, "beyond_p90": 0}
    p50 = percentile(samples, 50)
    p90 = percentile(samples, 90)
    return {
        "decision_ms_p50": p50.value * 1000.0,
        "decision_ms_p90": p90.value * 1000.0,
        "samples": p90.count,
        "beyond_p90": p90.beyond,
    }


def run_untraced(workload, cells, expected, args, out_dir, tally) -> dict:
    times = defaultdict(list)
    decisions = defaultdict(list)
    start = time.perf_counter()
    k = 0
    while True:
        cell = cells[k % len(cells)]
        elapsed, answer, _ = execute(workload, cell, expected, out_dir, tally)
        times[cell.cid].append(elapsed)
        if answer is not None:
            for key, value in workload.decisions(cell, answer, elapsed).items():
                decisions[key].append(value)
        k += 1
        if k >= MIN_PASSES * len(cells) and time.perf_counter() - start >= args.seconds:
            break
    stats = decision_stats(decisions)
    return {
        "run_s": sum(statistics.median(v) for v in times.values()),
        "decision_ms_p50": stats["decision_ms_p50"],
        "decision_ms_p90": stats["decision_ms_p90"],
        "decision_samples": stats["samples"],
        "decision_beyond_p90": stats["beyond_p90"],
        "executions": k,
        "deterministic": True,
    }


def run_traced(workload, cells, expected, args, out_dir, tally, tracer) -> dict:
    from repro.observability import deterministic_snapshot, merge_snapshots

    from perfbench.tracing import write_spans

    walls = {False: [], True: []}
    per_pass: list[dict] = []
    decisions = defaultdict(list)
    reference_counters = None
    deterministic = True
    all_spans = []
    start = time.perf_counter()
    k = 0
    while k < 4 or time.perf_counter() - start < args.seconds:
        traced = k % 2 == 1
        wall = 0.0
        snapshots = []
        store_bytes = 0
        for cell in cells:
            elapsed, answer, snap = execute(
                workload, cell, expected, out_dir, tally, tracer, traced
            )
            wall += elapsed
            snapshots.append(snap)
            if answer is not None:
                for key, value in workload.decisions(cell, answer, elapsed).items():
                    decisions[key].append(value)
                store_bytes += workload.store_bytes(answer)
        walls[traced].append(wall)
        counters = deterministic_snapshot(merge_snapshots(snapshots))
        if reference_counters is None:
            reference_counters = counters
        elif counters != reference_counters:
            deterministic = False
            print(f"pass {k}: deterministic counters differ", file=sys.stderr)
        if traced:
            tracer.collect_workers()
            spans, counts = tracer.take()
            all_spans.extend(spans)
            per_pass.append(
                layer_metrics(
                    spans, counts, merge_snapshots(snapshots), wall, tracer.pid,
                    workload.workers, store_bytes,
                )
            )
        k += 1
    write_spans(all_spans, out_dir.parent / f"{workload.name}-spans.jsonl")
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    metrics["bench.decision_samples"] = float(decision_stats(decisions)["samples"])
    self_ms = {
        name: seconds * 1000.0 / len(per_pass)
        for name, seconds in sorted(self_time_by_name(all_spans).items())
    }
    return {
        "layers": metrics,
        "self_ms_per_pass": self_ms,
        "passes": k,
        "deterministic": deterministic,
        "counters": reference_counters["counters"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "oracle", "run"), default="run")
    args = parser.parse_args(argv)

    tick = time.perf_counter()
    _import_repro()
    import_ms = (time.perf_counter() - tick) * 1000.0

    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tick = time.perf_counter()
    cells = workload.setup(held_out=args.seed < 0)
    generate_ms = (time.perf_counter() - tick) * 1000.0
    print("READY", flush=True)
    oracle_file = args.out / "oracles.json"
    if args.mode == "setup":
        return 0
    if args.mode == "oracle":
        expected = {cell.cid: workload.oracle(cell) for cell in cells}
        oracle_file.write_text(json.dumps(expected), encoding="utf-8")
        return 0
    expected = json.loads(oracle_file.read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        tracer = Tracer(args.out)
        tracer.install()

    random.Random(args.seed).shuffle(cells)
    tally = Tally()
    if tracer is None:
        result = run_untraced(workload, cells, expected, args, args.out, tally)
    else:
        result = run_traced(workload, cells, expected, args, args.out, tally, tracer)
        result["layers"]["import.ms"] = import_ms
        result["layers"]["workloads.generate_ms"] = generate_ms
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "errors": tally.errors,
            # ru_maxrss is in KiB on Linux; the oracles ran elsewhere
            "peak_rss_mb": max(own, children) / 1024.0,
        }
    )
    print(json.dumps({"worker": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
