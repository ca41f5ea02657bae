"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/check_spread.py --workload exact-bnb --runs 10

For every end-to-end metric it prints the median over the runs and the
quartile spread ``(Q3 - Q1) / median`` (``statistics.quantiles(n=4)``)
next to the metric's bound from ``BENCHMARK.json``; a spread should stay
below a third of its bound.  Exits non-zero when a run fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.layers import SPEC  # noqa: E402
from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect answers\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(
            f"{name:18s} {statistics.median(vals):12.5g} {spread:8.4f} "
            f"{bounds.get(name, float('nan')) / 3:8.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
