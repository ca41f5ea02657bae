"""Run one workload of the TVNEP benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload greedy-paper --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, run time,
decision latency, peak memory, share of answers correct); ``--trace 1``
prints the per-layer metrics of a separate traced run.  A negative
``--seed`` selects the held-out scenario set.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is measured from the outside: each of three fresh
interpreters (``worker.py`` as oracle process, set-up probe and timed
run) imports ``repro`` (including the HiGHS bindings self-test),
generates the workload's scenarios and reports ``READY``.  The oracle
process then writes the expected answers, and the run process reads
them, so the oracles add to neither the run's time nor its memory.
Scratch files go to ``.perfbench_out/`` and are removed afterwards,
except the traced run's spans (``.perfbench_out/<workload>-spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"

#: fresh-interpreter set-up probes per run, besides the oracle and run processes
SETUP_PROBES = 1
#: hard limit on the whole run [s]; workers still running then are killed
RUN_TIMEOUT = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def start_worker(args, out_dir: Path, mode: str) -> subprocess.Popen:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out_dir),
        "--mode", mode,
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # a session of its own, so a timeout also stops the sweep's pool workers
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, out_dir: Path, mode: str, deadline: float) -> tuple[float, list[str]]:
    """Run one worker to completion, killing it at ``deadline``.

    Returns the seconds from spawn to its ``READY`` line and the lines it
    printed after that.  Raises ``RuntimeError`` when it fails.
    """
    tick = time.perf_counter()
    proc = start_worker(args, out_dir, mode)
    watchdog = threading.Timer(max(deadline - tick, 0.0), _kill_group, (proc,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - tick
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code} (first line {first!r})")
    return ready, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_TIMEOUT
    try:
        setups = [run_worker(args, out_dir, "oracle", deadline)[0]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, out_dir, "setup", deadline)[0])
        ready, lines = run_worker(args, out_dir, "run", deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    setups.append(ready)
    result = json.loads(lines[-1])["worker"]
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    return emit(args, result, setups)


def emit(args, result: dict, setups: list[float]) -> int:
    correct = result["failed"] == 0 and result["deterministic"]
    if args.trace:
        values = result["layers"]
        units = PER_LAYER
        print(f"# {args.workload}: {result['passes']} passes, self time per traced pass [ms]:")
        for name, ms in sorted(result["self_ms_per_pass"].items(), key=lambda kv: -kv[1]):
            print(f"#   {name:28s} {ms:12.3f}")
        print("# deterministic registry counters per pass (equal in every pass):")
        for name, value in sorted(result["counters"].items()):
            print(f"#   {name:36s} {value:g}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "correct_frac": 1.0 - result["failed"] / max(result["attempted"], 1),
            **{name: result[name] for name in END_TO_END if name in result},
        }
        units = END_TO_END
        print(
            f"# {args.workload}: {result['executions']} cell runs, "
            f"{result['decision_samples']} decisions "
            f"({result['decision_beyond_p90']} beyond p90)"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
