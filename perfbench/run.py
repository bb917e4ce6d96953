"""lorenzdct benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a lorenzdct checkout.  Each workload runs in a child
process (perfbench/workload.py) as a closed loop with one caller and one
thread of load; BLAS/OpenMP pools are capped at the CPU count through the
child's environment.  With --trace 0 the command prints every end-to-end
metric; set-up is timed in three separate processes and reported as their
median.  With --trace 1 it prints the per-layer metrics of a traced run.
The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3  # processes that time set-up; the timed one is the last
DEADLINE_S = 170  # every child must be done by then


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], deadline: float) -> list[str]:
    """Run workload.py to completion; its stdout lines, or SystemExit."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *argv],
            env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload process exceeded {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not Path("src/lorenzdct/__init__.py").is_file():
        print("error: run from the root of a lorenzdct checkout (src/lorenzdct not found)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            lines = run_child([*common, "--seconds", "0", "--setup-only"], deadline)
            setup.append(json.loads(lines[-1])["setup_s"])
    lines = run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    result = json.loads(lines[-1])
    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        print(f"info setup_s runs: {', '.join(f'{s:.4f}' for s in setup)}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
