"""nitsche-lab benchmark.

    python3 bench/run.py --workload {sweep,capacity,cli} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and measures the package in its
``src`` directory.  Each workload runs in a fresh worker process whose BLAS
and OpenMP thread counts are capped at the number of usable cores.  One
process before the worker and one after it do only the set-up, and
``setup_s`` is the median of the three set-up times; spacing them across
the run keeps one slow spell of the machine from setting the median.  The second-to-last line of stdout is a
JSON record of details (machine facts, per-operation medians, notes), the
last line the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "capacity", "cli")
TIME_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(nproc, int(current))) if current.isdigit() and int(current) > 0 \
            else str(nproc)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Start a worker in its own process group; returns its last stdout line as JSON."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args, "--t-spawn", repr(t_spawn)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    finally:
        try:  # anything the worker left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "nitsche_lab" / "__init__.py").is_file():
        print(f"no nitsche_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        probe = lambda: spawn(common + ["--setup-only"], env, deadline)["setup_s"]
        setups = [] if args.trace else [probe()]
        record = spawn(common, env, deadline)
        if not args.trace:
            setups.append(probe())
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.insert(1, record["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["detail"]["setup_samples_s"] = setups
    print(json.dumps(record.pop("detail")))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
