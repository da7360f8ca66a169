"""One benchmark workload in one fresh process (started by run.py).

Set-up (import, inputs of the first round, one untimed warm-up call) is
timed from the moment run.py spawned this process.  The timed part then
runs the whole number of rounds that comes nearest to ``--seconds``.  With ``--trace 1`` each
round is run twice on the same inputs, first untraced and then with spans,
and the per-layer figures come from the traced copies.  The checks run
after the timed part.  The last line of stdout is one JSON record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from run import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    mem_kb = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_round(workload, ops, tracer=None) -> float:
    """Run the operations of one round in order; returns its wall time."""
    t0 = time.perf_counter()
    with tracer.span("round") if tracer else nullcontext():
        for op in ops:
            with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
                t_op = time.perf_counter()
                try:
                    workload.run(op, tracer)
                except Exception as exc:  # counted as a failed operation
                    op.error = f"{type(exc).__name__}: {exc}"
                    op.seconds = time.perf_counter() - t_op
                    traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="perf_counter reading of the parent when it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import nitsche_lab

    where = Path(nitsche_lab.__file__).resolve().parent
    if where != ROOT / "src" / "nitsche_lab":
        print(f"nitsche_lab imported from {where}, not from this checkout", file=sys.stderr)
        return 3

    from tracing import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first = workload.round_inputs(0)
    workload.warm_up()
    setup_s = time.perf_counter() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops, walls, traced_walls, untraced_pairs = [], [], [], []
    tracer = Tracer() if args.trace else None
    start, k = time.perf_counter(), 0
    while True:
        batch = first if k == 0 else workload.round_inputs(k)
        walls.append(run_round(workload, batch))
        ops += batch
        if tracer is not None:
            again = workload.round_inputs(k)
            restore = instrument(tracer)
            try:
                traced_walls.append(run_round(workload, again, tracer))
            finally:
                restore()
            untraced_pairs.append(walls[-1])
            ops += again
        k += 1
        # stop at the whole number of rounds nearest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / k >= args.seconds:
            break
    peak_rss_mb = workload.peak_rss_mb()

    verdicts = workload.check(ops)
    import oracles

    wrong = [f"oracle self-test: {msg}" for msg in oracles.self_test()]
    wrong += [f"{op.kind} {op.inputs.get('argv', '')}: {why}" for op, why in verdicts.wrong]
    failed_ops = {id(op) for op, _ in verdicts.failed}
    for op, why in verdicts.failed:
        print(f"failed operation {op.kind}: {why}", file=sys.stderr)

    ok_ops = [op for op in ops if op.error is None]
    if tracer is not None:
        metrics = layer_metrics(tracer.spans, len(traced_walls), sum(traced_walls),
                                sum(untraced_pairs))
        self_sum = metrics["trace.self_sum_s"]["value"]
        wall = metrics["trace.wall_s"]["value"]
        if abs(self_sum - wall) > 0.01 * wall + 1e-3:
            wrong.append(f"span self times {self_sum:.4f}s do not add up to wall {wall:.4f}s")
        named = {}
    else:
        named = workload.named_metrics(ok_ops)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.fmean(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "primary_s_p50": {"value": named[workload.primary], "unit": "s"},
            "secondary_s_p50": {"value": named[workload.secondary], "unit": "s"},
        }
    for msg in wrong:
        print(f"wrong answer: {msg}", file=sys.stderr)
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        wrong.append(f"metrics without a value: {bad}")

    record = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": metrics,
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": k,
            "ops": len(ops),
            "failed_kinds": sorted({op.kind for op, _ in verdicts.failed}),
            "op_seconds": {kind: [round(op.seconds, 4) for op in ok_ops if op.kind == kind]
                           for kind in dict.fromkeys(op.kind for op in ok_ops)},
            "named_metrics": named,
            "primary": workload.primary,
            "secondary": workload.secondary,
            "notes": verdicts.notes,
            "machine": machine_facts(),
        },
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
