"""One workload in one fresh process: set up, timed passes, optional traced
pass, reference checks. Writes its raw figures as JSON to ``--result``.

Started by run.py, which pins the BLAS/OpenMP thread variables to 1 and puts
the checkout's ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

import workloads
from tracing import Tracer, layer_metrics, traced


# One untraced pass of each workload at mvchroma 0.1.0, in seconds, on a
# 2-vCPU Intel Xeon at 2.1 GHz; sets how many passes a run times.
NOMINAL_PASS_S = {"gt-theorem": 10.0, "nae-search": 9.0, "hub-solve": 6.0}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    return p.parse_args(argv)


def run_op(main, op, out_path: Path):
    """One closed-loop op: time cli.main(argv) alone."""
    argv = [out_path.as_posix() if a == "{out}" else a for a in op.argv]
    stdout = io.StringIO()
    error = code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # an escaping exception is a failed op, not a crash of the run
            error = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - start
    return latency, workloads.Outcome(code, error, stdout.getvalue(), out_path)


def run_pass(main, ops, out_dir: Path, tracer=None):
    """Each op in turn; returns the pass time (the sum of the op latencies,
    so the benchmark's own work between ops is left out), the latencies and
    the outcomes."""
    out_dir.mkdir(parents=True)
    latencies, outcomes = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        latency, outcome = run_op(main, op, out_dir / f"op{i:03d}.out")
        latencies.append(latency)
        outcomes.append(outcome)
    return sum(latencies), latencies, outcomes


def timed_passes(workload: str, seconds: float) -> int:
    """Whole passes to time: as many as fit in ``seconds`` at the pass time
    of ``NOMINAL_PASS_S``. The count hangs on ``--seconds`` alone and not on
    the clock, so ``attempted`` and ``failed`` repeat exactly from run to run."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. It moves less between runs than a single order
    statistic when one op's latency is noisy."""
    xs = np.sort(values)
    n = len(xs)
    if p >= 1:
        return float(xs[-1])
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 values beyond it,
    that percentile, and how many values lie beyond it."""
    n = len(values)
    beyond = min(10, n - 1)
    p = (n - beyond) / n
    return quantile(values, p), 100 * p, beyond


def main(argv=None) -> int:
    args = parse_args(argv)
    import mvchroma
    from mvchroma import cli

    src = (args.root / "src").resolve()
    if src not in Path(mvchroma.__file__).resolve().parents:
        print(f"mvchroma imported from {mvchroma.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = args.work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, args.smoke, inputs)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    outputs = args.work / "outputs"
    shutil.rmtree(outputs, ignore_errors=True)
    passes = [
        run_pass(cli.main, wl.ops, outputs / f"pass{i}")
        for i in range(timed_passes(args.workload, args.seconds))
    ]

    spans = []
    traced_wall = None
    if args.trace:
        tracer = Tracer()
        with traced(tracer):
            main = tracer.wrap("cli.main", cli.main, None)
            traced_wall, _, traced_outcomes = run_pass(main, wl.ops, outputs / "traced", tracer)
        spans = tracer.spans

    # everything below is outside the timed regions
    checker = workloads.Checker()
    checker.crosscheck(wl.ops, random.Random(f"crosscheck:{args.seed}"))
    verdicts = [[checker.check(op, o) for op, o in zip(wl.ops, outs)] for _, _, outs in passes]
    statuses = [status for per_pass in verdicts for status, _ in per_pass]
    # Means, not medians: this host's speed drifts over seconds, and a mean
    # over passes spread across the run averages the drift out.
    per_op = [statistics.fmean(p[1][i] for p in passes) for i in range(len(wl.ops))]
    tail_s, tail_pct, beyond = tail(per_op)
    attempted = len(statuses)
    result = {
        "info": {
            "mvchroma": mvchroma.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "budgets": wl.budgets,
            "instances": [op.name for op in wl.ops],
        },
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": statuses.count("failed"),
        "undecided": statuses.count("undecided"),
        "reference_errors": checker.reference_errors,
        "failures": sorted({f"{op.name}: {why}" for op, (s, why) in zip(wl.ops, verdicts[0]) if s == "failed"}),
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "end_to_end": {
            "wall_s": statistics.fmean(p[0] for p in passes),
            "op_p50_s": quantile(per_op, 0.5),
            "op_tail_s": tail_s,
            "fail_frac": statuses.count("failed") / attempted,
            "undecided_frac": statuses.count("undecided") / attempted,
        },
        "tail": {"percentile": tail_pct, "ops_beyond": beyond, "ops": len(per_op)},
        "op_latency_s": {op.name: t for op, t in zip(wl.ops, per_op)},
        "pass_latencies_s": [p[1] for p in passes],
    }
    if args.trace:
        layers = layer_metrics(spans)
        layers["formats.write_s"] = wl.write_s
        layers["visibility.wrong_verdicts"] = sum(
            checker.wrong_verdict(op, o) for op, o in zip(wl.ops, traced_outcomes)
        )
        layers["trace.overhead_s"] = traced_wall - result["end_to_end"]["wall_s"]
        result["per_layer"] = layers
        (args.work / "spans.json").write_text(json.dumps([vars(s) for s in spans]))
    result["end_to_end"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
