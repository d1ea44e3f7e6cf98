"""mvchroma benchmark: three closed-loop workloads of in-process CLI calls.

    python3 perfbench/run.py --workload gt-theorem|nae-search|hub-solve \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. Each op is one ``mvchroma.cli.main(argv)``
call; a single client issues the ops one after another (closed loop, no extra
threads or processes). The workload runs in its own fresh process, so that
``peak_rss_mb`` belongs to it alone, with the BLAS/OpenMP thread variables
pinned to 1. The timed phase repeats whole passes over the workload's fixed op
list, as many as fit in ``--seconds`` at the seed commit's pass time (a count
that hangs on ``--seconds`` alone). ``wall_s`` is the mean pass time; ``op_p50_s``
and ``op_tail_s`` are taken over each op's mean latency across the passes.
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes, the timed
one and as many started before it as after it, of the time from process start
to the first timed op. With ``--trace 1`` one more pass
runs with spans around mvchroma's public functions, and the per-layer metrics
are reported instead of the end-to-end ones.

Every op's output is checked against a reference the benchmark computes
itself. An op fails on an exception out of ``cli.main``, an unexpected exit
code or a wrong report field; it is undecided when the node budget ran out.
The last line of standard output is one JSON object: ``correct`` (every op
was judged and the reference agreed with mvchroma's ``pair_visible`` on
sampled pairs), ``attempted`` and ``failed`` (ops over all timed passes) and
``metrics``. ``--smoke`` runs tiny instances for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
UNITS = {"fail_frac": "ratio", "undecided_frac": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("gt-theorem", "nae-search", "hub-solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for the benchmark's tests")
    return p.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args, root: Path, work: Path, setup_only: bool) -> dict:
    result = work / ("setup.json" if setup_only else "result.json")
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--work", str(work), "--result", str(result),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)], env=child_env(root), cwd=root,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return rev.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "mvchroma" / "__init__.py").is_file():
        print(f"{root} holds no mvchroma source (src/mvchroma); run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Set-up samples from before and after the timed process, so that they
    # span the same stretch of time as the timed passes do.
    def sample_setups():
        return [run_child(args, root, work, setup_only=True)["setup_s"]
                for _ in range(SETUP_SAMPLES // 2)]

    setups = sample_setups()
    res = run_child(args, root, work, setup_only=False)
    setups += [res["setup_s"]] + sample_setups()

    measured = dict(res["end_to_end"], setup_s=statistics.median(setups))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNITS)
    info = dict(res["info"], commit=git_commit(root), nproc=os.cpu_count(), setup_samples_s=setups)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# info " + json.dumps(info))
    print(f"# {res['passes']} timed passes of {res['ops_per_pass']} ops")
    for name, value in measured.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    t = res["tail"]
    print(f"# op_tail_s is p{t['percentile']:.1f} of {t['ops']} per-op mean latencies "
          f"({t['ops_beyond']} ops beyond it)")
    print(f"# fail_frac: {res['failed']} of {res['attempted']} ops failed; "
          f"undecided_frac: {res['undecided']} of {res['attempted']} ran out of node budget")
    for line in res["failures"]:
        print(f"# failed op {line}")
    for line in res["reference_errors"]:
        print(f"# reference disagrees with pair_visible: {line}")
    layers = res.get("per_layer", {})
    for name, value in layers.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    if layers:
        print("# graph.apsp_bytes is computed (12 n^2 for the largest n), not measured; "
              "per-layer times are inclusive of nested calls")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else measured
    (work / "result.json").write_text(json.dumps(dict(res, info=info, setup_s=measured["setup_s"])))
    print(json.dumps({
        "correct": not res["reference_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
