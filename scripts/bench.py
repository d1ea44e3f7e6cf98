#!/usr/bin/env python3
"""Write a BENCH_<n>.json record: the benchmark's medians on one checkout.

    python scripts/bench.py [--root CHECKOUT]

Runs ``perfbench/run.py`` from the root of CHECKOUT (default: this one) on
every workload in its BENCHMARK.json, once with ``--trace 0`` (end-to-end
metrics) and once with ``--trace 1`` (per-layer metrics), for each of SEEDS
at the run length BENCHMARK.json sets. The record holds the host, the
Python and numpy versions, the checkout's commit (marked ``+modified`` when
tracked files differ from it), the line counts of its ``src/mvchroma/*.py``
and ``tests/*.py``, each run's failed and attempted op counts, and per
workload the median of each metric over the seeds. It goes to the
first free BENCH_<n>.json in CHECKOUT.

Its ``theorem`` section runs ``mvchroma theorem --gp`` on GT(r, 2) for each
r in THEOREM_DEPTHS, each in a fresh process with the BLAS/OpenMP thread
variables pinned to 1, and records the exit code, the wall time, the peak
RSS (``os.wait4``) and the report's verdicts.

Its ``reduction`` section runs ``mvchroma reduce-verify --budget-nodes
REDUCTION_BUDGET_NODES`` on one seeded random formula for each q in
REDUCTION_QS, with m = 3q ``random_clause`` draws (three distinct variables
each, so already normalized), each in a fresh process like the ``theorem``
runs, and records the exit code, ``solver_nodes``, the wall time and the
peak RSS.

Its ``solve`` section runs ``mvchroma solve --budget-nodes budget`` on
GT(r, t) for each (r, t, k, budget) in SOLVE_RUNS, with ``--k k`` when k is
not None, each in a fresh process like the ``theorem`` runs, and records
the exit code, the wall time and the peak RSS.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mvchroma import format_nae_formula, make_formula, random_clause

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# GT(16, 2), n = 196,606, is the deepest binary tree under the size cap
THEOREM_DEPTHS = (12, 13, 14, 15, 16)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# q = 4..6 reductions at m = 3q; the node budget bounds the work of a
# search that cannot decide its formula within it
REDUCTION_QS = (4, 5, 6)
REDUCTION_SEED = 20240817
REDUCTION_BUDGET_NODES = 200_000
# (r, t, k, node budget). chi_mu_exact runs greedy to the end before the
# budget stops its k sweep, so a 10-node budget measures greedy's time and
# the memory it leaves; with --k there is no greedy, and the budget stops the
# one search within 10 nodes. GT(3, 3) (n = 53) is the smallest tree whose
# closed form leaves a gap, {4, 5}: its k = 4 row measures a long search
SOLVE_RUNS = ((10, 2, None, 10), (11, 2, None, 10), (14, 2, 2, 10), (3, 3, 4, 200_000))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def commit_of(root: Path, reported: str) -> str:
    """The commit run.py reported, marked when tracked files differ from it."""
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return reported + "+modified" if status.returncode == 0 and status.stdout.strip() else reported


def line_counts(root: Path) -> dict[str, int]:
    """Lines in the checkout's ``src/mvchroma/*.py`` and ``tests/*.py``."""
    def lines(pattern):
        return sum(path.read_bytes().count(b"\n") for path in root.glob(pattern))
    return {"src": lines("src/mvchroma/*.py"), "tests": lines("tests/*.py")}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    info = next(json.loads(line[len("# info "):]) for line in lines if line.startswith("# info "))
    return info, json.loads(lines[-1])


def fresh_run(root: Path, args: list[str]) -> tuple[int, float, float]:
    """``python -m mvchroma *args`` in a fresh process: its exit code, wall
    time and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{var: "1" for var in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mvchroma", *args], cwd=root, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, wall, usage.ru_maxrss / 1024


def theorem_run(root: Path, r: int) -> dict:
    """``theorem --r r --t 2 --gp`` in a fresh process."""
    with tempfile.TemporaryDirectory() as work:
        report = Path(work) / "report.json"
        code, wall, rss = fresh_run(root, ["theorem", "--r", str(r), "--t", "2", "--gp",
                                           "--json", str(report)])
        payload = json.loads(report.read_text()) if code in (0, 3) else {}
    return {"r": r, "t": 2, "exit": code, "wall_s": wall, "peak_rss_mb": rss,
            "mv_valid": payload.get("mv_valid"), "gp_valid": payload.get("gp_valid")}


def reduction_formula(q: int) -> str:
    """The seeded formula of ``reduction_run``, in the ``p nae3`` format."""
    rng = random.Random(REDUCTION_SEED + q)
    return format_nae_formula(make_formula(q, [random_clause(rng, q) for _ in range(3 * q)]))


def reduction_run(root: Path, q: int) -> dict:
    """``reduce-verify --budget-nodes REDUCTION_BUDGET_NODES`` in a fresh process."""
    with tempfile.TemporaryDirectory() as work:
        formula, report = Path(work) / "f.nae", Path(work) / "report.json"
        formula.write_text(reduction_formula(q))
        code, wall, rss = fresh_run(root, ["reduce-verify", "--formula", str(formula),
                                           "--budget-nodes", str(REDUCTION_BUDGET_NODES),
                                           "--json", str(report)])
        payload = json.loads(report.read_text()) if code in (0, 3, 4) else {}
    return {"q": q, "m": 3 * q, "budget_nodes": REDUCTION_BUDGET_NODES, "exit": code,
            "solver_nodes": payload.get("solver_nodes"), "agree": payload.get("agree"),
            "wall_s": wall, "peak_rss_mb": rss}


def solve_run(root: Path, r: int, t: int, k: int | None, budget: int) -> dict:
    """``solve --budget-nodes budget`` on GT(r, t), with ``--k k`` unless k
    is None, in a fresh process."""
    with tempfile.TemporaryDirectory() as work:
        graph = Path(work) / "gt.col"
        fresh_run(root, ["gen-tree", "--r", str(r), "--t", str(t), "--out", str(graph)])
        k_args = [] if k is None else ["--k", str(k)]
        code, wall, rss = fresh_run(root, ["solve", "--graph", str(graph), *k_args,
                                           "--budget-nodes", str(budget)])
    return {"r": r, "t": t, "k": k, "budget_nodes": budget, "exit": code,
            "wall_s": wall, "peak_rss_mb": rss}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    args = parser.parse_args()
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    n = 0
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    out = root / f"BENCH_{n}.json"

    info = {}
    workloads = {}
    for w in spec["workloads"]:
        runs = []
        samples: dict[str, list[float]] = {}
        for trace in (0, 1):
            for seed in SEEDS:
                info, result = run_once(root, w["name"], seed, seconds, trace)
                runs.append({"seed": seed, "trace": trace, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"]})
                for name, m in result["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
                print(f"{w['name']} trace={trace} seed={seed}: failed {result['failed']} "
                      f"of {result['attempted']}", file=sys.stderr)
        workloads[w["name"]] = {
            "runs": runs,
            "medians": {name: statistics.median(v) for name, v in samples.items()},
        }
    theorem = []
    for r in THEOREM_DEPTHS:
        theorem.append(theorem_run(root, r))
        print(f"theorem GT({r},2): {theorem[-1]}", file=sys.stderr)
    reduction = []
    for q in REDUCTION_QS:
        reduction.append(reduction_run(root, q))
        print(f"reduce-verify q={q}: {reduction[-1]}", file=sys.stderr)
    solve = []
    for r, t, k, budget in SOLVE_RUNS:
        solve.append(solve_run(root, r, t, k, budget))
        print(f"solve GT({r},{t}) k={k}: {solve[-1]}", file=sys.stderr)
    record = {
        "host": {"cpu": cpu_model(), "machine": platform.machine(),
                 "system": platform.system(), "nproc": info.get("nproc")},
        "python": info.get("python"),
        "numpy": info.get("numpy"),
        "mvchroma": info.get("mvchroma"),
        "commit": commit_of(root, info.get("commit")),
        "lines": line_counts(root),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": workloads,
        "theorem": theorem,
        "reduction": reduction,
        "solve": solve,
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
