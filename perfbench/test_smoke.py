"""Tests of the benchmark itself, on its tiny smoke instances.

    python3 -m pytest perfbench
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    printed = wanted + [{"name": "fail_frac", "unit": "ratio"}, {"name": "undecided_frac", "unit": "ratio"}]
    for m in printed:
        pattern = rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(pattern, proc.stdout, re.M), m["name"]
    # every op was judged against the reference, and on these inputs none fails
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "hub-solve", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_checker_flags_wrong_exit_codes_and_exceptions(tmp_path):
    wl = workloads.build("hub-solve", 7, True, tmp_path)
    checker = workloads.Checker()
    validate = next(op for op in wl.ops if op.kind == "validate" and op.instance[1] == "mv")
    out = tmp_path / "out.json"
    assert checker.check(validate, workloads.Outcome(3, None, "", out))[0] == "failed"
    assert checker.wrong_verdict(validate, workloads.Outcome(3, None, "", out))
    solve = next(op for op in wl.ops if op.kind == "solve")
    crashed = workloads.Outcome(None, "AssertionError: greedy invariant broken", "", out)
    assert checker.check(solve, crashed)[0] == "failed"
    assert checker.check(solve, workloads.Outcome(4, None, "BUDGET bounds [1, 2]\n", out))[0] == "undecided"


def test_references_match_the_definitions():
    # K_{2,3} plus a pendant on leaf 2: the leaves {2, 3, 4} and hub 0 in one
    # class still see each other through hub 1; with hub 1 in the class too,
    # every pair at distance 2 is blocked.
    n, edges = workloads.k2_pendant(3)
    ref = workloads.GraphReference(workloads.GraphInstance("k", n, edges, "k"))
    assert ref.mv_violations([0, 1, 0, 0, 0, 1]) == []
    assert ref.mv_violations([0, 0, 0, 0, 0, 1]) == [(0, 1, 0), (2, 3, 0), (2, 4, 0), (3, 4, 0)]
    # leaf 2, hub 0, leaf 3 lie on one geodesic
    assert (2, 3, 0) in ref.gp_violations([0, 1, 0, 0, 1, 1])
    assert workloads.nae_reference(3, [[(1, True), (1, True), (1, True)]]) == (True, False)
    assert workloads.nae_reference(3, [[(1, True), (2, True), (3, False)]]) == (False, True)


def test_k2_random_colorings_have_one_shape_for_every_seed():
    # hubs in class 0, pendant's leaf in class 2, pendant in class 1, the
    # other 199 leaves split 67/66/66: 133 leaves outside the hubs' class
    for seed in (1, 2):
        colors = workloads.k2_random_coloring(random.Random(seed), 200)
        assert colors[:3] == [0, 0, 2] and colors[-1] == 1
        assert [colors[3:-1].count(c) for c in range(3)] == [67, 66, 66]


def test_timed_pass_count_hangs_on_seconds_alone():
    from child import NOMINAL_PASS_S, timed_passes

    assert timed_passes("hub-solve", 5 * NOMINAL_PASS_S["hub-solve"]) == 5
    assert all(timed_passes(w, 0.5) == 1 for w in NOMINAL_PASS_S)


def test_checker_accepts_a_decided_reduction_and_rejects_a_wrong_one(tmp_path):
    from mvchroma import cli

    formula = workloads.FormulaInstance(3, [[(1, True), (2, True), (3, False)]], str(tmp_path / "f.nae"))
    Path(formula.path).write_text("p nae3 3 1\n1 2 -3 0\n")
    op = workloads.Op("f", "reduce-verify", (), formula)
    out = tmp_path / "out.json"
    code = cli.main(["reduce-verify", "--formula", formula.path, "--json", str(out)])
    checker = workloads.Checker()
    assert checker.check(op, workloads.Outcome(code, None, "", out)) == ("ok", "")
    report = json.loads(out.read_text())
    out.write_text(json.dumps(dict(report, mv_two_colorable=False)))
    assert checker.check(op, workloads.Outcome(code, None, "", out))[0] == "failed"
