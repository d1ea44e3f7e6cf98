import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvchroma import parse_nae_formula

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_sweep(*argv):
    return run_script("theorem_sweep.py", *argv)


def test_theorem_sweep_reports_budget_bounds(tmp_path):
    jpath = tmp_path / "sweep.json"
    proc = run_sweep("--max-n", "50", "--exact", "--budget-secs", "0.001", "--json", str(jpath))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "budget [" in proc.stdout
    rows = [row for row in json.loads(jpath.read_text())["rows"] if not row["gap"]]
    budget_rows = [row for row in rows if row["bounds"] is not None]
    assert budget_rows
    for row in budget_rows:
        lo, hi = row["bounds"]
        assert row["exact"] is None
        assert row["agree"] == (lo <= row["formula"] <= hi)


def test_theorem_sweep_zero_seconds_bounds_every_search(tmp_path):
    # a zero time budget stops the solver on its first node, however small
    # the search
    jpath = tmp_path / "sweep.json"
    proc = run_sweep("--max-n", "12", "--exact", "--budget-secs", "0", "--json", str(jpath))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {(row["r"], row["t"]): row for row in json.loads(jpath.read_text())["rows"]}
    assert rows[1, 2]["exact"] is None and rows[1, 2]["bounds"] == [1, 2]
    assert rows[2, 2]["exact"] is None and rows[2, 2]["bounds"] == [1, 3]


@pytest.mark.parametrize("secs", ["inf", "nan", "-1"])
def test_theorem_sweep_rejects_a_time_budget_json_cannot_hold(tmp_path, secs):
    # inf wrote "budget_secs": Infinity into the JSON; nan and -1 ended in a traceback
    jpath = tmp_path / "sweep.json"
    proc = run_sweep("--max-n", "12", "--exact", "--budget-secs", secs, "--json", str(jpath))
    assert proc.returncode == 2
    assert f"--budget-secs must be a finite number >= 0, got {float(secs)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not jpath.exists()


@pytest.mark.parametrize("flag, value", [("--count", "-3"), ("--max-q", "2"), ("--max-clauses", "0")])
def test_reduction_equivalence_rejects_bad_arguments(flag, value):
    # --max-q 2 and --max-clauses 0 ended in a traceback; --count -3 exited 0
    proc = run_script("reduction_equivalence.py", flag, value)
    assert proc.returncode == 2
    assert f"{flag} must be >= " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_reduction_equivalence_small_run_agrees():
    proc = run_script("reduction_equivalence.py", "--count", "3", "--max-q", "4", "--max-clauses", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("3 instances, 0 disagreements")


def test_theorem_sweep_gp_verdicts_match_expected(tmp_path):
    # GT(3, 2) is the smallest second-regime minimum: its construction is
    # not in general position, and the sweep expects exactly that
    jpath = tmp_path / "sweep.json"
    proc = run_sweep("--max-n", "100", "--gp", "--json", str(jpath))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 mismatches" in proc.stdout
    assert "GT(3,3): formula gap" in proc.stdout
    rows = {
        (row["r"], row["t"]): row
        for row in json.loads(jpath.read_text())["rows"]
        if not row["gap"]
    }
    assert rows[3, 2]["gp_expected"] is False and rows[3, 2]["gp_valid"] is False
    assert all(row["gp_valid"] == row["gp_expected"] for row in rows.values())
    assert sum(row["gp_expected"] for row in rows.values()) == len(rows) - 1


def import_bench():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return bench


def test_bench_reduction_formula_is_the_pinned_draw():
    # the q = 4 formula the reduction section has always run; make_formula
    # sorts each clause's literals, so only the text's literal order may move
    golden = """p nae3 4 12
-2 3 -4 0
4 -3 1 0
3 -4 -1 0
2 -3 -1 0
4 2 -1 0
1 -2 4 0
3 1 2 0
-3 -2 4 0
4 2 -1 0
-1 -3 4 0
2 3 -4 0
2 -1 -4 0
"""
    bench = import_bench()
    assert parse_nae_formula(bench.reduction_formula(4)) == parse_nae_formula(golden)


def test_bench_theorem_run_records_a_fresh_process():
    bench = import_bench()
    # GT(3, 2) is a second-regime minimum: MV-valid, not in general position
    row = bench.theorem_run(ROOT, 3)
    assert (row["exit"], row["mv_valid"], row["gp_valid"]) == (0, True, False)
    assert row["wall_s"] > 0 and row["peak_rss_mb"] > 1


def test_bench_line_counts_cover_src_and_tests():
    counts = import_bench().line_counts(ROOT)
    for key, pattern in (("src", "src/mvchroma/*.py"), ("tests", "tests/*.py")):
        paths = sorted(ROOT.glob(pattern))
        assert paths and counts[key] == sum(len(p.read_text().splitlines()) for p in paths)


def test_bench_solve_run_records_a_fresh_process():
    # chi_mu(GT(3, 2)) = 4, and 10 nodes settle neither the k sweep below it
    # nor the k = 2 search, and a leaf of GT(2, 3) (n = 17) is 17 nodes deep
    bench = import_bench()
    for r, t, k in ((3, 2, None), (3, 2, 2), (2, 3, 3)):
        row = bench.solve_run(ROOT, r, t, k, 10)
        assert (row["exit"], row["r"], row["t"], row["k"], row["budget_nodes"]) == (4, r, t, k, 10)
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 1
    # the GT(3, 3) row's search runs past its 200,000 nodes
    assert (3, 3, 4, 200_000) in bench.SOLVE_RUNS
