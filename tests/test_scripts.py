import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_theorem_sweep_reports_budget_bounds(tmp_path):
    jpath = tmp_path / "sweep.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "theorem_sweep.py"),
            "--max-n", "50", "--exact", "--budget-secs", "0.001", "--json", str(jpath),
        ],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "budget [" in proc.stdout
    rows = json.loads(jpath.read_text())["rows"]
    budget_rows = [row for row in rows if row["bounds"] is not None]
    assert budget_rows
    for row in budget_rows:
        lo, hi = row["bounds"]
        assert row["exact"] is None
        assert row["agree"] == (lo <= row["formula"] <= hi)
