"""Golden digest of the formula commands' output on seeded formulas.

The digest pins the bytes of `reduce` (graph and legend), `reduce-verify
--json` at a deciding and a stopping node budget, `normalize` and `nae`,
with their exit codes and stderr, on formulas that include tripled, doubled
and mixed-polarity clauses.

``cli_transcript`` and ``seeded_formulas`` take no pytest fixture, so a
script can import this file to compare two trees over more formulas.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from pathlib import Path

from mvchroma.cli import main

GOLDEN_SEED = 20240817
GOLDEN_COUNT = 60
GOLDEN_SHA256 = "0c26753f0cae510ace13cabf5bb045f53ec5de96d3293cdf7186d276c7bbac06"


def seeded_formulas(seed: int, count: int) -> list[str]:
    """Formula files with q in 1..5 and 0..6 clauses. About half the
    clauses have three distinct variables; the rest have a doubled literal,
    a variable in both polarities, or one literal three times."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        q = rng.randrange(1, 6)
        lines = []
        for _ in range(rng.randrange(0, 7)):
            kind = rng.random()
            v, w = rng.randrange(1, q + 1), rng.randrange(1, q + 1)
            sv = rng.choice((1, -1))
            if kind < 0.5 and q >= 3:
                lits = [x * rng.choice((1, -1)) for x in rng.sample(range(1, q + 1), 3)]
            elif kind < 0.75:
                lits = [sv * v, sv * v, rng.choice((1, -1)) * w]
            elif kind < 0.93:
                lits = [v, -v, rng.choice((1, -1)) * w]
            else:
                lits = [sv * v] * 3
            rng.shuffle(lits)
            lines.append(" ".join(map(str, lits)) + " 0")
        texts.append("".join(f"{line}\n" for line in [f"p nae3 {q} {len(lines)}", *lines]))
    return texts


COMMANDS = (
    ("reduce", "--formula", "f.nae"),
    ("reduce", "--formula", "f.nae", "--out", "g.col", "--legend", "legend.json"),
    ("reduce-verify", "--formula", "f.nae", "--budget-nodes", "5000"),
    ("reduce-verify", "--formula", "f.nae", "--budget-nodes", "50"),
    ("normalize", "--formula", "f.nae"),
    ("nae", "--formula", "f.nae"),
)


def cli_transcript(texts: list[str], workdir: Path) -> bytes:
    """Every command of COMMANDS on every formula: argv, exit code, stdout,
    stderr and the files written, with paths relative to ``workdir`` so the
    JSON config records the same bytes wherever it runs."""
    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for text in texts:
            Path("f.nae").write_text(text)
            for argv in COMMANDS:
                for name in ("g.col", "legend.json"):
                    Path(name).unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(list(argv))
                files = [Path(n).read_text() for n in ("g.col", "legend.json") if Path(n).exists()]
                out.append("\x00".join([" ".join(argv), str(code), stdout.getvalue(), stderr.getvalue(), *files]))
    finally:
        os.chdir(cwd)
    return "\x01".join(out).encode()


def test_formula_commands_golden_digest(tmp_path):
    transcript = cli_transcript(seeded_formulas(GOLDEN_SEED, GOLDEN_COUNT), tmp_path)
    assert hashlib.sha256(transcript).hexdigest() == GOLDEN_SHA256
