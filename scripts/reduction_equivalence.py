#!/usr/bin/env python3
"""Empirically check the NAE3SAT <-> 2-color equivalence on random formulas.

For each seeded random instance the formula is normalized, the reduction
graph is built, and the brute-force NAE verdict is compared with the exact
solver's 2-colorability verdict.

Example:
    python scripts/reduction_equivalence.py --count 50 --seed 20240817
"""

import argparse
import random
import sys
import time

from mvchroma import make_formula, random_clause, verify_reduction


def random_formula(rng: random.Random, max_q: int, max_clauses: int):
    q = rng.randrange(3, max_q + 1)
    m = rng.randrange(1, max_clauses + 1)
    clauses = []
    for _ in range(m):
        if rng.random() < 0.2:
            # repeated or opposing literals exercise normalization
            v = rng.randrange(1, q + 1)
            w = rng.randrange(1, q + 1)
            clauses.append(
                [(v, rng.random() < 0.5), (v, rng.random() < 0.5), (w, rng.random() < 0.5)]
            )
        else:
            clauses.append(random_clause(rng, q))
    return make_formula(q, clauses)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--max-q", type=int, default=5)
    parser.add_argument("--max-clauses", type=int, default=6)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    disagreements = 0
    start = time.perf_counter()
    for idx in range(args.count):
        f = random_formula(rng, args.max_q, args.max_clauses)
        report = verify_reduction(f)
        tag = "trivial" if report.trivially_unsat else (
            "sat" if report.nae_satisfiable else "unsat"
        )
        mark = "ok" if report.agree else "DISAGREE"
        if not report.agree:
            disagreements += 1
        print(
            f"[{idx:3d}] q={f.q} m={len(f.clauses)} {tag:7s} "
            f"nodes={report.solver_nodes} [{mark}]"
        )
    elapsed = time.perf_counter() - start
    print(f"{args.count} instances, {disagreements} disagreements, {elapsed:.1f} s")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
