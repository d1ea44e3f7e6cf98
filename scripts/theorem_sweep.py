#!/usr/bin/env python3
"""Sweep glued-tree instances and compare the closed-form color count with
the constructive coloring (and optionally the exact solver).

Example:
    python scripts/theorem_sweep.py --max-n 2000
    python scripts/theorem_sweep.py --max-n 200 --exact --budget-secs 5

When the exact solver runs out of budget the row prints ``budget [lo, hi]``
and counts as a mismatch only if the formula lies outside those bounds.
With --gp, a row also counts as a mismatch when the construction's general
position verdict differs from the expected one (``TheoremReport.agree``):
valid except at the second regime's smallest depth (``TheoremReport.gp_expected``).
"""

import argparse
import json
import math
import sys
import time

from mvchroma import (
    Budget,
    chi_mu_formula,
    glued_tree_order,
    verify_theorem,
)


def covered_instances(args: argparse.Namespace):
    t = 2
    while glued_tree_order(1, t) <= args.max_n:
        r = 1
        while glued_tree_order(r, t) <= args.max_n:
            yield r, t
            r += 1
        t += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=2000)
    parser.add_argument("--exact", action="store_true", help="also run the exact solver")
    parser.add_argument("--gp", action="store_true", help="also validate general position")
    parser.add_argument("--budget-secs", type=float, default=None)
    parser.add_argument("--json", default=None, help="write a JSON summary here")
    args = parser.parse_args()
    # the JSON summary writes the seconds, and JSON has no infinity or NaN
    if args.budget_secs is not None and not 0 <= args.budget_secs < math.inf:
        parser.error(f"--budget-secs must be a finite number >= 0, got {args.budget_secs}")

    rows = []
    failures = 0
    start = time.perf_counter()
    for r, t in covered_instances(args):
        formula = chi_mu_formula(r, t)
        if formula.gap:
            print(f"GT({r},{t}): formula gap, candidates {formula.candidates}")
            rows.append({"r": r, "t": t, "gap": True, "candidates": list(formula.candidates)})
            continue
        budget = Budget(max_seconds=args.budget_secs)
        report = verify_theorem(r, t, exact=args.exact, gp=args.gp, budget=budget)
        bounds = None if report.bounds is None else list(report.bounds)
        mark = "ok" if report.agree else "MISMATCH"
        if not report.agree:
            failures += 1
        if bounds is not None:
            exact = f" exact=budget [{bounds[0]}, {bounds[1]}]"
        else:
            exact = f" exact={report.exact}" if args.exact else ""
        n = glued_tree_order(r, t)
        print(
            f"GT({r},{t}): n={n} formula={formula.value} "
            f"construction={report.construction_colors} mv_valid={report.mv_valid}"
            + exact
            + (f" gp_valid={report.gp_valid}" if args.gp else "")
            + f" [{mark}]"
        )
        rows.append(
            {
                "r": r,
                "t": t,
                "n": n,
                "gap": False,
                "formula": formula.value,
                "construction": report.construction_colors,
                "mv_valid": report.mv_valid,
                "gp_valid": report.gp_valid,
                "gp_expected": report.gp_expected,
                "exact": report.exact,
                "bounds": bounds,
                "agree": report.agree,
            }
        )
    elapsed = time.perf_counter() - start
    print(f"{len(rows)} instances, {failures} mismatches, {elapsed:.1f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"config": vars(args), "rows": rows}, fh, indent=2, sort_keys=True)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
