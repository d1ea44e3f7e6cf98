"""Command-line surface.

Exit codes: 0 success/agreement, 2 usage or input error, 3 semantic negative
(invalid coloring, theorem mismatch, trivially-unsat input to reduce or
normalize), 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import BudgetExhaustedError, InvalidParamsError, MvChromaError
from .formats import (
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
    write_labels,
)
from .gluedtrees import build_glued_tree, verify_theorem
from .reduction import (
    build_reduction,
    format_nae_formula,
    legend_to_dict,
    normalize,
    parse_nae_formula,
    verify_reduction,
)
from .solver import Budget, Status, chi_mu_exact, mv_k_colorable, nae_satisfiable
from .visibility import validate_gp_coloring, validate_mv_coloring

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


def _write(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w") as fh:
            fh.write(content)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _violation_list(pairs: np.ndarray) -> str:
    """The (u, v, color) rows of ``pairs``, 0-based, as validate's 1-based
    "violations" list, with the bytes json.dumps(indent=2, sort_keys=True)
    writes. An entry is three pieces, its colour's, its u's and its v's,
    gathered from a string table per column that holds one piece per id
    the column uses."""
    if not len(pairs):
        return "[]"

    def column(j, before, after=""):
        ids = pairs[:, j]
        slot = np.zeros(int(ids.max()) + 1, dtype=np.int64)
        slot[ids] = 1
        used = np.flatnonzero(slot)
        slot[used] = np.arange(len(used))  # an id's row in the table
        return np.array([f"{before}{i + 1}{after}" for i in used.tolist()], dtype=object)[slot[ids]]

    pieces = np.stack((
        column(2, '    {\n      "color": '),
        column(0, ',\n      "u": '),
        column(1, ',\n      "v": ', "\n    },\n"),
    ), axis=1)
    return f"[\n{''.join(pieces.ravel().tolist())[:-2]}\n  ]"


def _json_report(
    args: argparse.Namespace, payload: dict, ok, stopped=False, violations=None
) -> int:
    """End a JSON command: write payload, with the version and config, to
    --json; exit 4 when a budget stopped the run, else 0 if ok, else 3.

    ``violations``, a report's array of (u, v, color) rows, becomes the
    "violations" list. The key sorts after every other, so the list is
    written by _violation_list in place of the dump's closing "\n}", with
    the bytes json.dumps would write.
    """
    if stopped:
        payload["status"] = "budget"
    payload["tool_version"] = __version__
    payload["config"] = {k: v for k, v in vars(args).items() if k != "func"}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if violations is not None:
        text = f'{text[:-2]},\n  "violations": {_violation_list(violations)}\n}}'
    _write(args.json, text + "\n")
    if stopped:
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_NEGATIVE


def _budget(args: argparse.Namespace) -> Budget:
    """The one budget every search of the command draws on. Its seconds must
    be finite, since the JSON reports write them and JSON has no infinity."""
    if args.budget_secs is not None and not math.isfinite(args.budget_secs):
        raise InvalidParamsError("time budget must be a finite number of seconds")
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def cmd_gen_tree(args) -> int:
    tree = build_glued_tree(args.r, args.t)
    _write(args.out, write_graph(tree.graph))
    if args.labels:
        _write(args.labels, write_labels(tree))
    return EXIT_OK


def cmd_theorem(args) -> int:
    report = verify_theorem(
        args.r, args.t, exact=args.exact, gp=args.gp, budget=_budget(args)
    )
    payload = asdict(report)
    if report.bounds is None:
        del payload["bounds"]
    else:
        lo, hi = report.bounds
        print(f"BUDGET bounds [{lo}, {hi}]", file=sys.stderr)
    return _json_report(args, payload, report.agree, report.bounds is not None)


def cmd_validate(args) -> int:
    g = read_graph(_read(args.graph))
    coloring, mapping = read_coloring(_read(args.coloring))
    if args.mode == "mv":
        report = validate_mv_coloring(g, coloring, exhaustive=True)
    else:
        report = validate_gp_coloring(g, coloring, exhaustive=True)
    payload = {
        "valid": report.valid,
        "mode": args.mode,
        "violation_count": report.violation_count,
        "checked_pairs": report.checked_pairs,
    }
    if any(ext - 1 != dense for ext, dense in mapping.items()):
        payload["color_mapping"] = {str(ext): dense + 1 for ext, dense in mapping.items()}
    return _json_report(args, payload, report.valid, violations=report.pairs)


def cmd_solve(args) -> int:
    g = read_graph(_read(args.graph))
    budget = _budget(args)
    if args.k is not None:
        outcome = mv_k_colorable(g, args.k, budget=budget)
        if outcome.status is Status.FEASIBLE:
            print(f"FEASIBLE {outcome.coloring.k}")
            if args.out:
                _write(args.out, write_coloring(outcome.coloring))
            return EXIT_OK
        if outcome.status is Status.INFEASIBLE:
            print("INFEASIBLE")
            return EXIT_NEGATIVE
        print("BUDGET")
        return EXIT_BUDGET
    try:
        k, coloring = chi_mu_exact(g, budget=budget)
    except BudgetExhaustedError as e:
        print(f"BUDGET bounds [{e.lo}, {e.hi}]")
        return EXIT_BUDGET
    print(f"CHI {k}")
    if args.out:
        _write(args.out, write_coloring(coloring))
    return EXIT_OK


def _normalized_formula(args):
    """Parse and normalize --formula; None when normalizing refutes it."""
    return normalize(parse_nae_formula(_read(args.formula)))


def cmd_reduce(args) -> int:
    formula = _normalized_formula(args)
    if formula is None:
        print("TRIVIALLY-UNSAT", file=sys.stderr)
        return EXIT_NEGATIVE
    rg = build_reduction(formula)
    _write(args.out, write_graph(rg.graph))
    if args.legend:
        _write(args.legend, json.dumps(legend_to_dict(rg), indent=2) + "\n")
    return EXIT_OK


def cmd_reduce_verify(args) -> int:
    f = parse_nae_formula(_read(args.formula))
    report = verify_reduction(f, budget=_budget(args))
    return _json_report(args, asdict(report), report.agree, report.solver_budget_exhausted)


def cmd_nae(args) -> int:
    formula = _normalized_formula(args)
    if formula is None:
        print("TRIVIALLY-UNSAT")
        return EXIT_OK
    assignment = nae_satisfiable(formula)
    if assignment is None:
        print("UNSAT")
        return EXIT_OK
    lits = " ".join(
        str(i if val else -i) for i, val in enumerate(assignment.values, start=1)
    )
    print(f"SAT {lits}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    formula = _normalized_formula(args)
    if formula is None:
        print("TRIVIALLY-UNSAT", file=sys.stderr)
        return EXIT_NEGATIVE
    _write(args.out, format_nae_formula(formula))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvchroma",
        description="Mutual-visibility colorings: generate, validate, solve, reduce.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the budget flags of every command that runs the exact solver
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget-nodes", type=int, default=None)
    budgeted.add_argument("--budget-secs", type=float, default=None)

    p = sub.add_parser("gen-tree", help="generate a glued t-ary tree")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--labels", default=None)
    p.set_defaults(func=cmd_gen_tree)

    p = sub.add_parser(
        "theorem", parents=[budgeted], help="check formula vs constructive coloring"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--gp", action="store_true")
    p.add_argument("--json", default="-")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("validate", help="validate a coloring file")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--mode", choices=["mv", "gp"], default="mv")
    p.add_argument("--json", default="-")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "solve", parents=[budgeted], help="decide k-colorability or compute the exact value"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="build the reduction graph from a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--legend", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reduce-verify", parents=[budgeted], help="check both reduction directions")
    p.add_argument("--formula", required=True)
    p.add_argument("--json", default="-")
    p.set_defaults(func=cmd_reduce_verify)

    p = sub.add_parser("nae", help="brute-force NAE3SAT decision")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_nae)

    p = sub.add_parser("normalize", help="normalize a formula to 3 distinct variables per clause")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_normalize)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(e.code or 0)
    try:
        return args.func(args)
    except (MvChromaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
