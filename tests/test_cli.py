import argparse
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import mvchroma.gluedtrees as gluedtrees
import mvchroma.visibility as visibility
from conftest import (
    DEFAULT_SEED,
    brute_is_gp_set,
    brute_is_mv_set,
    brute_pair_visible,
    enumerate_shortest_paths,
    k2_pendant,
)
from mvchroma import (
    build_glued_tree,
    graph_from_edge_list,
    read_coloring,
    read_graph,
    validate_gp_coloring,
    validate_mv_coloring,
    write_graph,
)
from mvchroma.cli import main
from mvchroma.errors import ClauseArityError, FormulaSyntaxError
from mvchroma.reduction import parse_nae_formula


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_formula(tmp_path, text, name="f.nae"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SAT_1 = "p nae3 3 1\n1 2 3 0\n"
UNSAT_4 = "p nae3 3 4\n1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n"
TRIVIAL = "p nae3 1 1\n1 1 1 0\n"
ROOT = Path(__file__).resolve().parent.parent


def test_gen_tree_stdout(capsys):
    code, out, _ = run(capsys, "gen-tree", "--r", "2", "--t", "2")
    assert code == 0
    g = read_graph(out)
    assert g.n == 10
    assert g.m == 12


def test_gen_tree_files_and_labels(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    lpath = tmp_path / "g.labels"
    code, _, _ = run(
        capsys,
        "gen-tree", "--r", "2", "--t", "2",
        "--out", str(gpath), "--labels", str(lpath),
    )
    assert code == 0
    assert read_graph(gpath.read_text()).n == 10
    assert lpath.read_text().count("\n") == 10


def test_gen_tree_bad_params(capsys):
    code, _, err = run(capsys, "gen-tree", "--r", "0", "--t", "2")
    assert code == 2
    assert "error" in err


def test_theorem_agree(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "theorem", "--r", "2", "--t", "2", "--exact", "--gp",
        "--json", str(jpath),
    )
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["formula"]["value"] == 3
    assert payload["construction_colors"] == 3
    assert payload["exact"] == 3
    assert payload["mv_valid"] is True
    assert "tool_version" in payload
    assert payload["config"]["r"] == 2
    assert "status" not in payload and "bounds" not in payload


def test_theorem_unexpected_gp_verdict_exits_3(monkeypatch, capsys):
    # GT(2, 2) is not a second-regime minimum, so its construction must be
    # in general position; a GP failure there is a disagreement
    monkeypatch.setattr(
        gluedtrees,
        "validate_mv_coloring",
        lambda g, c, exhaustive=False, sources=None: visibility.ValidationReport(
            True, (), 1, gp_valid=False
        ),
    )
    code, _, _ = run(capsys, "theorem", "--r", "2", "--t", "2", "--gp", "--json", os.devnull)
    assert code == 3


def test_theorem_budget_writes_report_exit_4(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    code, _, err = run(
        capsys, "theorem", "--r", "3", "--t", "2", "--exact",
        "--budget-nodes", "1", "--json", str(jpath),
    )
    assert code == 4
    assert "BUDGET bounds [1, 4]" in err
    payload = json.loads(jpath.read_text())
    assert payload["exact"] is None
    assert payload["status"] == "budget"
    assert payload["bounds"] == [1, 4]
    assert payload["construction_colors"] == 4
    assert payload["mv_valid"] is True


def test_theorem_gap_exit_2(capsys):
    code, _, err = run(capsys, "theorem", "--r", "3", "--t", "3")
    assert code == 2
    assert "gap" in err
    assert "4,5" in err


def test_validate_round_trip(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    run(capsys, "gen-tree", "--r", "2", "--t", "2", "--out", str(gpath))
    code, _, _ = run(
        capsys, "solve", "--graph", str(gpath), "--out", str(cpath)
    )
    assert code == 0
    jpath = tmp_path / "v.json"
    code, _, _ = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
        "--json", str(jpath),
    )
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_validate_invalid_exit_3(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    cpath.write_text("s color 3 1\nv 1 1\nv 2 1\nv 3 1\n")
    code, _, _ = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
        "--json", str(tmp_path / "v.json"),
    )
    assert code == 3


def test_validate_size_mismatch_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    cpath.write_text("s color 2 1\nv 1 1\nv 2 1\n")
    code, _, _ = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath)
    )
    assert code == 2


@pytest.mark.parametrize("mode", ["mv", "gp"])
def test_validate_partial_coloring_reports_coverage(tmp_path, capsys, mode):
    # the validators reject a coloring of n - 1 vertices before any report
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    cpath.write_text("s color 3 2\nv 1 1\nv 2 2\nv 3 1\n")
    code, out, err = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
        "--mode", mode,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: coloring covers 3 vertices")


@pytest.mark.parametrize("command", ["gen-tree", "theorem"])
def test_oversized_tree_exit_2(capsys, command):
    # n has over 4300 digits, more than Python will turn into a string
    code, out, err = run(capsys, command, "--r", "3000", "--t", "3000")
    assert code == 2
    assert out == ""
    assert err == "error: GT(3000,3000) has more than 200000 vertices\n"


def test_validate_disconnected_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 4 2\ne 1 2\ne 3 4\n")
    cpath.write_text("s color 4 2\nv 1 1\nv 2 2\nv 3 1\nv 4 2\n")
    code, _, err = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath)
    )
    assert code == 2
    assert "disconnected" in err


@pytest.mark.parametrize("edge, message", [
    ("e 0 1", "vertex -1 out of range 0..2"),
    ("e 1 4", "vertex 3 out of range 0..2"),
    ("e 1 99999999999999999999999", "vertex 99999999999999999999998 out of range 0..2"),
    ("e 2 2", "self-loop at vertex 1"),
], ids=["zero", "past-n", "past-int64", "self-loop"])
def test_validate_bad_edge_line_exit_2(tmp_path, capsys, edge, message):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text(f"p edge 3 2\ne 1 2\n{edge}\n")
    cpath.write_text("s color 3 1\nv 1 1\nv 2 1\nv 3 1\n")
    code, out, err = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("coloring", [
    "s color 3 1\nv 1 x\nv 2 1\nv 3 1\n",
    "s color x 1\nv 1 1\nv 2 1\nv 3 1\n",
], ids=["vertex-line", "solution-line"])
def test_validate_malformed_coloring_exit_2(tmp_path, capsys, coloring):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    cpath.write_text(coloring)
    code, _, err = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath)
    )
    assert code == 2
    assert err.startswith("error:")


def test_validate_gp_mode(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    cpath = tmp_path / "c.sol"
    gpath.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    cpath.write_text("s color 3 1\nv 1 1\nv 2 1\nv 3 1\n")
    code, _, _ = run(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
        "--mode", "gp", "--json", str(tmp_path / "v.json"),
    )
    assert code == 3


@pytest.mark.parametrize("d, colors, mode, name, listed, mapped", [
    (3, [1, 1, 2, 2, 2, 1], "mv", "v.json", 0, False),
    # every pair but the 2d + 1 edges sees only through the class
    (100, [1] * 103, "mv", "v.json", 103 * 102 // 2 - 201, False),
    (100, [1] * 103, "gp", "v.json", 103 * 102 // 2 - 201, False),
    (3, [9, 9, 9, 9, 40, 40], "mv", "v.json", 1, True),
    (3, [1] * 6, "mv", 'r "violations": [ ] } \u00e9.json', 6 * 5 // 2 - 7, False),
], ids=["valid", "one-colour-mv", "one-colour-gp", "sparse-ids", "odd-path"])
def test_validate_json_bytes_equal_json_dumps(tmp_path, capsys, d, colors, mode, name,
                                              listed, mapped):
    # the violation list is written from a template: its bytes must equal the
    # stdlib's indented, sorted encoding (which a key sorting after it breaks)
    gpath, cpath, jpath = tmp_path / "g.col", tmp_path / "c.sol", tmp_path / name
    gpath.write_text(write_graph(k2_pendant(d)))
    cpath.write_text(f"s color {len(colors)} {len(set(colors))}\n"
                     + "".join(f"v {v} {c}\n" for v, c in enumerate(colors, start=1)))
    code, _, _ = run(capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
                     "--mode", mode, "--json", str(jpath))
    text = jpath.read_text()
    payload = json.loads(text)
    # compared as lines: pytest diffs two long strings for minutes
    assert text.split("\n") == (json.dumps(payload, indent=2, sort_keys=True) + "\n").split("\n")
    assert code == (3 if listed else 0)
    assert (len(payload["violations"]), "color_mapping" in payload) == (listed, mapped)
    assert payload["config"]["json"] == str(jpath)


@pytest.mark.parametrize("listed", [None, 7], ids=["all-listed", "truncated"])
@pytest.mark.parametrize("mode", ["mv", "gp"])
def test_validate_lists_every_violating_pair(tmp_path, capsys, monkeypatch, mode, listed):
    # a 104-cycle, two geodesics between antipodes, coloured with sparse ids:
    # three random classes that violate in both modes; antipodes 10 and 62
    # with 36 on one of their geodesics, which violate GP but not MV; and
    # antipodes 0 and 52, which cannot violate
    n = 104
    g = graph_from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])
    rng = random.Random(DEFAULT_SEED)
    external = [rng.choice((10, 11, 25)) for _ in range(n)]
    external[10] = external[36] = external[62] = 40
    external[0] = external[52] = 70
    gpath, cpath, jpath = tmp_path / "g.col", tmp_path / "c.sol", tmp_path / "v.json"
    gpath.write_text(write_graph(g))
    cpath.write_text(f"s color {n} 5\n" + "".join(f"v {v + 1} {c}\n" for v, c in enumerate(external)))
    dense = {10: 0, 11: 1, 25: 2, 40: 3, 70: 4}
    classes = [[v for v in range(n) if dense[external[v]] == c] for c in range(5)]

    def violates(u, v, members):
        if mode == "mv":
            return not brute_pair_visible(g, u, v, set(members) - {u, v})
        return any(w in members for p in enumerate_shortest_paths(g, u, v) for w in p[1:-1])

    expected = [(c, u, v) for c, members in enumerate(classes)
                for u, v in combinations(members, 2) if violates(u, v, members)]
    brute_set = brute_is_mv_set if mode == "mv" else brute_is_gp_set
    failing = sorted({c for c, _, _ in expected})
    assert failing == [c for c, members in enumerate(classes) if not brute_set(g, members)]
    assert failing == ([0, 1, 2] if mode == "mv" else [0, 1, 2, 3])
    assert max(max(u, v) for _, u, v in expected) >= 100
    if listed is not None:
        monkeypatch.setattr(visibility, "MAX_LISTED_VIOLATIONS", listed)
    code, _, _ = run(capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath),
                     "--mode", mode, "--json", str(jpath))
    payload = json.loads(jpath.read_text())
    got = [(x["color"] - 1, x["u"] - 1, x["v"] - 1) for x in payload["violations"]]
    validate = validate_mv_coloring if mode == "mv" else validate_gp_coloring
    report = validate(g, read_coloring(cpath.read_text())[0], exhaustive=True)
    assert code == 3
    assert got == [(c, u, v) for u, v, c in report.violations] == expected[:listed]
    assert payload["violation_count"] == report.violation_count == len(expected)
    assert payload["color_mapping"] == {str(ext): d + 1 for ext, d in dense.items()}


def test_solve_k_feasible(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    code, out, _ = run(capsys, "solve", "--graph", str(gpath), "--k", "2")
    assert code == 0
    assert out.startswith("FEASIBLE")


def test_solve_k_infeasible_exit_3(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, "solve", "--graph", str(gpath), "--k", "1")
    assert code == 3
    assert "INFEASIBLE" in out


@pytest.mark.parametrize("k", [str(2**62), str(2**64)], ids=["2^62", "2^64"])
def test_solve_huge_k_answers_like_k_equal_n(tmp_path, capsys, k):
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    code, out, err = run(capsys, "solve", "--graph", str(gpath), "--k", k)
    assert (code, out, err) == (0, "FEASIBLE 3\n", "")


def test_solve_exact_gt2(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    cpath = tmp_path / "c.sol"
    code, out, _ = run(
        capsys, "solve", "--graph", str(gpath), "--out", str(cpath)
    )
    assert code == 0
    assert out.strip() == "CHI 3"
    coloring, _ = read_coloring(cpath.read_text())
    assert coloring.k == 3


def test_solve_budget_exit_4(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(3, 2).graph))
    code, out, _ = run(
        capsys, "solve", "--graph", str(gpath), "--budget-nodes", "1"
    )
    assert code == 4
    assert "BUDGET" in out


def test_solve_k_zero_node_budget_exit_4(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    code, out, _ = run(
        capsys, "solve", "--graph", str(gpath), "--k", "1", "--budget-nodes", "0"
    )
    assert (code, out) == (4, "BUDGET\n")


def test_solve_k_writes_the_coloring(tmp_path, capsys):
    g = build_glued_tree(2, 2).graph
    gpath, cpath = tmp_path / "g.col", tmp_path / "c.sol"
    gpath.write_text(write_graph(g))
    code, out, _ = run(capsys, "solve", "--graph", str(gpath), "--k", "3", "--out", str(cpath))
    assert (code, out) == (0, "FEASIBLE 3\n")
    coloring, _ = read_coloring(cpath.read_text())
    assert coloring.k == 3 and validate_mv_coloring(g, coloring).valid


def test_solve_empty_graph_has_chi_0(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text("p edge 0 0\n")
    code, out, err = run(capsys, "solve", "--graph", str(gpath))
    assert (code, out, err) == (0, "CHI 0\n", "")


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "{g}", "--k", "1", "--budget-nodes", "-3"],
    ["theorem", "--r", "2", "--t", "2", "--exact", "--budget-nodes", "-1"],
    ["solve", "--graph", "{g}", "--budget-secs", "nan"],
    # a JSON report cannot hold an infinite budget
    ["theorem", "--r", "2", "--t", "2", "--exact", "--budget-secs", "inf", "--json", "-"],
    ["reduce-verify", "--formula", "{f}", "--budget-secs", "1e400", "--json", "-"],
], ids=["solve-negative-nodes", "theorem-negative-nodes", "solve-nan-seconds",
        "theorem-inf-seconds", "reduce-verify-overflow-seconds"])
def test_negative_or_nan_budget_exit_2(tmp_path, capsys, argv):
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    fpath = write_formula(tmp_path, SAT_1)
    code, out, err = run(capsys, *(a.format(g=gpath, f=fpath) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_reduce_graph_and_legend(tmp_path, capsys):
    fpath = write_formula(tmp_path, SAT_1)
    gpath = tmp_path / "g.col"
    lpath = tmp_path / "legend.json"
    code, _, _ = run(
        capsys, "reduce", "--formula", fpath, "--out", str(gpath),
        "--legend", str(lpath),
    )
    assert code == 0
    g = read_graph(gpath.read_text())
    assert g.n == 18
    legend = json.loads(lpath.read_text())
    assert legend["p"] == 1
    assert len(legend["vars"]) == 3


def test_reduce_trivial_exit_3(tmp_path, capsys):
    fpath = write_formula(tmp_path, TRIVIAL)
    code, _, err = run(capsys, "reduce", "--formula", fpath)
    assert code == 3
    assert "TRIVIALLY-UNSAT" in err


def test_reduce_verify_sat(tmp_path, capsys):
    fpath = write_formula(tmp_path, SAT_1)
    jpath = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "reduce-verify", "--formula", fpath, "--json", str(jpath)
    )
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["agree"] is True
    assert payload["nae_satisfiable"] is True
    assert payload["mv_two_colorable"] is True
    assert "status" not in payload
    assert payload["forward_coloring_validates"] is True


def test_reduce_verify_budget_is_undecided(tmp_path, capsys):
    fpath = write_formula(tmp_path, SAT_1)
    jpath = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "reduce-verify", "--formula", fpath, "--budget-nodes", "1",
        "--json", str(jpath),
    )
    assert code == 4
    payload = json.loads(jpath.read_text())
    assert payload["status"] == "budget"
    assert payload["agree"] is None
    assert payload["mv_two_colorable"] is None
    assert payload["solver_budget_exhausted"] is True


def test_reduce_verify_unsat_agrees(tmp_path, capsys):
    fpath = write_formula(tmp_path, UNSAT_4)
    jpath = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "reduce-verify", "--formula", fpath, "--json", str(jpath)
    )
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["agree"] is True
    assert payload["nae_satisfiable"] is False
    assert payload["mv_two_colorable"] is False


def test_nae_sat_first_assignment(tmp_path, capsys):
    fpath = write_formula(tmp_path, SAT_1)
    code, out, _ = run(capsys, "nae", "--formula", fpath)
    assert code == 0
    assert out.strip() == "SAT -1 -2 3"


def test_nae_unsat(tmp_path, capsys):
    fpath = write_formula(tmp_path, UNSAT_4)
    code, out, _ = run(capsys, "nae", "--formula", fpath)
    assert code == 0
    assert out.strip() == "UNSAT"


def test_nae_trivially_unsat(tmp_path, capsys):
    fpath = write_formula(tmp_path, TRIVIAL)
    code, out, _ = run(capsys, "nae", "--formula", fpath)
    assert code == 0
    assert out.strip() == "TRIVIALLY-UNSAT"


def test_normalize_command(tmp_path, capsys):
    fpath = write_formula(tmp_path, "p nae3 2 1\n1 1 -2 0\n")
    code, out, _ = run(capsys, "normalize", "--formula", fpath)
    assert code == 0
    assert out.splitlines()[0] == "p nae3 3 2"


def test_normalize_trivial_exit_3(tmp_path, capsys):
    fpath = write_formula(tmp_path, TRIVIAL)
    code, out, err = run(capsys, "normalize", "--formula", fpath)
    assert code == 3
    assert out == ""
    assert "TRIVIALLY-UNSAT" in err


@pytest.mark.parametrize("header", ["p nae3 -1 0\n", "p nae3 0 0\n"])
@pytest.mark.parametrize("command", ["reduce", "reduce-verify", "normalize", "nae"])
def test_formula_without_variables_exit_2(tmp_path, capsys, header, command):
    fpath = write_formula(tmp_path, header)
    code, out, err = run(capsys, command, "--formula", fpath)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text, message", [
    ("p nae3 3 1\np nae3 3 1\n1 2 3 0\n", "duplicate header line"),
    ("p cnf 3 1\n1 2 3 0\n", "bad header: p cnf 3 1"),
    ("p nae3 x 1\n1 2 3 0\n",
     "bad header numbers: invalid literal for int() with base 10: 'x'"),
    ("p nae3 3 1\n1 y 3 0\n", "bad clause line '1 y 3 0'"),
    ("p nae3 3 1\n1 0 3 0\n", "literal 0 inside clause: '1 0 3 0'"),
], ids=["duplicate-header", "bad-header", "bad-header-numbers", "bad-clause-token",
        "literal-0-inside"])
def test_malformed_formula_exit_2(tmp_path, capsys, text, message):
    fpath = write_formula(tmp_path, text)
    assert run(capsys, "nae", "--formula", fpath) == (2, "", f"error: {message}\n")


def test_zero_literal_is_reported_before_the_arity(tmp_path, capsys):
    # "1 0 0" is two literals and the terminator: the parser reports the 0
    # literal, and only make_formula checks that a clause has three
    text, message = "p nae3 3 1\n1 0 0\n", "literal 0 inside clause: '1 0 0'"
    with pytest.raises(FormulaSyntaxError, match=message) as exc:
        parse_nae_formula(text)
    assert not isinstance(exc.value, ClauseArityError)
    fpath = write_formula(tmp_path, text)
    assert run(capsys, "reduce-verify", "--formula", fpath) == (2, "", f"error: {message}\n")


def test_reduce_over_size_cap_exit_2(tmp_path, capsys):
    # 4q + 4 = 200,008 vertices, just over the cap
    fpath = write_formula(tmp_path, "p nae3 50001 0\n")
    code, out, err = run(capsys, "reduce", "--formula", fpath)
    assert code == 2
    assert out == ""
    assert "200008 vertices" in err


def test_reduce_caps_the_graph_before_its_edges(tmp_path, capsys):
    # 10^9 variables: the edge list alone would hold 5 * 10^9 pairs
    fpath = write_formula(tmp_path, "p nae3 1000000000 0\n")
    assert run(capsys, "reduce", "--formula", fpath) == (
        2, "", "error: the reduction graph has 4000000004 vertices, more than 200000\n"
    )


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "nae", "--formula", "/nonexistent/path.nae")
    assert code == 2
    assert "error" in err


def test_bad_usage_exit_2(capsys):
    code = main(["solve"])  # missing required --graph
    capsys.readouterr()
    assert code == 2


def test_deterministic_outputs(capsys):
    _, out1, _ = run(capsys, "gen-tree", "--r", "3", "--t", "2")
    _, out2, _ = run(capsys, "gen-tree", "--r", "3", "--t", "2")
    assert out1 == out2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip()


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    run(capsys, "--version")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run(capsys, "gen-tree", "--r", "2", "--t", "2")
    run(capsys, "theorem", "--r", "2", "--t", "2", "--json", os.devnull)
    run(capsys, "solve")  # usage error
    run(capsys, "--version")
    assert built == []


def test_repeated_calls_share_no_state(tmp_path, capsys):
    # the same calls twice in one process: the shared parser must not carry
    # anything from one call into the next
    gpath, cpath, onepath = tmp_path / "g.col", tmp_path / "c.sol", tmp_path / "one.sol"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    onepath.write_text("s color 10 1\n" + "".join(f"v {v} 1\n" for v in range(1, 11)))
    fpath = write_formula(tmp_path, SAT_1)
    out = tmp_path / "out"
    out.mkdir()
    calls = [
        ["theorem", "--r", "2", "--t", "3"],
        ["theorem", "--r", "3", "--t", "2", "--gp", "--json", str(out / "gp.json")],
        ["theorem", "--r", "3", "--t", "2", "--exact", "--budget-nodes", "1",
         "--json", str(out / "budget.json")],
        ["solve", "--graph", str(gpath), "--out", str(cpath)],
        ["validate", "--graph", str(gpath), "--coloring", str(cpath),
         "--json", str(out / "valid.json")],
        ["validate", "--graph", str(gpath), "--coloring", str(onepath), "--mode", "gp"],
        ["reduce-verify", "--formula", fpath, "--json", str(out / "rv.json")],
        ["nae", "--formula", fpath],
        ["--version"],
        ["validate", "--graph", str(gpath)],  # usage error
    ]

    def one_round():
        results = [run(capsys, *argv) for argv in calls]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files["c.sol"] = cpath.read_bytes()
        return results, files

    first = one_round()
    assert [code for code, _, _ in first[0]] == [0, 0, 4, 0, 0, 3, 0, 0, 0, 2]
    assert one_round() == first


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter, so that no other test's imports are counted
    gpath = tmp_path / "g.col"
    gpath.write_text(write_graph(build_glued_tree(2, 2).graph))
    cpath = tmp_path / "c.sol"
    fpath = write_formula(tmp_path, SAT_1)
    jpath = str(tmp_path / "r.json")
    runs = [
        ["solve", "--graph", str(gpath), "--out", str(cpath)],
        ["solve", "--graph", str(gpath), "--k", "2"],
        ["reduce-verify", "--formula", fpath, "--json", jpath],
        ["theorem", "--r", "2", "--t", "2", "--exact", "--gp", "--json", jpath],
        ["validate", "--graph", str(gpath), "--coloring", str(cpath), "--json", jpath],
    ]
    script = (
        "import json, sys\n"
        "from mvchroma.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, scipy]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["CHI 3", "INFEASIBLE"]
    codes, scipy = json.loads(lines[-1])
    assert codes == [0, 3, 0, 0, 0]
    assert scipy == []
