import random

import pytest

from conftest import DEFAULT_SEED, build_h_gadget, diameter, nae_satisfies, random_clauses
from mvchroma import (
    Coloring,
    NaeAssignment,
    Status,
    assignment_to_coloring,
    build_reduction,
    coloring_to_assignment,
    format_nae_formula,
    legend_to_dict,
    make_formula,
    mv_k_colorable,
    nae_satisfiable,
    normalize,
    parse_nae_formula,
    validate_mv_coloring,
    verify_reduction,
)
from mvchroma.errors import (
    ClauseArityError,
    ColoringNotTotalError,
    FormulaSyntaxError,
    NonNormalizedInputError,
    PartialAssignmentError,
    VariableOutOfRangeError,
    WrongColorCountError,
)

UNSAT_4 = [
    [(1, True), (2, True), (3, True)],
    [(1, True), (2, False), (3, False)],
    [(1, False), (2, True), (3, False)],
    [(1, False), (2, False), (3, True)],
]


def test_parse_round_trip():
    text = "c comment\np nae3 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    f = parse_nae_formula(text)
    assert f.q == 3
    assert len(f.clauses) == 2
    again = parse_nae_formula(format_nae_formula(f))
    assert again == f


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_nae_formula("1 2 3 0\n")  # missing header
    with pytest.raises(FormulaSyntaxError):
        parse_nae_formula("p nae3 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(FormulaSyntaxError):
        parse_nae_formula("p nae3 3 2\n1 2 3 0\n")  # count mismatch
    with pytest.raises(ClauseArityError):
        parse_nae_formula("p nae3 3 1\n1 2 0\n")
    with pytest.raises(VariableOutOfRangeError):
        parse_nae_formula("p nae3 2 1\n1 2 3 0\n")


def test_make_formula_needs_three_literals_per_clause():
    with pytest.raises(ClauseArityError, match="exactly 3 literals, got 2"):
        make_formula(3, [[(1, True), (2, False)]])


def test_clause_canonical_order():
    f = make_formula(3, [[(3, True), (1, False), (2, True)]])
    assert f.clauses[0] == ((1, False), (2, True), (3, True))


def test_normalize_trivial_unsat():
    f = make_formula(1, [[(1, True), (1, True), (1, True)]])
    assert normalize(f) is None


def test_normalize_drops_mixed_polarity_clause():
    f = make_formula(2, [[(1, True), (1, False), (2, True)]])
    assert normalize(f).clauses == ()


def test_normalize_splits_doubled_literal():
    f = make_formula(2, [[(1, True), (1, True), (2, False)]])
    fn = normalize(f)
    assert fn.q == 3
    assert len(fn.clauses) == 2
    for cl in fn.clauses:
        assert len({v for v, _ in cl}) == 3
    # the split preserves NAE satisfiability of the original clause
    for x1 in (False, True):
        for x2 in (False, True):
            orig_truths = [x1, x1, not x2]
            orig_ok = any(orig_truths) and not all(orig_truths)
            split_ok = any(
                nae_satisfies(fn, (x1, x2, a))
                for a in (False, True)
            )
            assert orig_ok == split_ok


def test_normalize_keeps_distinct_clauses():
    f = make_formula(3, [[(1, True), (2, True), (3, False)]])
    assert normalize(f) == f


def test_h_gadget_structure():
    g, legend = build_h_gadget(3)
    assert g.n == 7
    assert g.m == 8
    assert g.degree(legend.c) == 4
    assert g.degree(legend.p) == 1
    for leaf in legend.leaves:
        assert g.degree(leaf) == 2


def test_reduction_sizes():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    assert rg.graph.n == 4 * 3 + 2 * 1 + 4
    assert rg.graph.m == 11 * 3 + 6 * 1 + 1
    assert diameter(rg.graph) == 4


def test_reduction_sizes_random():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(10):
        q = rng.randrange(3, 7)
        m = rng.randrange(1, 6)
        rg = build_reduction(make_formula(q, random_clauses(rng, q, m)))
        assert rg.graph.n == 4 * q + 2 * m + 4
        assert rg.graph.m == 11 * q + 6 * m + 1
        assert diameter(rg.graph) == 4


def test_reduction_rejects_non_normalized():
    f = make_formula(2, [[(1, True), (1, True), (2, False)]])
    with pytest.raises(NonNormalizedInputError):
        build_reduction(f)


def test_legend_dict_one_based():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    d = legend_to_dict(rg)
    assert d["p"] == 1
    assert d["c"] == 2
    assert d["vars"][0]["u"] == 5
    assert all(1 <= x <= rg.graph.n for x in d["clauses"][0]["T"])


def test_forward_coloring_validates():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    a = nae_satisfiable(f)
    coloring = assignment_to_coloring(rg, a)
    assert coloring.k == 2
    assert validate_mv_coloring(rg.graph, coloring).valid


def test_forward_coloring_partial_assignment():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    with pytest.raises(PartialAssignmentError):
        assignment_to_coloring(rg, NaeAssignment((True,)))


def test_backward_assignment_satisfies():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    outcome = mv_k_colorable(rg.graph, 2)
    assert outcome.status is Status.FEASIBLE
    a = coloring_to_assignment(rg, outcome.coloring)
    assert nae_satisfies(f, a.values)


def test_backward_wrong_color_count():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    with pytest.raises(WrongColorCountError):
        coloring_to_assignment(rg, Coloring(tuple(range(rg.graph.n)), rg.graph.n))


def test_backward_coloring_of_another_graph():
    # 18 vertices; a 2-vertex or 10-vertex coloring read no u_i, or two of three
    rg = build_reduction(make_formula(3, [[(1, True), (2, True), (3, True)]]))
    for c in (Coloring((0, 1), 2), Coloring((0, 1) * 5, 2)):
        with pytest.raises(ColoringNotTotalError) as exc:
            coloring_to_assignment(rg, c)
        assert str(exc.value) == f"coloring covers {c.n} vertices, graph has 18"


def test_verify_reduction_sat():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    report = verify_reduction(f)
    assert report.agree
    assert report.nae_satisfiable
    assert report.mv_two_colorable
    assert report.forward_coloring_validates


def test_verify_reduction_unsat():
    report = verify_reduction(make_formula(3, UNSAT_4))
    assert report.agree
    assert not report.nae_satisfiable
    assert not report.mv_two_colorable
    assert report.forward_coloring_validates is None


def test_verify_reduction_trivial():
    f = make_formula(1, [[(1, False), (1, False), (1, False)]])
    report = verify_reduction(f)
    assert report.trivially_unsat
    assert report.agree
