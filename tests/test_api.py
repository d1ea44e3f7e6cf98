"""The package's public surface: what the benchmark calls stays, and the
test-only helpers stay out of ``src``."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

import mvchroma
from mvchroma.errors import (
    ClauseArityError,
    ColoringNotTotalError,
    GraphFormatError,
    InvalidParamsError,
    InvalidQuasiLeafError,
    OutOfRangeVertexError,
    SizeCapExceededError,
    VariableOutOfRangeError,
)

MODULES = ("cli", "graph", "gluedtrees", "reduction", "visibility", "solver", "formats")

# (module, function) pairs the benchmark in perfbench/ traces or imports
BENCHMARK_NAMES = [
    ("graph", "all_pairs_distances"),
    ("graph", "graph_from_edge_list"),
    ("gluedtrees", "build_glued_tree"),
    ("gluedtrees", "constructive_coloring"),
    ("gluedtrees", "chi_mu_formula"),
    ("gluedtrees", "verify_theorem"),
    ("reduction", "parse_nae_formula"),
    ("reduction", "normalize"),
    ("reduction", "build_reduction"),
    ("reduction", "verify_reduction"),
    ("reduction", "make_formula"),
    ("reduction", "format_nae_formula"),
    ("visibility", "validate_mv_coloring"),
    ("visibility", "validate_gp_coloring"),
    ("visibility", "pair_visible"),
    ("visibility", "coloring_from_list"),
    ("solver", "mv_k_colorable"),
    ("solver", "greedy_upper_bound"),
    ("solver", "chi_mu_exact"),
    ("solver", "nae_satisfiable"),
    ("formats", "read_graph"),
    ("formats", "read_coloring"),
    ("formats", "write_graph"),
    ("formats", "write_coloring"),
]

# helpers only tests called; the brute-force versions live in conftest.py
REMOVED = (
    "geodesic_count",
    "on_some_geodesic",
    "diameter",
    "cycle_class_intersection",
    "nae_assignment_satisfies",
    "build_h_gadget",
    "HGadgetLegend",
    "bfs_distances",
    "solver_vertex_order",
    "BudgetExhaustedError",
    "read_labels",
)


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES)
def test_benchmark_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"mvchroma.{module}"), name))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helpers_are_gone(name):
    assert not hasattr(mvchroma, name)
    assert not hasattr(mvchroma.errors, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"mvchroma.{module}"), name)


def test_removed_methods_are_gone():
    assert not hasattr(mvchroma.Graph, "neighbors")
    assert not hasattr(mvchroma.Graph, "has_edge")
    # one adjacency: the CSR arrays, and no tuples, masks or derived copy
    g = mvchroma.graph_from_edge_list(3, [(0, 1), (1, 2)])
    for name in ("adjacency", "neighbor_masks", "csr"):
        assert not hasattr(mvchroma.Graph, name)
        assert not hasattr(g, name)
    assert [f.name for f in dataclasses.fields(g)] == ["n", "indptr", "indices"]
    for a in (g.indptr, g.indices):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert not hasattr(mvchroma.CycleDecomposition, "q_side1")
    assert not hasattr(mvchroma.CycleDecomposition, "q_side2")
    assert not hasattr(mvchroma.NaeAssignment, "value")
    # a search's pair tables live in the solver, not in the distance oracle
    assert not hasattr(mvchroma.DistanceOracle, "prefix_tables")
    assert not hasattr(importlib.import_module("mvchroma.graph"), "PrefixTable")


P3 = [(0, 1), (1, 2)]
NON_INTEGER_CALLS = {
    "tree-r": (InvalidParamsError, lambda: mvchroma.build_glued_tree(2.5, 2)),
    "tree-t": (InvalidParamsError, lambda: mvchroma.build_glued_tree(2, 2.0)),
    "graph-n": (OutOfRangeVertexError, lambda: mvchroma.graph_from_edge_list(3.0, P3)),
    "edge-list": (
        OutOfRangeVertexError,
        lambda: mvchroma.graph_from_edge_list(3, [(0, 1.7), (1, 2)]),
    ),
    "edge-array": (
        OutOfRangeVertexError,
        lambda: mvchroma.graph_from_edge_list(3, np.array([(0, 1.7), (1, 2)])),
    ),
    "k": (
        InvalidParamsError,
        lambda: mvchroma.mv_k_colorable(mvchroma.graph_from_edge_list(3, P3), 1.5),
    ),
    "formula-r": (InvalidParamsError, lambda: mvchroma.chi_mu_formula(2.5, 2)),
    "formula-t": (InvalidParamsError, lambda: mvchroma.chi_mu_formula(2, 2.0)),
    "tree-order": (InvalidParamsError, lambda: mvchroma.glued_tree_order(2.5, 2)),
    "cycle-leaf": (
        InvalidQuasiLeafError,
        lambda: mvchroma.cycle_vertices(mvchroma.build_glued_tree(2, 2), 1.5, 3),
    ),
    "formula-q": (VariableOutOfRangeError, lambda: mvchroma.make_formula(3.5, [])),
    "clause-variable": (
        VariableOutOfRangeError,
        lambda: mvchroma.make_formula(4, [[(1, True), (2, False), (3.7, True)]]),
    ),
    "budget-nodes": (InvalidParamsError, lambda: mvchroma.Budget(max_nodes="5")),
    "mv-set-vertex": (
        OutOfRangeVertexError,
        lambda: mvchroma.is_mv_set(mvchroma.build_glued_tree(2, 2).graph, [0.5, 1.9, 3]),
    ),
    "sweep-source": (
        OutOfRangeVertexError,
        lambda: mvchroma.validate_mv_coloring(*_gt22_coloring(), sources=[0.7]),
    ),
    "color": (ColoringNotTotalError, lambda: mvchroma.coloring_from_list([0, 1.5, 1])),
    "tree-quasi": (InvalidQuasiLeafError, lambda: mvchroma.build_glued_tree(2, 2).quasi(1.5)),
    "tree-internal": (
        InvalidParamsError,
        lambda: mvchroma.build_glued_tree(2, 2).internal(1, 2, 1.5),
    ),
    "tree-coord": (OutOfRangeVertexError, lambda: mvchroma.build_glued_tree(2, 2).coord(3.5)),
    "oracle-d": (
        OutOfRangeVertexError,
        lambda: mvchroma.graph_from_edge_list(3, P3).oracle.d(1.5, 2),
    ),
    "pair-visible": (OutOfRangeVertexError, lambda: _p3_pair_visible(0, 2.5, [1])),
}


def _p3_pair_visible(u, v, same_class):
    g = mvchroma.graph_from_edge_list(3, P3)
    return mvchroma.visibility.pair_visible(g, g.oracle, u, v, same_class)


def _gt22_coloring():
    """GT(2, 2) and its constructive coloring."""
    tree = mvchroma.build_glued_tree(2, 2)
    return tree.graph, mvchroma.constructive_coloring(tree)


@pytest.mark.parametrize("call", NON_INTEGER_CALLS)
def test_non_integer_inputs_rejected(call):
    error, make = NON_INTEGER_CALLS[call]
    with pytest.raises(error, match="integer"):
        make()


def _path_csr(n):
    """The CSR arrays of the path 0-1-...-(n-1)."""
    v = np.arange(n)
    nbrs = np.stack((v - 1, v + 1), axis=1).ravel()
    degree = (v > 0).astype(np.int64) + (v < n - 1)
    return np.concatenate(([0], np.cumsum(degree))), nbrs[(nbrs >= 0) & (nbrs < n)]


# each type checks its own rules, so a value built directly is held to them
DIRECT_CONSTRUCTIONS = {
    "coloring-non-integer": (
        ColoringNotTotalError, "color must be an integer, got 1.5",
        lambda: mvchroma.validate_mv_coloring(
            mvchroma.graph_from_edge_list(3, P3), mvchroma.Coloring((0, 1.5, 0), 2)
        ),
    ),
    "coloring-negative": (
        ColoringNotTotalError, "color ids outside 0..1",
        lambda: mvchroma.Coloring((0, -1, 0), 2),
    ),
    "coloring-k": (
        ColoringNotTotalError, "color count must be an integer, got 2.0",
        lambda: mvchroma.Coloring((0, 1, 0), 2.0),
    ),
    "graph-negative-n": (
        OutOfRangeVertexError, "vertex count must be non-negative",
        lambda: mvchroma.Graph(-1, [], []),
    ),
    "graph-past-cap": (
        SizeCapExceededError, "300000 vertices is more than 200000",
        lambda: mvchroma.Graph(300_000, *_path_csr(300_000)),
    ),
    "graph-ragged-list": (
        GraphFormatError, "indptr is not a one-dimensional integer array",
        lambda: mvchroma.Graph(2, [[0], [1, 2]], [1, 0]),
    ),
    "graph-uint64-past-int64": (
        OutOfRangeVertexError, f"vertex {2**64 - 1} out of range 0..1",
        lambda: mvchroma.Graph(
            2, np.array([0, 1, 2], np.uint64), np.array([2**64 - 1, 0], np.uint64)
        ),
    ),
    "edges-ragged-list": (
        GraphFormatError, "edges are not (u, v) pairs",
        lambda: mvchroma.graph_from_edge_list(3, [(0, 1), (1,)]),
    ),
    # two triples hold six ids, which would read as three pairs
    "edges-triples": (
        GraphFormatError, "edges are not (u, v) pairs",
        lambda: mvchroma.graph_from_edge_list(4, [(0, 1, 2), (1, 3, 0)]),
    ),
    "edges-one-triple": (
        GraphFormatError, "edges are not (u, v) pairs",
        lambda: mvchroma.graph_from_edge_list(4, [(0, 1, 2)]),
    ),
    "formula-variable-past-q": (
        VariableOutOfRangeError, "variable 3 out of range 1..2",
        lambda: mvchroma.NaeFormula(2, (((1, True), (2, True), (3, False)),)),
    ),
    "formula-two-literals": (
        ClauseArityError, "clause must have exactly 3 literals, got 2",
        lambda: mvchroma.NaeFormula(3, [[(1, True), (2, True)]]),
    ),
}


@pytest.mark.parametrize("call", DIRECT_CONSTRUCTIONS)
def test_direct_constructions_checked(call):
    error, message, make = DIRECT_CONSTRUCTIONS[call]
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_graph_keeps_its_own_read_only_arrays():
    indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
    g = mvchroma.Graph(2, indptr, indices)
    indptr[1], indices[0] = 0, 0
    assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 1, 2], [1, 0])
    # a read-only array is copied too: its owner may switch the flag back on
    indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
    for a in (indptr, indices):
        a.setflags(write=False)
    g = mvchroma.Graph(2, indptr, indices)
    for a in (indptr, indices):
        a.setflags(write=True)
    indptr[1], indices[0] = 0, 0
    assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 1, 2], [1, 0])
    # lists and other integer dtypes are copied into read-only int64 arrays
    for g in (mvchroma.Graph(np.int64(2), [0, 1, 2], [1, 0]),
              mvchroma.Graph(2, np.array([0, 1, 2], np.uint8), np.array([1, 0], np.int32))):
        assert (type(g.n), g.edges()) == (int, [(0, 1)])
        for a in (g.indptr, g.indices):
            assert a.dtype == np.int64 and not a.flags.writeable


def test_direct_colorings_and_formulas_are_canonical():
    c = mvchroma.Coloring(np.array([0, 1, 0], dtype=np.int8), np.int64(2))
    assert c == mvchroma.Coloring((0, 1, 0), 2)
    assert {type(x) for x in (*c.colors, c.k)} == {int}
    f = mvchroma.NaeFormula(np.int64(3), [[(3, 1), (1, True), (2, False)]])
    assert f == mvchroma.make_formula(3, [[(1, True), (2, False), (3, True)]])
    assert f.clauses == (((1, True), (2, False), (3, True)),) and type(f.q) is int


def test_numpy_integers_accepted():
    g = mvchroma.graph_from_edge_list(np.int64(3), np.array(P3, dtype=np.uint8))
    assert (type(g.n), g.edges()) == (int, P3)
    assert mvchroma.build_glued_tree(np.int32(2), np.int64(2)).graph.n == 10
    assert mvchroma.mv_k_colorable(g, np.int64(2)).status is mvchroma.Status.FEASIBLE


def test_numpy_vertex_ids_answer_like_python_ids():
    # on GT(6, 2), n = 190: a shift of 1 by a numpy id of 64 or more overflows
    assert _p3_pair_visible(np.int64(0), np.int64(2), [np.int64(1)]) is False
    g = mvchroma.build_glued_tree(6, 2).graph
    o = g.oracle
    answers = set()
    for u, v in ((0, 100), (70, 189), (64, 127), (100, 150)):
        assert o.d(np.int64(u), np.int64(v)) == o.d(u, v)
        inside = [w for w in range(g.n) if o.between(u, v) >> w & 1]
        for same_class in ([], inside[:1], inside[-1:]):
            answer = mvchroma.visibility.pair_visible(g, o, u, v, same_class)
            ids = np.array(same_class, dtype=np.int64)
            assert mvchroma.visibility.pair_visible(g, o, np.int64(u), np.uint8(v), ids) is answer
            answers.add(answer)
    assert answers == {True, False}


def test_formula_from_numpy_integers_is_plain_json():
    result = mvchroma.chi_mu_formula(np.int64(3), np.int64(2))
    assert (type(result.value), result.value) == (int, 4)
    assert json.loads(json.dumps(dataclasses.asdict(result)))["value"] == 4
    assert mvchroma.at_second_regime_min(np.int64(3), np.int64(2)) is True


def test_numpy_integer_ids_and_colors_accepted():
    g, coloring = _gt22_coloring()
    ids = np.arange(g.n, dtype=np.int32)
    assert mvchroma.coloring_from_list(np.array(coloring.colors, dtype=np.int8)) == coloring
    assert mvchroma.validate_mv_coloring(g, coloring, sources=ids).valid
    assert mvchroma.is_mv_set(g, [np.int64(0), np.uint8(9)])
    assert mvchroma.make_formula(np.int64(3), [[(np.int32(1), True), (2, False), (3, True)]]).q == 3
