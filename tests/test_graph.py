import random

import numpy as np
import pytest

from conftest import (
    DEFAULT_SEED,
    bfs_distances,
    build_h_gadget,
    c4,
    diameter,
    enumerate_shortest_paths,
)
from mvchroma import (
    Graph,
    all_pairs_distances,
    build_glued_tree,
    graph_from_edge_list,
)
from mvchroma.errors import (
    DisconnectedGraphError,
    GraphFormatError,
    OutOfRangeVertexError,
    SelfLoopError,
    SizeCapExceededError,
)

def test_c4_construction():
    g = c4()
    assert g.n == 4
    assert g.m == 4
    assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [1, 3]


def test_duplicate_edge_collapsed():
    g = graph_from_edge_list(2, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 1


def test_self_loop_rejected():
    # (1, 1) is the graph file's edge line "e 2 2"
    for edges in ([(1, 1)], [(0, 1), (2, 2)]):
        with pytest.raises(SelfLoopError):
            graph_from_edge_list(3, edges)
    # Graph's check names the lowest vertex with a loop, not the first edge
    with pytest.raises(SelfLoopError) as exc:
        graph_from_edge_list(3, [(2, 2), (0, 1), (1, 1), (1, 2)])
    assert str(exc.value) == "self-loop at vertex 1"


def test_out_of_range_endpoint():
    # the 0-based ids of the edge lines "e 1 4", "e 0 1" and
    # "e 1 99999999999999999999999" on n = 3; the last id is past int64
    for edge in ((0, 3), (-1, 0), (0, 99999999999999999999998), (-(10**30), 1), (0, 2**63)):
        with pytest.raises(OutOfRangeVertexError):
            graph_from_edge_list(3, [(0, 1), edge])


@pytest.mark.parametrize("n, indptr, indices, error, message", [
    # an edge stored in one direction only, which the connectivity test
    # would never finish hooking
    (2, [0, 1, 1], [1], GraphFormatError,
     "adjacency rows are not strictly increasing and symmetric"),
    (2, [0, 1, 2], [1, 5], OutOfRangeVertexError, "vertex 5 out of range 0..1"),
    (2, [0, 1, 2], [1, -1], OutOfRangeVertexError, "vertex -1 out of range 0..1"),
    (2, [0, 2], [1, 0], GraphFormatError, "indptr does not rise from 0 to 2 in 2 steps"),
    (2, [1, 1, 2], [1, 0], GraphFormatError, "indptr does not rise from 0 to 2 in 2 steps"),
    (2, [0, 1, 3], [1, 0], GraphFormatError, "indptr does not rise from 0 to 2 in 2 steps"),
    (3, [0, 2, 1, 2], [1, 0], GraphFormatError, "indptr does not rise from 0 to 2 in 3 steps"),
    (2, [0, 1, 2], [0, 0], SelfLoopError, "self-loop at vertex 0"),
    (2, [0, 2, 4], [1, 1, 0, 0], GraphFormatError,
     "adjacency rows are not strictly increasing and symmetric"),
    (3, [0, 2, 3, 4], [2, 1, 0, 0], GraphFormatError,
     "adjacency rows are not strictly increasing and symmetric"),
    (2, [0, 1, 2], [1.0, 0.0], GraphFormatError, "indices is not a one-dimensional integer array"),
    (2, [[0, 1, 2]], [1, 0], GraphFormatError, "indptr is not a one-dimensional integer array"),
], ids=["one-direction", "index-past-n", "index-negative", "indptr-short", "indptr-not-from-0",
        "indptr-past-indices", "indptr-falls", "self-loop", "repeated-entry", "unsorted-row",
        "float-indices", "two-dimensional-indptr"])
def test_graph_checks_its_csr_arrays(n, indptr, indices, error, message):
    with pytest.raises(error) as exc:
        Graph(n, np.array(indptr), np.array(indices))
    assert str(exc.value) == message


def test_negative_vertex_count_rejected():
    with pytest.raises(OutOfRangeVertexError, match="non-negative"):
        graph_from_edge_list(-1, [])


def test_vertex_count_over_cap_rejected():
    with pytest.raises(SizeCapExceededError):
        graph_from_edge_list(200_001, [])


def test_h2_edge_count():
    # two stars on 4 vertices with 2 identified leaves
    g, _ = build_h_gadget(2)
    assert g.n == 6
    assert g.m == 6


def test_bfs_c4():
    assert bfs_distances(c4(), 0) == [0, 1, 2, 1]


def test_bfs_path():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_unreachable_sentinel():
    # a sink is reached but not expanded, so the vertex past it is not
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0, sinks={1}) == [0, 1, -1]


def test_all_pairs_matches_bfs():
    g = c4()
    o = all_pairs_distances(g)
    for s in range(g.n):
        assert [o.d(s, v) for v in range(g.n)] == bfs_distances(g, s)
    assert max(o.d(u, v) for u in range(g.n) for v in range(g.n)) == 2


def test_all_pairs_distances_is_the_graph_oracle():
    g = c4()
    assert all_pairs_distances(g) is g.oracle


def test_all_pairs_single_vertex():
    g = graph_from_edge_list(1, [])
    o = all_pairs_distances(g)
    assert o.d(0, 0) == 0
    with pytest.raises(OutOfRangeVertexError):
        o.d(0, 1)


def test_oracle_invariants_gt2():
    tree = build_glued_tree(2, 2)
    g = tree.graph
    o = all_pairs_distances(g)
    d = np.array([[o.d(u, v) for v in range(g.n)] for u in range(g.n)])
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    assert d.max() == 4
    for u in range(g.n):
        for v in g.indices[g.indptr[u] : g.indptr[u + 1]]:
            assert d[u, v] == 1
    # dist v_{1,1} to v'_{1,1}
    assert d[tree.internal(1, 1, 1), tree.internal(2, 1, 1)] == 4


def test_diameter():
    assert diameter(graph_from_edge_list(3, [(0, 1), (0, 2), (1, 2)])) == 1
    assert diameter(build_glued_tree(3, 2).graph) == 6


def test_on_some_geodesic_path():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    o = all_pairs_distances(g)
    assert o.through(0, 1) >> 2 & 1


def test_on_some_geodesic_c4_both_routes():
    o = all_pairs_distances(c4())
    assert o.through(0, 1) >> 2 & 1
    assert o.through(0, 3) >> 2 & 1


def test_on_some_geodesic_gt2_quasi_leaves():
    tree = build_glued_tree(2, 2)
    o = all_pairs_distances(tree.graph)
    assert o.through(tree.quasi(1), tree.internal(1, 1, 1)) >> tree.quasi(4) & 1


def test_geodesic_count_c4():
    g = c4()
    assert len(enumerate_shortest_paths(g, 0, 2)) == 2
    assert len(enumerate_shortest_paths(g, 0, 1)) == 1


def test_geodesic_count_gt2():
    tree = build_glued_tree(2, 2)
    u, v = tree.internal(1, 2, 1), tree.internal(1, 2, 2)
    # same copy: unique geodesic
    assert len(enumerate_shortest_paths(tree.graph, u, v)) == 1
    # mirror roots: one geodesic per quasi-leaf
    u, v = tree.internal(1, 1, 1), tree.internal(2, 1, 1)
    assert len(enumerate_shortest_paths(tree.graph, u, v)) == 4


def test_connected_matches_bfs():
    # random graphs of up to 40 vertices, many of them disconnected, and
    # paths in shuffled vertex order, whole or cut in the middle. A graph is
    # built iff it is connected: conftest's BFS measures reach in it through
    # a hub n joined to every vertex, a sink, so the BFS never expands it
    rng = random.Random(DEFAULT_SEED)
    kinds = set()
    for trial in range(600):
        n = rng.randrange(0, 41)
        edges = set()
        if n > 1:
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(2 * n + 1))}
        if trial % 3 == 0 and n > 1:
            p = rng.sample(range(n), n)
            cut = n // 2 if trial % 2 else None
            edges = {(p[i], p[i + 1]) for i in range(n - 1) if i + 1 != cut}
        edges = sorted(edges)
        hub = graph_from_edge_list(n + 1, edges + [(v, n) for v in range(n)])
        expected = -1 not in bfs_distances(hub, 0, sinks={n})
        try:
            graph_from_edge_list(n, edges)
        except DisconnectedGraphError:
            assert not expected, (n, edges)
        else:
            assert expected, (n, edges)
        kinds.add(expected)
    assert kinds == {True, False}
    # two edges, GT(9, 2) (n = 1534) beside one isolated vertex, and the CSR
    # arrays of two edges handed to Graph itself
    tree = build_glued_tree(9, 2)
    for build in (
        lambda: graph_from_edge_list(4, [(0, 1), (2, 3)]),
        lambda: graph_from_edge_list(tree.graph.n + 1, tree.graph.edges()),
        lambda: Graph(4, np.array([0, 1, 2, 3, 4]), np.array([1, 0, 3, 2])),
    ):
        with pytest.raises(DisconnectedGraphError, match="disconnected"):
            build()
    assert Graph(2, np.array([0, 1, 2]), np.array([1, 0])).m == 1
