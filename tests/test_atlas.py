"""The exact solver and the greedy bound against brute force on every
connected graph with at most 7 vertices: the 996 of networkx's bundled graph
atlas.

``tests/data/atlas_chi_mu.json`` records χ_μ per atlas index (null for the
empty and the disconnected graphs), so later solvers can be compared with
it without networkx.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import brute_chi_mu, first_fit_coloring
from mvchroma import (
    Status,
    chi_mu_exact,
    graph_from_edge_list,
    greedy_upper_bound,
    mv_k_colorable,
    validate_mv_coloring,
)

nx = pytest.importorskip("networkx")

ATLAS_CHI_MU = Path(__file__).parent / "data" / "atlas_chi_mu.json"


def test_atlas_chi_mu_census():
    recorded = json.loads(ATLAS_CHI_MU.read_text())["chi_mu"]
    atlas = nx.graph_atlas_g()
    assert len(recorded) == len(atlas)
    census, top = Counter(), []
    for index, h in enumerate(atlas):
        if h.number_of_nodes() == 0 or not nx.is_connected(h):
            assert recorded[index] is None
            continue
        g = graph_from_edge_list(h.number_of_nodes(), list(h.edges()))
        chi = brute_chi_mu(g, g.n)
        assert recorded[index] == chi
        k, coloring = chi_mu_exact(g)
        assert (k, coloring.k) == (chi, chi)
        assert validate_mv_coloring(g, coloring).valid
        assert greedy_upper_bound(g) == first_fit_coloring(g)
        for k in range(1, g.n + 1):
            outcome = mv_k_colorable(g, k)
            assert (outcome.status is Status.FEASIBLE) == (k >= chi)
        census[chi] += 1
        if chi == 4:
            top.append(h)
    assert census == {1: 7, 2: 910, 3: 78, 4: 1}
    assert nx.is_isomorphic(top[0], nx.path_graph(7))
