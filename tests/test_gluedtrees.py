import hashlib

import pytest

from conftest import diameter, golden_colors_gt2, golden_colors_gt3, trees_up_to
from mvchroma import (
    Internal,
    QuasiLeaf,
    all_pairs_distances,
    build_glued_tree,
    chi_mu_formula,
    constructive_coloring,
    cycle_vertices,
    glued_tree_order,
    validate_mv_coloring,
    verify_theorem,
    write_graph,
    write_labels,
)
from mvchroma.errors import (
    GapInputError,
    InvalidParamsError,
    InvalidQuasiLeafError,
    OutOfRangeVertexError,
    SizeCapExceededError,
)

GOLDEN_LAYOUT_DIGEST = "d5af4c060fd07c80fd537694210928ec6b56da5fe9e91e79c91f56c6f76e1a4d"


def test_order_formula():
    assert glued_tree_order(1, 2) == 4
    assert glued_tree_order(2, 2) == 10
    assert glued_tree_order(3, 2) == 22
    assert glued_tree_order(2, 3) == 17
    # 2 * (t^(r+1) - 1) / (t - 1) - t^r, checked directly
    for r in range(1, 6):
        for t in range(2, 5):
            per_side = sum(t**i for i in range(r + 1))
            assert glued_tree_order(r, t) == 2 * per_side - t**r


def test_build_params_validated():
    with pytest.raises(InvalidParamsError):
        build_glued_tree(0, 2)
    with pytest.raises(InvalidParamsError):
        build_glued_tree(2, 1)
    with pytest.raises(SizeCapExceededError):
        build_glued_tree(10, 5)


def test_build_gt2_structure():
    tree = build_glued_tree(2, 2)
    g = tree.graph
    assert g.n == 10
    assert g.m == 12
    # quasi-leaves have degree 2, one neighbor per side
    for a in range(1, 5):
        v = tree.quasi(a)
        assert g.degree(v) == 2
    # roots have degree t
    assert g.degree(tree.internal(1, 1, 1)) == 2
    assert g.degree(tree.internal(2, 1, 1)) == 2
    # id layout: side-1 internals, side-2 internals, quasi-leaves
    assert tree.internal(1, 1, 1) == 0
    assert tree.internal(2, 1, 1) == 3
    assert tree.quasi(1) == 6


def test_labels_cover_all_vertices():
    tree = build_glued_tree(3, 3)
    coords = [tree.coord(v) for v in range(tree.graph.n)]
    assert len(set(coords)) == tree.graph.n
    quasi = [c for c in coords if isinstance(c, QuasiLeaf)]
    assert len(quasi) == 27
    internals = [c for c in coords if isinstance(c, Internal)]
    assert len(internals) == 2 * (1 + 3 + 9)


def is_parent(p, c, r, t):
    """True iff c is a child of p under the module's coordinates: (side,
    i, j) has children (side, i + 1, t(j - 1) + k) for 1 <= k <= t, and
    the level-r vertices have the quasi-leaves t(j - 1) + k instead."""
    if not isinstance(p, Internal):
        return False
    first = t * (p.j - 1) + 1
    if isinstance(c, QuasiLeaf):
        return p.i == r and first <= c.a < first + t
    return c.side == p.side and c.i == p.i + 1 and first <= c.j < first + t


def test_edges_join_parents_to_children():
    for r, t in trees_up_to(2000):
        tree = build_glued_tree(r, t)
        g = tree.graph
        coords = [tree.coord(v) for v in range(g.n)]
        # internal() and quasi() reject coordinates outside the tree
        ids = [
            tree.quasi(c.a) if isinstance(c, QuasiLeaf) else tree.internal(c.side, c.i, c.j)
            for c in coords
        ]
        assert ids == list(range(g.n))
        # every internal vertex has t children, one edge each
        assert g.m == 2 * t * (t**r - 1) // (t - 1)
        for u, v in g.edges():
            cu, cv = coords[u], coords[v]
            assert is_parent(cu, cv, r, t) or is_parent(cv, cu, r, t), (r, t, cu, cv)


def test_coordinates_out_of_range_rejected():
    tree = build_glued_tree(2, 3)
    for bad in [(0, 1, 1), (3, 1, 1), (1, 0, 1), (1, 3, 1), (1, 2, 0), (1, 2, 4)]:
        with pytest.raises(InvalidParamsError):
            tree.internal(*bad)
    for a in (0, 10):
        with pytest.raises(InvalidQuasiLeafError):
            tree.quasi(a)
    for v in (-1, tree.graph.n):
        with pytest.raises(OutOfRangeVertexError):
            tree.coord(v)


def layout_digest(trees):
    """SHA-256 over each tree's graph file, label sidecar and constructive
    colours."""
    h = hashlib.sha256()
    for r, t in trees:
        tree = build_glued_tree(r, t)
        colors = constructive_coloring(tree).colors
        h.update(f"GT({r},{t})\n".encode())
        h.update(write_graph(tree.graph).encode())
        h.update(write_labels(tree).encode())
        h.update((" ".join(map(str, colors)) + "\n").encode())
    return h.hexdigest()


def test_layout_golden_digest():
    # recorded when the vertex ids still came from coordinate dictionaries
    trees = [rt for rt in trees_up_to(600) if not chi_mu_formula(*rt).gap]
    assert len(trees) == 631
    assert layout_digest(trees + [(10, 2)]) == GOLDEN_LAYOUT_DIGEST


def test_diameter_is_2r():
    for r, t in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        assert diameter(build_glued_tree(r, t).graph) == 2 * r


def test_cycle_vertices_adjacent_leaves():
    tree = build_glued_tree(2, 2)
    dec = cycle_vertices(tree, 1, 2)
    # siblings: geodesics go through the level-2 parents only
    assert dec.p_side1 == (tree.quasi(1), tree.internal(1, 2, 1), tree.quasi(2))
    assert dec.p_side2 == (tree.quasi(1), tree.internal(2, 2, 1), tree.quasi(2))
    assert len(dec.all_vertices) == 4


def test_cycle_vertices_far_leaves():
    tree = build_glued_tree(2, 2)
    dec = cycle_vertices(tree, 1, 4)
    assert dec.p_side1 == (
        tree.quasi(1),
        tree.internal(1, 2, 1),
        tree.internal(1, 1, 1),
        tree.internal(1, 2, 2),
        tree.quasi(4),
    )
    assert len(dec.all_vertices) == 8


def test_cycle_paths_are_geodesics():
    tree = build_glued_tree(3, 2)
    o = all_pairs_distances(tree.graph)
    g = tree.graph
    for a in range(1, 9):
        for b in range(a + 1, 9):
            dec = cycle_vertices(tree, a, b)
            for path in (dec.p_side1, dec.p_side2):
                assert len(path) - 1 == o.d(tree.quasi(a), tree.quasi(b))
                for u, v in zip(path, path[1:]):
                    assert v in g.indices[g.indptr[u] : g.indptr[u + 1]]


def test_cycle_vertices_bad_indices():
    tree = build_glued_tree(2, 2)
    with pytest.raises(InvalidQuasiLeafError):
        cycle_vertices(tree, 1, 1)
    with pytest.raises(InvalidQuasiLeafError):
        cycle_vertices(tree, 0, 2)
    with pytest.raises(InvalidQuasiLeafError):
        cycle_vertices(tree, 1, 5)


def test_formula_known_values():
    assert chi_mu_formula(1, 2).value == 2
    assert chi_mu_formula(2, 2).value == 3
    assert chi_mu_formula(3, 2).value == 4
    assert chi_mu_formula(4, 2).value == 6
    assert chi_mu_formula(5, 2).value == 7
    assert chi_mu_formula(5, 2).i == 3
    assert chi_mu_formula(6, 2).value == 9
    assert chi_mu_formula(7, 2).value == 10


def test_formula_even_t_total():
    for t in (2, 4, 6):
        for r in range(1, 40):
            res = chi_mu_formula(r, t)
            assert not res.gap
            assert res.value >= 2


def test_formula_odd_t_gap():
    res = chi_mu_formula(3, 3)
    assert res.gap
    assert res.value is None
    assert res.candidates == (4, 5)
    # exactly one gap r per interval index for odd t
    gaps = [r for r in range(2, 60) if chi_mu_formula(r, 3).gap]
    seen_i = [chi_mu_formula(r, 3).i for r in gaps]
    assert len(seen_i) == len(set(seen_i))


def test_formula_interval_consistency():
    # value never decreases with r at fixed even t, and steps by 1 or 2
    for t in (2, 4):
        prev = None
        for r in range(1, 30):
            v = chi_mu_formula(r, t).value
            if prev is not None:
                assert v - prev in (1, 2)
            prev = v


def test_formula_params():
    with pytest.raises(InvalidParamsError):
        chi_mu_formula(0, 2)
    with pytest.raises(InvalidParamsError):
        chi_mu_formula(2, 1)


def test_constructive_gt1():
    tree = build_glued_tree(1, 2)
    coloring = constructive_coloring(tree)
    assert coloring.k == 2
    assert validate_mv_coloring(tree.graph, coloring).valid


def test_constructive_gt2_matches_golden():
    tree = build_glued_tree(2, 2)
    assert constructive_coloring(tree).colors == golden_colors_gt2(tree)


def test_constructive_gt3_matches_golden():
    tree = build_glued_tree(3, 2)
    assert constructive_coloring(tree).colors == golden_colors_gt3(tree)


def test_constructive_uses_formula_count():
    for r, t in [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (2, 4), (3, 4)]:
        tree = build_glued_tree(r, t)
        assert constructive_coloring(tree).k == chi_mu_formula(r, t).value


def test_constructive_validates():
    # (3,2), (7,2), (4,3) and (4,4) sit at the second regime's minimum, where
    # one side-1 vertex is recolored to the quasi-leaf color
    cases = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (2, 3), (4, 3),
             (2, 4), (4, 4)]
    for r, t in cases:
        tree = build_glued_tree(r, t)
        coloring = constructive_coloring(tree)
        assert validate_mv_coloring(tree.graph, coloring).valid, (r, t)


def test_constructive_gap_rejected():
    tree = build_glued_tree(3, 3)
    with pytest.raises(GapInputError):
        constructive_coloring(tree)


def test_verify_theorem_agrees():
    report = verify_theorem(2, 2, exact=True, gp=True)
    assert report.agree
    assert report.exact == 3
    assert report.gp_valid


def test_verify_theorem_gp_decides_mv():
    # with gp, one MV validation from the swap representatives gives both
    # verdicts; its MV verdict must match a direct, full MV validation
    for r, t in trees_up_to(400):
        if not chi_mu_formula(r, t).gap:
            tree = build_glued_tree(r, t)
            direct = validate_mv_coloring(tree.graph, constructive_coloring(tree))
            assert verify_theorem(r, t, gp=True).mv_valid == direct.valid, (r, t)


def test_verify_theorem_no_exact():
    report = verify_theorem(4, 2)
    assert report.exact is None
    # GP was not checked, so no GP verdict is expected
    assert report.gp_valid is None and report.gp_expected is None
    assert report.agree
    assert report.construction_colors == 6


def test_verify_theorem_gap_raises():
    with pytest.raises(GapInputError):
        verify_theorem(3, 3)
