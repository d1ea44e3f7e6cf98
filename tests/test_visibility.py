import random
from itertools import combinations

import pytest

from conftest import (
    DEFAULT_SEED,
    all_two_colorings,
    bfs_distances,
    brute_pair_visible,
    build_h_gadget,
    c4,
    coloring_with_k,
    golden_colors_gt2,
    k2_pendant,
    visible_from,
)
from mvchroma import (
    Coloring,
    ValidationReport,
    all_pairs_distances,
    build_glued_tree,
    coloring_from_list,
    constructive_coloring,
    cycle_vertices,
    graph_from_edge_list,
    is_gp_set,
    is_mv_set,
    validate_gp_coloring,
    validate_mv_coloring,
)
from mvchroma.errors import (
    ColoringNotTotalError,
    InvalidParamsError,
    OutOfRangeVertexError,
)
import mvchroma.visibility as visibility
from mvchroma.visibility import pair_visible


def gt2():
    return build_glued_tree(2, 2)


def test_small_sets_are_mv():
    g = c4()
    assert is_mv_set(g, [])
    assert is_mv_set(g, [0])
    assert is_mv_set(g, [0, 2])


def test_one_vertex_graph_validates():
    g = graph_from_edge_list(1, [])
    c = Coloring((0,), 1)
    for validate in (validate_mv_coloring, validate_gp_coloring):
        for exhaustive in (False, True):
            assert validate(g, c, exhaustive=exhaustive) == ValidationReport(True, (), 0)


def test_full_c4_not_mv():
    g = c4()
    assert not is_mv_set(g, [0, 1, 2, 3])


def test_gt2_quasi_leaves_are_mv():
    tree = gt2()
    assert is_mv_set(tree.graph, [tree.quasi(a) for a in range(1, 5)])


def test_golden_coloring_valid():
    tree = gt2()
    report = validate_mv_coloring(tree.graph, Coloring(golden_colors_gt2(tree), 3))
    assert report.valid
    assert report.violations == ()


def test_h2_bad_coloring_violations():
    g, legend = build_h_gadget(2)
    # variable-gadget reading: u, ubar = identified leaves; a, b = second star
    colors = [0] * g.n
    for v in (*legend.leaves, legend.c2, legend.p2):
        colors[v] = 1
    report = validate_mv_coloring(g, Coloring(tuple(colors), 2), exhaustive=True)
    assert not report.valid
    pairs = {(u, v) for u, v, _ in report.violations}
    # leaves cannot reach p2: the unique geodesics run through c2 (same class)
    assert (legend.leaves[0], legend.p2) in pairs or (legend.p2, legend.leaves[0]) in pairs
    assert (legend.leaves[1], legend.p2) in pairs or (legend.p2, legend.leaves[1]) in pairs


def test_all_distinct_coloring_valid():
    tree = gt2()
    c = Coloring(tuple(range(10)), 10)
    assert validate_mv_coloring(tree.graph, c).valid


def test_coloring_not_total():
    tree = gt2()
    with pytest.raises(ColoringNotTotalError):
        validate_mv_coloring(tree.graph, Coloring((0, 1), 2))


@pytest.mark.parametrize(
    "validate", [validate_mv_coloring, validate_gp_coloring], ids=["mv", "gp"]
)
@pytest.mark.parametrize("colors, k", [((0, -1, 0), 1), ((0, 0, 3), 2)])
def test_color_ids_outside_range_rejected(validate, colors, k):
    # a negative id would index a class from the end, a large one past it
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(ColoringNotTotalError):
        validate(g, Coloring(colors, k))


@pytest.mark.parametrize(
    "validate", [validate_mv_coloring, validate_gp_coloring], ids=["mv", "gp"]
)
def test_more_colors_than_vertices_rejected(validate):
    # dense ids 0..k-1 on n vertices need k <= n; k classes are never built
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(ColoringNotTotalError, match="4 colors declared for 3 vertices"):
        validate(g, Coloring((0, 1, 2), 4))


def test_coloring_from_list_dense_check():
    with pytest.raises(ColoringNotTotalError):
        coloring_from_list([0, 2])
    with pytest.raises(ColoringNotTotalError, match="empty coloring"):
        coloring_from_list([])
    c = coloring_from_list([0, 1, 0])
    assert c.k == 2


def test_violations_sorted_and_failfast():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    mono = Coloring((0, 0, 0), 1)
    exhaustive = validate_mv_coloring(g, mono, exhaustive=True)
    assert list(exhaustive.violations) == sorted(exhaustive.violations)
    fast = validate_mv_coloring(g, mono, exhaustive=False)
    assert len(fast.violations) == 1
    assert fast.violations[0] == exhaustive.violations[0]


@pytest.mark.parametrize(
    "validate", [validate_mv_coloring, validate_gp_coloring], ids=["mv", "gp"]
)
def test_exhaustive_report_lists_a_bounded_prefix(monkeypatch, validate):
    monkeypatch.setattr(visibility, "MAX_LISTED_VIOLATIONS", 10)
    g = build_glued_tree(3, 2).graph
    # with every vertex in one class, a pair violates MV and GP alike when
    # none of its geodesics avoids the class: when it is not an edge
    everyone = set(range(g.n))
    expected = [
        (u, v, 0)
        for u, v in combinations(range(g.n), 2)
        if not brute_pair_visible(g, u, v, everyone)
    ]
    assert len(expected) > 10
    report = validate(g, Coloring((0,) * g.n, 1), exhaustive=True)
    assert not report.valid
    assert report.violations == tuple(expected[:10])
    assert report.violation_count == len(expected)
    # the report holds an array; built from tuples, it is the same report
    assert report.pairs.shape == (10, 3)
    same = ValidationReport(False, tuple(expected[:10]), report.checked_pairs, len(expected),
                            gp_valid=False)
    assert (same, hash(same)) == (report, hash(report))


@pytest.mark.parametrize(
    "validate", [validate_mv_coloring, validate_gp_coloring], ids=["mv", "gp"]
)
def test_exhaustive_report_on_a_class_wider_than_a_batch(validate):
    # one class of n = 1103 > BATCH_SOURCES members swept at the real batch
    # width: a pair violates exactly when it is not an edge, so every chunk of
    # sources must reach its own pairs for the count to be C(n, 2) - m
    g = k2_pendant(1100)
    assert g.n > visibility.BATCH_SOURCES
    edges = set(g.edges())
    non_edges = [
        (u, v, 0) for u, v in combinations(range(g.n), 2) if (u, v) not in edges
    ]
    assert len(non_edges) == 605_552  # C(1103, 2) less the 2,201 edges
    report = validate(g, Coloring((0,) * g.n, 1), exhaustive=True)
    assert report.violation_count == len(non_edges)
    assert report.violations == tuple(non_edges[: visibility.MAX_LISTED_VIOLATIONS])


def test_gp_set_path_triple():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert not is_gp_set(g, [0, 1, 2])
    assert is_gp_set(g, [0, 2])
    assert is_gp_set(g, [])


def test_gt2_quasi_leaves_gp():
    tree = gt2()
    assert is_gp_set(tree.graph, [tree.quasi(a) for a in range(1, 5)])


def test_gp_coloring_golden_valid():
    tree = gt2()
    assert validate_gp_coloring(tree.graph, Coloring(golden_colors_gt2(tree), 3)).valid


def test_gp_coloring_p3_mono_invalid():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    report = validate_gp_coloring(g, Coloring((0, 0, 0), 1))
    assert not report.valid


def test_gp_all_distinct_valid():
    tree = gt2()
    c = Coloring(tuple(range(10)), 10)
    assert validate_gp_coloring(tree.graph, c).valid


def test_cycle_class_intersection():
    tree = gt2()
    quasi = {tree.quasi(a) for a in range(1, 5)}
    cyc = cycle_vertices(tree, 1, 4).all_vertices
    assert len(quasi & cyc) == 2
    assert len(set() & cyc) == 0
    assert len(cyc & cyc) == len(cyc)


def test_mv_monotone_under_subset_gt2():
    tree = gt2()
    full = [tree.quasi(a) for a in range(1, 5)]
    for drop in full:
        assert is_mv_set(tree.graph, [v for v in full if v != drop])


def test_validator_matches_classwise_mv_sets():
    # the coloring validator and is_mv_set are the same predicate per class
    tree = gt2()
    coloring = constructive_coloring(tree)
    report = validate_mv_coloring(tree.graph, coloring)
    classwise = all(
        is_mv_set(tree.graph, members) for members in coloring.color_classes()
    )
    assert report.valid == classwise


def test_h2_exhaustive_lemma():
    g, legend = build_h_gadget(2)
    accepted = 0
    for colors in all_two_colorings(g.n):
        c = coloring_with_k(colors)
        if validate_mv_coloring(g, c).valid:
            accepted += 1
            assert colors[legend.p] != colors[legend.c]
            assert colors[legend.p2] != colors[legend.c2]
            leaf_colors = {colors[v] for v in legend.leaves}
            assert len(leaf_colors) == 2
    assert accepted > 0


@pytest.mark.parametrize("d", [127, 128, 255, 256, 300])
def test_hub_pair_sees_through_many_leaves(d):
    # the hubs see each other through d unblocked leaves; from d = 128 on, an
    # 8-bit count of those leaves would wrap to zero or below
    g = k2_pendant(d)
    pendant = d + 2
    assert is_mv_set(g, [0, 1, pendant])
    colors = [1] * g.n
    colors[0] = colors[1] = colors[pendant] = 0
    report = validate_mv_coloring(g, Coloring(tuple(colors), 2), exhaustive=True)
    assert report.valid, report.violations[:3]


def random_hub_graph(rng: random.Random, n: int, hubs: int):
    """A random tree plus hubs 0..hubs-1, each joined to 128 or more non-hubs."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for h in range(hubs):
        for v in rng.sample(range(hubs, n), rng.randrange(128, n - hubs + 1)):
            edges.add((h, v))
    return graph_from_edge_list(n, sorted(edges))


def test_validator_matches_pair_visible_on_hub_graphs():
    rng = random.Random(DEFAULT_SEED + 7)
    size_rng = random.Random(DEFAULT_SEED + 8)
    # class 0 sizes on either side of the 64-bit word boundaries
    for hubs, sizes in ((2, (63, 128)), (3, (64, 129)), (4, (65, 127))):
        g = random_hub_graph(rng, 150, hubs)
        o = all_pairs_distances(g)
        rows = [bfs_distances(g, x) for x in range(g.n)]
        # the hubs share class 0, so their common neighbours lie outside it
        colors = [0] * hubs + [rng.randrange(1, 6) if rng.random() < 0.95 else 0
                               for _ in range(hubs, g.n)]
        colorings = [(None, coloring_with_k(colors))]
        for size in sizes:
            colors = [size_rng.randrange(1, 6) for _ in range(g.n)]
            for v in [*range(hubs), *size_rng.sample(range(hubs, g.n), size - hubs)]:
                colors[v] = 0
            colorings.append((size, coloring_with_k(colors)))
        for size, c in colorings:
            same_class = [
                (u, v, color, members)
                for color, members in enumerate(c.color_classes())
                for i, u in enumerate(members)
                for v in members[i + 1:]
            ]
            expected = [
                (u, v, color)
                for u, v, color, members in same_class
                if not pair_visible(g, o, u, v, members)
            ]
            report = validate_mv_coloring(g, c, exhaustive=True)
            assert list(report.violations) == expected, (hubs, size)
            # pair_visible shares its level-reach rule with the sweep, so the
            # reports must also match the independent BFS reference
            sees = {u: visible_from(g, u, members)
                    for members in c.color_classes() for u in members}
            reference = [(u, v, color) for u, v, color, _ in same_class if not sees[u][v]]
            assert reference == expected, (hubs, size)
            expected = [
                (u, v, color)
                for u, v, color, members in same_class
                if any(rows[u][z] + rows[z][v] == rows[u][v]
                       for z in members if z not in (u, v))
            ]
            report = validate_gp_coloring(g, c, exhaustive=True)
            assert list(report.violations) == expected, (hubs, size)


def test_small_classes_agree_with_is_mv_set():
    g = c4()
    for colors in ((0, 1, 2, 3), (0, 1, 0, 1), (0, 0, 1, 2)):
        c = Coloring(colors, max(colors) + 1)
        classwise = all(is_mv_set(g, m) for m in c.color_classes())
        assert validate_mv_coloring(g, c).valid == classwise


def test_pair_visible_c4():
    g = c4()
    o = all_pairs_distances(g)
    assert pair_visible(g, o, 0, 2, [0, 1, 2])
    assert not pair_visible(g, o, 0, 2, [1, 3])


def test_pair_visible_rejects_another_graphs_oracle():
    # on P3, 1 lies inside the one 0-2 path; C4's oracle reads a second path
    p3 = graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert not pair_visible(p3, p3.oracle, 0, 2, [0, 1, 2])
    with pytest.raises(InvalidParamsError) as exc:
        pair_visible(p3, c4().oracle, 0, 2, [0, 1, 2])
    assert str(exc.value) == "the distance oracle is not the graph's"


def test_pair_visible_adjacent():
    g = c4()
    o = all_pairs_distances(g)
    # adjacent pair has no internal vertices
    assert pair_visible(g, o, 0, 1, range(g.n))


def test_pair_visible_rejects_out_of_range_class_members():
    # 10**10 is left out: unchecked, its bit would take a 1.25 GB int
    g = c4()
    o = all_pairs_distances(g)
    for member in (-1, 4, 10**30):
        with pytest.raises(OutOfRangeVertexError):
            pair_visible(g, o, 0, 2, [1, member])


def test_pair_visible_never_blocked():
    g = build_glued_tree(2, 2).graph
    o = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert pair_visible(g, o, u, v, [u, v])
