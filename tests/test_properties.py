"""Property-based checks against the brute-force oracles."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_distances,
    brute_chi_mu,
    brute_is_gp_set,
    brute_is_mv_set,
    brute_pair_visible,
    coloring_with_k,
    enumerate_shortest_paths,
    k2_pendant,
    random_connected_graph,
    seeded_reduction_graph,
)
from mvchroma import (
    Status,
    DistanceOracle,
    all_pairs_distances,
    build_glued_tree,
    chi_mu_formula,
    graph_from_edge_list,
    is_gp_set,
    is_mv_set,
    mv_k_colorable,
    validate_gp_coloring,
    validate_mv_coloring,
)
import mvchroma.visibility as visibility
from mvchroma.solver import PrefixTable, _check_assignment, _conflict
from mvchroma.visibility import pair_visible


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_connected_graph(random.Random(seed), n)


# glued trees with n <= 53 and diameter up to 8, for the pairs deeper than
# a random graph on 9 vertices has
DEEP_TREES = [build_glued_tree(r, t).graph for r, t in ((3, 2), (4, 2), (2, 3), (3, 3), (2, 4))]
pair_test_graphs = st.one_of(connected_graphs(), st.sampled_from(DEEP_TREES))


@given(connected_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
@example(build_glued_tree(3, 3).graph, 0)
@example(seeded_reduction_graph(4, 4), 1)  # n = 28, diameter 4
@example(k2_pendant(130), 2)  # hubs of degree 130, diameter 3
@settings(max_examples=60, deadline=None)
def test_oracle_distances_match_bfs_in_any_order(g, seed):
    # a fresh oracle builds its rows in the order the pairs ask for them
    o = DistanceOracle(g)
    pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
    random.Random(seed).shuffle(pairs)
    bfs = [bfs_distances(g, u) for u in range(g.n)]
    for u, v in pairs:
        assert o.d(u, v) == bfs[u][v]
    # d reads the first level that holds v, so also check that every row is
    # exactly the BFS levels, each vertex in its own level and no other
    for u, dist in enumerate(bfs):
        levels = [0] * (max(dist) + 1)
        for v, d in enumerate(dist):
            levels[d] |= 1 << v
        assert o._rows[u] == levels


@given(pair_test_graphs, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pair_visibility_matches_enumeration(g, seed):
    o = all_pairs_distances(g)
    rng = random.Random(seed)
    blocked = {v for v in range(g.n) if rng.random() < 0.4}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expected = brute_pair_visible(g, u, v, blocked - {u, v})
            got = pair_visible(g, o, u, v, blocked)
            assert got == expected


@given(pair_test_graphs, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solver_pair_test_matches_enumeration(g, seed):
    rng = random.Random(seed)
    blocked = {v for v in range(g.n) if rng.random() < 0.4}
    # the solver's mask holds the whole class, endpoints included
    mask = sum(1 << v for v in blocked)
    pv = DistanceOracle(g)
    through = {}
    for x in range(g.n):
        paths = {y: enumerate_shortest_paths(g, x, y) for y in range(g.n)}
        dist = bfs_distances(g, x)
        seen = 0
        for y in range(g.n):
            visible = brute_pair_visible(g, x, y, blocked - {x, y})
            assert pv.sees(x, 1 << y, mask) == (0 if visible else 1 << y)
            seen |= visible << y
            inside = {w for p in paths[y] for w in p[1:-1]}
            assert pv.between(x, y) == sum(1 << w for w in inside)
        # the unseen targets of the nearest level that holds any
        targets = rng.getrandbits(g.n)
        missed = [y for y in range(g.n) if (targets & ~seen) >> y & 1]
        nearest = min((dist[y] for y in missed), default=None)
        assert pv.sees(x, targets, mask) == sum(1 << y for y in missed if dist[y] == nearest)
        for v in range(g.n):
            through[x, v] = sum(1 << y for y in range(g.n) if any(v in p for p in paths[y]))
            assert pv.through(x, v) == through[x, v]
    # a second time, with every row built
    for (x, v), expected in through.items():
        assert pv.through(x, v) == expected


def _members(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


@given(connected_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_check_assignment_matches_enumeration(g, seed):
    # the solver's class test: with S minus v already an MV set, adding v
    # keeps S an MV set iff every pair of S still sees past S; when it does
    # not, the failing pair's conflict set is a part of S, v's class, that is
    # not an MV set either
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    v = order.pop()
    base = []
    for w in order:
        if rng.random() < 0.6 and brute_is_mv_set(g, base + [w]):
            base.append(w)
    members = base + [v]
    mask = sum(1 << w for w in members)
    expected = brute_is_mv_set(g, members)
    # v comes last, so before holds every other member of the class
    before = sum(1 << w for w in order)
    cold, o = PrefixTable(before), DistanceOracle(g)
    # and from a warm table, with every x's mask asked for already
    warm = PrefixTable(before)
    for x in order:
        through = o.through(x, v) & before
        if through:
            warm.masks[x] = through
        else:
            warm.live &= ~(1 << x)
    for table in (cold, warm):
        fail = _check_assignment(o, table, v, mask)
        assert (fail is None) == expected
        if fail is not None:
            conflict = _conflict(o, *fail, mask)
            assert conflict & ~mask == 0
            assert not brute_is_mv_set(g, _members(conflict))


@given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_mv_set_matches_brute_force(g, seed):
    rng = random.Random(seed)
    s = [v for v in range(g.n) if rng.random() < 0.5]
    assert is_mv_set(g, s) == brute_is_mv_set(g, s)


@given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_gp_set_matches_brute_force(g, seed):
    rng = random.Random(seed)
    s = [v for v in range(g.n) if rng.random() < 0.5]
    assert is_gp_set(g, s) == brute_is_gp_set(g, s)


@given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mv_set_monotone_under_removal(g, seed):
    rng = random.Random(seed)
    s = [v for v in range(g.n) if rng.random() < 0.5]
    if is_mv_set(g, s):
        for drop in s:
            assert is_mv_set(g, [v for v in s if v != drop])


@given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gp_implies_mv(g, seed):
    rng = random.Random(seed)
    s = [v for v in range(g.n) if rng.random() < 0.4]
    if is_gp_set(g, s):
        assert is_mv_set(g, s)


@st.composite
def hub_colorings(draw):
    """A few hubs joined in a random tree, every other vertex a leaf on one
    hub, and up to three extra edges; colored with one class of more than 64
    members, mostly leaves (so often an MV and a GP set), and the remaining
    vertices in classes of one to eight."""
    n = draw(st.integers(min_value=68, max_value=90))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    hubs = rng.randrange(1, 4)
    edges = {(rng.randrange(v), v) for v in range(1, hubs)}
    edges |= {(rng.randrange(hubs), v) for v in range(hubs, n)}
    for _ in range(rng.randrange(4)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    leaves = list(range(hubs, n))
    rng.shuffle(leaves)
    big = leaves[: rng.randrange(65, len(leaves) + 1)]
    if rng.random() < 0.3:
        big[0] = rng.randrange(hubs)
    rest = [v for v in range(n) if v not in big]
    rng.shuffle(rest)
    colors = [0] * n
    color = 1
    while rest:
        size = rng.randrange(1, 9)
        for v in rest[:size]:
            colors[v] = color
        rest, color = rest[size:], color + 1
    return graph_from_edge_list(n, sorted(edges)), coloring_with_k(colors)


@given(hub_colorings())
@settings(max_examples=25, deadline=None)
def test_batched_sweeps_match_brute_force(case):
    # at 64 sources per sweep, the big class runs in two chunks and the small
    # ones share sweeps; the reports must match those at the default width
    # and, class by class, the brute-force oracles. Every report, MV or GP,
    # exhaustive or not, says whether all classes are in general position
    g, c = case
    checks = (validate_mv_coloring, validate_gp_coloring)
    default = [check(g, c, exhaustive=ex) for check in checks for ex in (False, True)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(visibility, "BATCH_SOURCES", 64)
        narrow = [check(g, c, exhaustive=ex) for check in checks for ex in (False, True)]
    assert narrow == default
    classes = c.color_classes()
    assert max(map(len, classes)) > 64
    for report, brute in ((narrow[1], brute_is_mv_set), (narrow[3], brute_is_gp_set)):
        failing = {color for _, _, color in report.violations}
        assert failing == {i for i, m in enumerate(classes) if not brute(g, m)}
    gp = all(brute_is_gp_set(g, m) for m in classes)
    assert [report.gp_valid for report in default + narrow] == [gp] * 8


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_solver_matches_naive_oracle(g):
    naive = brute_chi_mu(g, 3)
    for k in (1, 2, 3):
        outcome = mv_k_colorable(g, k)
        assert outcome.status in (Status.FEASIBLE, Status.INFEASIBLE)
        expected = naive is not None and naive <= k
        assert (outcome.status is Status.FEASIBLE) == expected


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=120, deadline=None)
def test_formula_total_or_explicit_gap(r, t):
    res = chi_mu_formula(r, t)
    if res.gap:
        assert t % 2 == 1
        assert res.value is None
        assert res.candidates == (2 * (r - res.i) + 2, 2 * (r - res.i) + 3)
    else:
        assert res.value >= 2
        assert res.candidates == ()
    # the interval index is the unique one containing r
    a_i = (t ** (res.i - 1) - 1) // (t - 1)
    a_next = (t**res.i - 1) // (t - 1)
    assert a_i + res.i - 1 <= r <= a_next + res.i - 1 or r == 1
