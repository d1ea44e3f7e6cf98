import hashlib
import random
import tracemalloc
import weakref
from itertools import combinations, product
from types import SimpleNamespace

import pytest

import mvchroma.graph as graph_module
import mvchroma.solver as solver_module
from conftest import (
    DEFAULT_SEED,
    brute_chi_mu,
    brute_coloring_valid,
    c4,
    first_fit_coloring,
    k2_pendant,
    nae_satisfies,
    random_clauses,
    random_connected_graph,
    seeded_reduction_graph,
)
from mvchroma import (
    Budget,
    Coloring,
    Status,
    build_glued_tree,
    build_reduction,
    chi_mu_exact,
    graph_from_edge_list,
    greedy_upper_bound,
    make_formula,
    mv_k_colorable,
    nae_satisfiable,
    validate_mv_coloring,
)
from mvchroma.errors import (
    BudgetExhaustedError,
    InvalidParamsError,
    TooManyVariablesError,
)


def test_vertex_order_degree_then_id():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    assert g.degree_order.tolist() == [1, 2, 3, 0]


def test_vertex_order_matches_its_definition_on_degree_ties():
    rng = random.Random(DEFAULT_SEED + 30)
    for _ in range(200):
        n = rng.randrange(2, 60)
        # a random spanning tree and at most n more edges: most degrees are
        # 1..5, so ties abound
        p = rng.sample(range(n), n)
        edges = [(p[i], p[rng.randrange(i)]) for i in range(1, n)]
        edges += [rng.sample(range(n), 2) for _ in range(rng.randrange(n + 1))]
        g = graph_from_edge_list(n, edges)
        assert g.degree_order.tolist() == sorted(range(n), key=lambda v: (-g.degree(v), v))


def reference_search_order(g) -> list[int]:
    """Graph.search_order restated step by step, in O(n^2) time."""
    rank = {v: i for i, v in enumerate(g.degree_order.tolist())}
    nbrs = [set(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()) for v in range(g.n)]
    pendant = [len(ws) == 1 for ws in nbrs]
    order: list[int] = []
    while len(order) < g.n:
        left = sorted(set(range(g.n)) - set(order), key=rank.get)
        # the first vertex whose non-pendant neighbours have all come, else
        # the first left in degree order
        ready = [v for v in left if all(pendant[w] or w in order for w in nbrs[v])]
        v = (ready or left)[0]
        order.append(v)
        order += sorted((w for w in nbrs[v] if pendant[w] and w not in order), key=rank.get)
    return order


def test_search_order_matches_its_definition():
    rng = random.Random(DEFAULT_SEED + 31)
    graphs = [graph_from_edge_list(1, []), graph_from_edge_list(2, [(0, 1)]), k2_pendant(5)]
    graphs += [build_glued_tree(r, t).graph for r, t in ((2, 2), (3, 2), (2, 3))]
    graphs += [seeded_reduction_graph(q, m) for q, m in ((3, 3), (4, 8))]
    # random connected graphs, some with pendants added to random vertices
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, 30))
        extra = rng.randrange(0, 6)
        edges = g.edges() + [(rng.randrange(g.n), g.n + i) for i in range(extra)]
        graphs.append(graph_from_edge_list(g.n + extra, edges))
    for g in graphs:
        assert list(g.search_order) == reference_search_order(g)
    # greedy keeps the degree order; the search order differs from it here
    g = seeded_reduction_graph(3, 3)
    assert list(g.search_order) != g.degree_order.tolist()


def test_empty_graph_is_colorable_with_no_colors():
    outcome = mv_k_colorable(graph_from_edge_list(0, []), 1)
    assert (outcome.status, outcome.coloring, outcome.nodes_explored) == (
        Status.FEASIBLE, Coloring((), 0), 0
    )


def test_k1_on_complete_graph():
    g = graph_from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    outcome = mv_k_colorable(g, 1)
    assert outcome.status is Status.FEASIBLE
    assert outcome.coloring.k == 1


def test_k1_on_path_infeasible():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    outcome = mv_k_colorable(g, 1)
    assert outcome.status is Status.INFEASIBLE


def test_c4_two_colorable():
    outcome = mv_k_colorable(c4(), 2)
    assert outcome.status is Status.FEASIBLE
    assert validate_mv_coloring(c4(), outcome.coloring).valid


def test_feasible_colorings_always_validate():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(25):
        n = rng.randrange(2, 9)
        g = random_connected_graph(rng, n)
        for k in (1, 2, 3):
            outcome = mv_k_colorable(g, k)
            if outcome.status is Status.FEASIBLE:
                assert outcome.coloring.k <= k
                assert validate_mv_coloring(g, outcome.coloring).valid


def test_matches_naive_oracle_small():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(15):
        n = rng.randrange(2, 8)
        g = random_connected_graph(rng, n)
        naive = brute_chi_mu(g, 3)
        for k in (1, 2, 3):
            outcome = mv_k_colorable(g, k)
            expected = naive is not None and naive <= k
            assert (outcome.status is Status.FEASIBLE) == expected


def test_invalid_k_rejected():
    with pytest.raises(InvalidParamsError):
        mv_k_colorable(c4(), 0)


@pytest.mark.parametrize("k", [2**62, 2**64], ids=["2^62", "2^64"])
def test_huge_k_answers_like_k_equal_n(k):
    # the color table is sized by min(k, n): no id reaches n on n vertices
    g = build_glued_tree(2, 2).graph
    huge, at_n = mv_k_colorable(g, k), mv_k_colorable(g, g.n)
    assert (huge.status, huge.coloring, huge.nodes_explored) == (
        at_n.status, at_n.coloring, at_n.nodes_explored
    )
    assert huge.coloring.k == 3


def test_node_budget_exhausts():
    tree = build_glued_tree(3, 2)
    outcome = mv_k_colorable(tree.graph, 3, budget=Budget(max_nodes=1))
    assert outcome.status is Status.BUDGET_EXHAUSTED
    assert outcome.coloring is None
    assert outcome.nodes_explored <= 2


def test_zero_second_budget_stops_on_first_node():
    tree = build_glued_tree(2, 2)
    outcome = mv_k_colorable(tree.graph, 2, Budget(max_seconds=0))
    assert outcome.status is Status.BUDGET_EXHAUSTED
    assert outcome.nodes_explored == 1


@pytest.mark.parametrize(
    "kwargs",
    [{"max_nodes": -1}, {"max_nodes": float("nan")}, {"max_seconds": -0.5},
     {"max_seconds": float("nan")}],
)
def test_negative_or_nan_budget_rejected(kwargs):
    with pytest.raises(InvalidParamsError):
        Budget(**kwargs)


def test_zero_and_infinite_budgets_accepted():
    Budget(max_nodes=0, max_seconds=0.0)
    Budget(max_seconds=float("inf"))


def test_gt3_three_colors_infeasible():
    tree = build_glued_tree(3, 2)
    outcome = mv_k_colorable(tree.graph, 3, budget=Budget(max_seconds=900))
    assert outcome.status is Status.INFEASIBLE


def test_greedy_upper_bound_validates():
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        k, coloring = greedy_upper_bound(g)
        assert coloring.k == k
        assert validate_mv_coloring(g, coloring).valid


def test_greedy_upper_bound_is_first_fit():
    rng = random.Random(DEFAULT_SEED + 3)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 11))
        assert greedy_upper_bound(g) == first_fit_coloring(g)


@pytest.mark.parametrize("d", [127, 128, 129, 255, 256, 300])
def test_greedy_upper_bound_high_degree_hubs(d):
    # first fit puts the hubs and the pendant's leaf in one class, so the hubs
    # see each other through d - 1 leaves of the other class: 128 from d = 129
    k, coloring = greedy_upper_bound(k2_pendant(d))
    assert (k, coloring.k) == (2, 2)


@pytest.mark.parametrize("d", [127, 128, 129])
def test_greedy_upper_bound_golden(d):
    # recorded before the pair test moved onto the BFS level masks
    assert greedy_upper_bound(k2_pendant(d)) == (2, Coloring((0, 0, 0) + (1,) * d, 2))


def test_chi_mu_exact_c4():
    k, coloring = chi_mu_exact(c4())
    assert k == 2
    assert validate_mv_coloring(c4(), coloring).valid


def test_chi_mu_exact_gt2():
    tree = build_glued_tree(2, 2)
    k, _ = chi_mu_exact(tree.graph)
    assert k == 3


def test_chi_mu_exact_builds_each_bfs_row_once(monkeypatch):
    # greedy and the k = 1..3 searches share the graph's oracle
    calls = []
    row = graph_module.DistanceOracle._row

    def counting_row(self, u):
        if self._rows[u] is None:  # a BFS runs only for a row not yet stored
            calls.append(u)
        return row(self, u)

    monkeypatch.setattr(graph_module.DistanceOracle, "_row", counting_row)
    tree = build_glued_tree(3, 2)
    assert chi_mu_exact(tree.graph)[0] == 4
    assert calls and len(calls) == len(set(calls))


def test_each_search_computes_each_through_mask_once(monkeypatch):
    # a search's tables keep its masks, and greedy and the k = 1..3 searches
    # of chi_mu_exact each make their own
    searches = []
    through = graph_module.DistanceOracle.through

    def counting_mask(self, x, v):
        searches[-1].append((x, v))
        return through(self, x, v)

    def recording(search):
        def run(*args, **kwargs):
            searches.append([])
            return search(*args, **kwargs)

        return run

    monkeypatch.setattr(graph_module.DistanceOracle, "through", counting_mask)
    for name in ("greedy_upper_bound", "mv_k_colorable"):
        monkeypatch.setattr(solver_module, name, recording(getattr(solver_module, name)))
    tree = build_glued_tree(3, 2)
    assert chi_mu_exact(tree.graph)[0] == 4
    assert len(searches) == 4 and any(searches)
    for calls in searches:
        assert len(calls) == len(set(calls))


def test_greedy_keeps_one_prefix_table_alive(monkeypatch):
    # greedy drops each vertex's table once the vertex has its color
    alive, counts = weakref.WeakSet(), []
    check = solver_module._check_assignment

    class TrackedTable(solver_module.PrefixTable):
        def __init__(self, before):
            super().__init__(before)
            alive.add(self)

    def counting_check(o, table, v, color_mask):
        counts.append(len(alive))
        return check(o, table, v, color_mask)

    monkeypatch.setattr(solver_module, "PrefixTable", TrackedTable)
    monkeypatch.setattr(solver_module, "_check_assignment", counting_check)
    assert greedy_upper_bound(build_glued_tree(4, 2).graph)[0] == 6
    assert counts and max(counts) == 1


def test_greedy_falls_back_to_singletons_when_rejected(monkeypatch):
    def reject(g, coloring, *args, **kwargs):
        return SimpleNamespace(valid=False)

    monkeypatch.setattr(solver_module, "validate_mv_coloring", reject)
    g = build_glued_tree(2, 2).graph
    assert greedy_upper_bound(g) == (g.n, Coloring(tuple(range(g.n)), g.n))


def test_search_goes_on_past_rejected_leaves(monkeypatch):
    # a leaf the validator rejects blames its whole prefix, so the search
    # backtracks from it like from any other dead end
    real = solver_module.validate_mv_coloring
    g = build_glued_tree(2, 2).graph
    found = mv_k_colorable(g, 3).coloring
    seen = []

    def reject_first(g, coloring, *args, **kwargs):
        seen.append(coloring)
        return SimpleNamespace(valid=False) if len(seen) == 1 else real(g, coloring)

    monkeypatch.setattr(solver_module, "validate_mv_coloring", reject_first)
    outcome = mv_k_colorable(g, 3)
    assert outcome.status is Status.FEASIBLE and seen[0] == found
    assert outcome.coloring != found and real(g, outcome.coloring).valid
    # rejecting every leaf leaves no colouring
    monkeypatch.setattr(solver_module, "validate_mv_coloring", lambda *a: SimpleNamespace(valid=False))
    assert mv_k_colorable(g, 3).status is Status.INFEASIBLE


def _record_tables(monkeypatch) -> list:
    """The PrefixTables the searches make from now on, in the order made."""
    made = []

    class RecordingTable(solver_module.PrefixTable):
        def __init__(self, before):
            super().__init__(before)
            made.append(self)

    monkeypatch.setattr(solver_module, "PrefixTable", RecordingTable)
    return made


def test_search_makes_tables_only_for_the_depths_it_reaches(monkeypatch):
    # 10 nodes descend at most 10 times, so at most depths 0..10 of n = 1534
    made = _record_tables(monkeypatch)
    g = build_glued_tree(9, 2).graph
    outcome = mv_k_colorable(g, 2, Budget(max_nodes=10))
    assert outcome.status is Status.BUDGET_EXHAUSTED
    assert 1 <= len(made) <= 11


WARM_MEMO_GRAPHS = [("reduction", q, m) for q in (3, 4) for m in (q, 2 * q)] + [
    ("tree", 2, 2),
    ("tree", 3, 2),
]


@pytest.mark.parametrize("kind, a, b", WARM_MEMO_GRAPHS)
def test_warm_memo_leaves_the_search_alone(kind, a, b):
    g = build_glued_tree(a, b).graph if kind == "tree" else seeded_reduction_graph(a, b)
    for k in range(1, 5):
        # the second run on g finds the first run's BFS rows in g's oracle
        runs = [
            mv_k_colorable(h, k, Budget(max_nodes=20_000))
            for h in (g, g, graph_from_edge_list(g.n, g.edges()))
        ]
        first, warm, fresh = ((o.status, o.coloring, o.nodes_explored) for o in runs)
        assert first == warm == fresh


@pytest.mark.parametrize("kind, a, b", WARM_MEMO_GRAPHS)
def test_prefix_tables_clear_only_members_without_partners(kind, a, b, monkeypatch):
    g = build_glued_tree(a, b).graph if kind == "tree" else seeded_reduction_graph(a, b)
    made = _record_tables(monkeypatch)
    greedy_upper_bound(g)
    for k in range(1, 5):
        mv_k_colorable(g, k, Budget(max_nodes=20_000))
    # greedy walks the degree order, the four k searches the search order
    o, orders = g.oracle, [g.degree_order.tolist()] + [g.search_order] * 4
    # each search makes its tables depth by depth from depth 0, the one
    # table whose before is empty
    assert sum(table.before == 0 for table in made) == 5
    cleared, search = 0, -1
    for table in made:
        if table.before == 0:
            search, depth = search + 1, 0
        else:
            depth += 1
        order = orders[search]
        v, before = order[depth], table.before
        assert before == sum(1 << w for w in order[:depth])
        assert table.live & ~before == 0
        for x in range(g.n):
            if before >> x & 1 and not table.live >> x & 1:
                cleared += 1
                assert o.through(x, v) & before == 0
        for x, mask in table.masks.items():
            assert table.live >> x & 1
            assert mask and mask == o.through(x, v) & before
    assert cleared


@pytest.mark.parametrize("kind, a, b", [("tree", 3, 2), ("reduction", 4, 4)])
def test_oracle_rows_are_distance_levels(kind, a, b):
    g = build_glued_tree(a, b).graph if kind == "tree" else seeded_reduction_graph(a, b)
    chi_mu_exact(g)
    rows = [(u, row) for u, row in enumerate(g.oracle._rows) if row is not None]
    assert rows
    for u, row in rows:
        # a row is its levels alone: bit w of row[i] is set iff d(u, w) == i
        assert type(row) is list and all(type(level) is int for level in row)
        assert row[0] == 1 << u
        assert all(row)
        union = 0
        for level in row:
            assert union & level == 0
            union |= level
        assert union == (1 << g.n) - 1


def test_chi_mu_exact_matches_naive():
    rng = random.Random(DEFAULT_SEED + 3)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        naive = brute_chi_mu(g, 6)
        k, _ = chi_mu_exact(g)
        assert k == naive


def test_chi_mu_exact_budget_bounds():
    tree = build_glued_tree(3, 2)
    with pytest.raises(BudgetExhaustedError) as exc:
        chi_mu_exact(tree.graph, budget=Budget(max_nodes=5))
    assert 1 <= exc.value.lo <= exc.value.hi


def test_chi_mu_exact_time_overrun_reports_bounds(monkeypatch):
    # a clock that advances one second per read: k=1 is refuted after the
    # deadline has passed, so the budget left for k=2 would be negative
    clock = iter(range(10**6))
    monkeypatch.setattr(
        solver_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )
    tree = build_glued_tree(2, 2)
    with pytest.raises(BudgetExhaustedError) as exc:
        chi_mu_exact(tree.graph, budget=Budget(max_seconds=2.5))
    assert (exc.value.lo, exc.value.hi) == (2, 3)


def test_budget_is_drawn_down_across_searches():
    g = build_glued_tree(3, 2).graph
    first = mv_k_colorable(g, 2)
    budget = Budget(max_nodes=first.nodes_explored + 10)
    again = mv_k_colorable(g, 2, budget)
    assert (again.status, again.nodes_explored) == (first.status, first.nodes_explored)
    assert budget.nodes == first.nodes_explored
    # the second search gets only the 10 nodes the first left
    second = mv_k_colorable(g, 3, budget)
    assert second.status is Status.BUDGET_EXHAUSTED
    assert second.nodes_explored == 11
    assert budget.nodes == budget.max_nodes + 1


def test_deadline_is_fixed_by_the_first_search(monkeypatch):
    clock = iter(range(10**6))
    monkeypatch.setattr(
        solver_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )
    g = build_glued_tree(2, 2).graph
    budget = Budget(max_seconds=100)
    mv_k_colorable(g, 1, budget)
    # the first search read the clock at 0 when it started
    assert budget.deadline == 100
    mv_k_colorable(g, 1, budget)
    assert budget.deadline == 100


def test_chi_mu_exact_charges_every_k_to_one_budget():
    budget = Budget(max_nodes=5)
    with pytest.raises(BudgetExhaustedError):
        chi_mu_exact(build_glued_tree(3, 2).graph, budget)
    # the search that tripped counts the node past the limit
    assert budget.nodes == 6


def test_nae_first_hit_order():
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    a = nae_satisfiable(f)
    # increasing binary order with x1 most significant: first hit is F,F,T
    assert a.values == (False, False, True)
    assert nae_satisfies(f, a.values)


def test_nae_unsat_covering():
    clauses = [
        [(1, True), (2, True), (3, True)],
        [(1, True), (2, False), (3, False)],
        [(1, False), (2, True), (3, False)],
        [(1, False), (2, False), (3, True)],
    ]
    f = make_formula(3, clauses)
    assert nae_satisfiable(f) is None


def test_nae_matches_direct_scan():
    rng = random.Random(DEFAULT_SEED + 4)
    for _ in range(30):
        q = rng.randrange(3, 6)
        f = make_formula(q, random_clauses(rng, q, rng.randrange(1, 6)))
        a = nae_satisfiable(f)
        # independent scan over every assignment
        any_sat = any(
            nae_satisfies(f, tuple(bool((bits >> s) & 1) for s in range(q)))
            for bits in range(1 << q)
        )
        assert (a is not None) == any_sat
        if a is not None:
            assert nae_satisfies(f, a.values)


def test_nae_variable_cap():
    f = make_formula(30, [[(1, True), (2, True), (3, True)]])
    with pytest.raises(TooManyVariablesError):
        nae_satisfiable(f)


def test_symmetry_breaking_node_counts_reasonable():
    # the reduction graph for one clause must resolve quickly
    f = make_formula(3, [[(1, True), (2, True), (3, True)]])
    rg = build_reduction(f)
    outcome = mv_k_colorable(rg.graph, 2)
    assert outcome.status is Status.FEASIBLE
    assert outcome.nodes_explored < 50_000


Q3_CLAUSES = [list(zip((1, 2, 3), pols)) for pols in product((False, True), repeat=3)]


def _seeded_formula(seed: int):
    """The q = 3 formula of GOLDEN_SEARCHES' seed."""
    rng = random.Random(seed)
    return make_formula(3, rng.sample(Q3_CLAUSES, rng.randrange(1, 6)))


# (seed, node budget) -> (status, nodes_explored, colors); the statuses were
# recorded before the pair test moved onto the BFS level masks, and the node
# counts and colourings when the backjumping search took up the phase-saved
# color order and its learned nogoods; a change to the pair test must leave
# the search alone
GOLDEN_SEARCHES = {
    (0, 5000): ("infeasible", 382, None),
    (0, None): ("infeasible", 382, None),
    (4, 5000): ("feasible", 260, (0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0)),
    (4, None): ("feasible", 260, (0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0)),
    (5, 5000): (
        "feasible",
        191,
        (0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0),
    ),
    (5, None): (
        "feasible",
        191,
        (0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0),
    ),
    (9, 5000): (
        "feasible",
        185,
        (0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    ),
    (9, None): (
        "feasible",
        185,
        (0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    ),
}


@pytest.mark.parametrize("seed, max_nodes", GOLDEN_SEARCHES)
def test_reduction_search_golden(seed, max_nodes):
    budget = None if max_nodes is None else Budget(max_nodes=max_nodes)
    outcome = mv_k_colorable(build_reduction(_seeded_formula(seed)).graph, 2, budget)
    colors = None if outcome.coloring is None else outcome.coloring.colors
    assert (outcome.status.value, outcome.nodes_explored, colors) == GOLDEN_SEARCHES[
        seed, max_nodes
    ]


def test_learned_nogoods_prune_and_keep_verdicts(monkeypatch):
    # a color the learned table rejects costs a node but no pair test, so on
    # some search the pair test runs fewer times than nodes are counted
    calls = []
    check = solver_module._check_assignment

    def counting_check(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(solver_module, "_check_assignment", counting_check)
    # GOLDEN_SEARCHES' formulas and acceptance 10's: up to 4 distinct clauses
    clauses = sorted(map(tuple, Q3_CLAUSES))
    formulas = [_seeded_formula(seed) for seed, _ in GOLDEN_SEARCHES]
    formulas += [make_formula(3, cls) for size in range(5) for cls in combinations(clauses, size)]
    pruned = 0
    for f in formulas:
        calls.clear()
        g = build_reduction(f).graph
        outcome = mv_k_colorable(g, 2)
        assert (outcome.status is Status.FEASIBLE) == (nae_satisfiable(f) is not None)
        assert outcome.coloring is None or brute_coloring_valid(g, outcome.coloring.colors)
        assert len(calls) <= outcome.nodes_explored
        pruned += len(calls) < outcome.nodes_explored
    assert pruned


def test_learned_table_grows_with_dead_ends_not_k():
    # slots are made by dead ends, so a first-fit descent at k = 2^62 keeps
    # no table of n x min(k, n) slots (75 MB of None on GT(10,2))
    g = build_glued_tree(10, 2).graph
    tracemalloc.start()
    try:
        outcome = mv_k_colorable(g, 2**62, Budget(max_nodes=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status is Status.BUDGET_EXHAUSTED
    assert peak < 16 * 2**20


# searches on glued trees of diameter up to 8: (r, t, k) -> (status,
# nodes_explored), the statuses recorded before the pair test swept reach
# outward from one endpoint, the node counts with the backjumping search's
# phase-saved color order and learned nogoods
GOLDEN_TREE_SEARCHES = {
    (3, 2, 3): ("infeasible", 1176),
    (2, 3, 2): ("infeasible", 41),
}


@pytest.mark.parametrize("r, t, k", GOLDEN_TREE_SEARCHES)
def test_tree_search_golden(r, t, k):
    outcome = mv_k_colorable(build_glued_tree(r, t).graph, k)
    assert (outcome.status.value, outcome.nodes_explored) == GOLDEN_TREE_SEARCHES[r, t, k]


# (r, t) -> (colours, SHA-256 of the greedy colours joined by commas),
# recorded at the same commit as GOLDEN_TREE_SEARCHES' statuses
GOLDEN_TREE_GREEDY = {
    (5, 2): (8, "ce37cbef122f4ce737552b8d8d7674b02c1974bf3f635d53dec800dcc52d315c"),
    (7, 2): (11, "85cf612f6695e642d54f797a833b4db5df0c9c3a27247a2e86497209edde5595"),
    (3, 3): (5, "d6fd6b589c94685a164e65ef6aacae5c39a316cf5323a110c8bd5ccd6c554d52"),
    (2, 4): (3, "b21d2ef0acfd85ab9c5864d8b37b692b1b0fc2793978f5799243fac1eaad6b51"),
}


@pytest.mark.parametrize("r, t", GOLDEN_TREE_GREEDY)
def test_tree_greedy_golden(r, t):
    k, coloring = greedy_upper_bound(build_glued_tree(r, t).graph)
    digest = hashlib.sha256(",".join(map(str, coloring.colors)).encode()).hexdigest()
    assert (k, digest) == GOLDEN_TREE_GREEDY[r, t]
