"""Shared helpers: fixed and seeded instances, and independent brute-force
oracles."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product
from typing import NamedTuple

from mvchroma import (
    Coloring,
    Graph,
    build_reduction,
    glued_tree_order,
    graph_from_edge_list,
    make_formula,
    random_clause,
)

DEFAULT_SEED = 20240817


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus random extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n * (n - 1) // 2 - (n - 1) + 1)
    candidates = [
        (u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return graph_from_edge_list(n, sorted(edges))


def c4() -> Graph:
    return graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def random_clauses(rng: random.Random, q: int, m: int) -> list:
    """m clauses over x_1..x_q, each one ``random_clause`` draw."""
    return [random_clause(rng, q) for _ in range(m)]


def seeded_reduction_graph(q: int, m: int) -> Graph:
    """The reduction graph of m seeded random clauses over x_1..x_q."""
    rng = random.Random(DEFAULT_SEED + q * m)
    return build_reduction(make_formula(q, random_clauses(rng, q, m))).graph


def golden_colors_gt2(tree) -> tuple[int, ...]:
    """The paper's 3-coloring of GT(2, 2)."""
    colors = [0] * 10
    colors[tree.internal(1, 2, 1)] = 1
    colors[tree.internal(1, 2, 2)] = 1
    colors[tree.internal(2, 1, 1)] = 1
    colors[tree.internal(1, 1, 1)] = 2
    colors[tree.internal(2, 2, 1)] = 2
    colors[tree.internal(2, 2, 2)] = 2
    return tuple(colors)


def golden_colors_gt3(tree) -> tuple[int, ...]:
    """The paper's 4-coloring of GT(3, 2)."""
    colors = [0] * 22
    for j in range(1, 5):
        colors[tree.internal(1, 3, j)] = 1
        colors[tree.internal(2, 3, j)] = 2
    colors[tree.internal(2, 1, 1)] = 1
    colors[tree.internal(1, 1, 1)] = 2
    colors[tree.internal(1, 2, 1)] = 0
    colors[tree.internal(1, 2, 2)] = 3
    colors[tree.internal(2, 2, 1)] = 3
    colors[tree.internal(2, 2, 2)] = 3
    return tuple(colors)


def k2_pendant(d: int) -> Graph:
    """K_{2,d} with hubs 0 and 1, leaves 2..d+1, and a pendant d+2 on leaf 2."""
    edges = [(h, 2 + i) for h in (0, 1) for i in range(d)]
    return graph_from_edge_list(d + 3, edges + [(2, d + 2)])


def bfs_distances(g: Graph, source: int, sinks=frozenset()) -> list[int]:
    """Hop distances from source by a plain queue BFS over the CSR arrays;
    -1 for unreachable vertices. It shares no code with the oracle. A vertex
    of ``sinks`` other than source is reached but not expanded."""
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u in sinks and u != source:
            continue
        for w in nbr[ptr[u] : ptr[u + 1]]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def visible_from(g: Graph, u: int, s) -> list[bool]:
    """The polynomial MV reference: entry v is True iff some shortest u-v path
    has no member of s inside, that is iff a BFS from u that expands no member
    of s but u reaches v at its distance from u. It shares no code with the
    oracle's ``sees`` or the validators' class sweep."""
    return [a == b for a, b in zip(bfs_distances(g, u, set(s)), bfs_distances(g, u))]


def enumerate_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """All shortest u-v paths by exhaustive DFS (independent of the DAG code)."""
    dist = bfs_distances(g, u)
    target = dist[v]
    assert target >= 0
    paths = []

    def rec(path):
        w = path[-1]
        if w == v:
            paths.append(tuple(path))
            return
        if len(path) - 1 == target:
            return
        for x in g.indices[g.indptr[w] : g.indptr[w + 1]].tolist():
            if x not in path:
                path.append(x)
                rec(path)
                path.pop()

    rec([u])
    return [p for p in paths if len(p) - 1 == target]


def diameter(g: Graph) -> int:
    """Max hop distance over every BFS row; g must be connected."""
    rows = [bfs_distances(g, s) for s in range(g.n)]
    assert all(min(row) >= 0 for row in rows)
    return max(map(max, rows))


class HGadgetLegend(NamedTuple):
    c: int
    p: int
    c2: int
    p2: int
    leaves: tuple[int, ...]


def build_h_gadget(n: int) -> tuple[Graph, HGadgetLegend]:
    """The paper's H gadget: two stars on n+2 vertices with their n leaves
    identified. The centres are c and c2, each with one pendant, p and p2."""
    c, p, c2, p2 = 0, 1, 2, 3
    leaves = tuple(range(4, 4 + n))
    edges = [(c, p), (c2, p2)]
    for leaf in leaves:
        edges += [(c, leaf), (c2, leaf)]
    return graph_from_edge_list(n + 4, edges), HGadgetLegend(c, p, c2, p2, leaves)


def nae_satisfies(f, values) -> bool:
    """Clause-by-clause NAE check; values[i - 1] is the value of x_i."""
    for cl in f.clauses:
        truths = [values[var - 1] == positive for var, positive in cl]
        if all(truths) or not any(truths):
            return False
    return True


def brute_pair_visible(g: Graph, u: int, v: int, blocked_set) -> bool:
    """Some shortest path with no blocked internal vertex, by enumeration."""
    if u == v:
        return True
    return any(
        all(w not in blocked_set for w in p[1:-1])
        for p in enumerate_shortest_paths(g, u, v)
    )


def brute_is_mv_set(g: Graph, s) -> bool:
    s = set(s)
    return all(
        brute_pair_visible(g, u, v, s - {u, v}) for u, v in combinations(sorted(s), 2)
    )


def brute_is_gp_set(g: Graph, s) -> bool:
    """No shortest path between two members has a third member inside, by
    enumeration."""
    s = set(s)
    return not any(
        any(w in s for w in p[1:-1])
        for u, v in combinations(sorted(s), 2)
        for p in enumerate_shortest_paths(g, u, v)
    )


def brute_coloring_valid(g: Graph, colors) -> bool:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return all(brute_is_mv_set(g, members) for members in classes.values())


def restricted_growth_strings(n: int, max_colors: int):
    """Color assignments canonical up to color renaming, first vertex color 0."""

    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(min(used + 1, max_colors)):
            prefix.append(c)
            yield from rec(prefix, max(used, c + 1))
            prefix.pop()

    yield from rec([], 0)


def brute_chi_mu(g: Graph, max_colors: int) -> int | None:
    """Smallest color count over canonical enumeration, or None if > max_colors."""
    best = None
    for colors in restricted_growth_strings(g.n, max_colors):
        k = max(colors) + 1
        if best is not None and k >= best:
            continue
        if brute_coloring_valid(g, colors):
            best = k
            if best == 1:
                break
    return best


def first_fit_coloring(g: Graph) -> tuple[int, Coloring]:
    """First fit in greedy's vertex order, ``g.degree_order``, on the
    brute-force MV test: v joins the smallest class that stays an MV set,
    else a new one."""
    classes: list[list[int]] = []
    colors = [-1] * g.n
    for v in g.degree_order.tolist():
        c = next(
            (c for c, cls in enumerate(classes) if brute_is_mv_set(g, cls + [v])),
            len(classes),
        )
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
        colors[v] = c
    return len(classes), Coloring(tuple(colors), len(classes))


def all_two_colorings(n: int):
    yield from product((0, 1), repeat=n)


def coloring_with_k(colors) -> Coloring:
    """A coloring drawn from a fixed palette; unused trailing colors dropped."""
    dense_map = {}
    dense = []
    for c in colors:
        if c not in dense_map:
            dense_map[c] = len(dense_map)
        dense.append(dense_map[c])
    return Coloring(tuple(dense), len(dense_map))


def trees_up_to(max_n):
    """Every (r, t) with |V(GT(r, t))| <= max_n, by t and then r."""
    t = 2
    while glued_tree_order(1, t) <= max_n:
        r = 1
        while glued_tree_order(r, t) <= max_n:
            yield r, t
            r += 1
        t += 1
