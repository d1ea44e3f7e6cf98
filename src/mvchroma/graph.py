"""Immutable simple undirected graphs, BFS distances and geodesic primitives.

Vertex ids are dense 0-based integers, and graph_from_edge_list builds no
graph with more than DEFAULT_SIZE_CAP vertices. Distances come from one BFS
row per source vertex, built on first use; an oracle needs a connected graph,
so every row holds every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import and_, or_

import numpy as np

from .errors import (
    DisconnectedGraphError,
    OutOfRangeVertexError,
    SelfLoopError,
    SizeCapExceededError,
)

UNREACHABLE = -1
DEFAULT_SIZE_CAP = 200_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as compressed sparse rows ``(indptr, indices)``: the
        neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``, sorted."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self.adjacency], out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(self.adjacency), dtype=np.int64, count=int(indptr[-1])
        )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as Python-int bitmasks: bit w of ``neighbor_masks[v]``
        is set iff w is a neighbour of v."""
        return tuple(sum(1 << w for w in a) for a in self.adjacency)

    @cached_property
    def oracle(self) -> DistanceOracle:
        """The graph's one distance oracle, so its BFS rows are built once
        however many searches read them."""
        return DistanceOracle(self)


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise OutOfRangeVertexError(f"vertex {v} out of range 0..{n - 1}")


def graph_from_edge_list(n: int, edges) -> Graph:
    """Build a canonical simple graph; duplicate edges collapse, self-loops raise."""
    if n < 0:
        raise OutOfRangeVertexError("vertex count must be non-negative")
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(f"{n} vertices is more than {DEFAULT_SIZE_CAP}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            _check_vertex(u, n)
            _check_vertex(v, n)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        m=sum(map(len, adj)) // 2,
    )


def require_connected_graph(g: Graph) -> None:
    """Raise DisconnectedGraphError unless g is connected.

    Building g's cached oracle makes the check, so on a connected graph
    only the first call costs a BFS.
    """
    g.oracle


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; -1 for unreachable vertices."""
    _check_vertex(source, g.n)
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if dist[w] == UNREACHABLE:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class DistanceOracle:
    """Hop distances from one BFS row per vertex, built on first use.

    A row keeps the vertex's distances and its distance levels as bitmasks.
    The internal levels of the u-v geodesic DAG are ``L_u[i] & L_v[d - i]``
    for i in 1..d-1, which is how ``through`` finds the vertices past v.

    ``sees`` reads only x's row. It carries ``reach`` outward from x level
    by level, like the validators' class sweep: the vertices of the level
    that some geodesic from x reaches with no blocked vertex inside. The
    next level's reach is the neighbours of reach's unblocked vertices in
    that level. While reach is a whole level with none of it blocked, the
    next reach is the whole next level, since every vertex of a BFS level
    has a neighbour one level up.

    Building an oracle raises DisconnectedGraphError unless every vertex
    reaches vertex 0 (graphs with at most one vertex count as connected),
    so every row holds every vertex.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._rows: list[tuple[list[int], list[int]] | None] = [None] * g.n
        if g.n > 1 and UNREACHABLE in self._row(0)[0]:
            raise DisconnectedGraphError("graph is disconnected")

    def _row(self, u: int) -> tuple[list[int], list[int]]:
        row = self._rows[u]
        if row is None:
            dist = bfs_distances(self.g, u)
            levels = [0] * (max(dist) + 1)
            for w, d in enumerate(dist):
                levels[d] |= 1 << w
            row = self._rows[u] = (dist, levels)
        return row

    def d(self, u: int, v: int) -> int:
        _check_vertex(u, self.g.n)
        _check_vertex(v, self.g.n)
        return self._row(u)[0][v]

    def through(self, x: int, v: int) -> int:
        """Bitmask of the vertices y with v on some shortest x-y path, that is
        with d(x, v) + d(v, y) == d(x, y)."""
        rows = self._rows
        dx, lx = rows[x] or self._row(x)
        lv = (rows[v] or self._row(v))[1]
        return reduce(or_, map(and_, lv, lx[dx[v]:]))

    def sees(self, x: int, targets: int, blocked: int) -> bool:
        """True iff x sees every vertex of the bitmask ``targets`` along a
        geodesic with no vertex of ``blocked`` inside."""
        lx = (self._rows[x] or self._row(x))[1]
        nbr = self.g.neighbor_masks
        # x is an endpoint of every geodesic from it, so it never blocks
        blocked &= ~lx[0]
        targets &= ~lx[0]
        reach = lx[0]
        whole = True  # reach is the whole previous level
        for level in lx[1:]:
            if not targets:
                return True
            if whole and not reach & blocked:
                reach = level
            else:
                free = reach & ~blocked
                reach = 0
                while free:
                    low = free & -free
                    reach |= nbr[low.bit_length() - 1]
                    free ^= low
                reach &= level
                whole = reach == level
            if targets & level & ~reach:
                return False
            targets &= ~level
        return True


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """The distance oracle of g; its rows are built as they are asked for.

    The name is older than the lazy oracle: ``perfbench`` calls and traces
    this function under it.
    """
    return DistanceOracle(g)
