"""Immutable simple undirected graphs and their distance oracle.

A Graph, however it is built, is connected, on at most DEFAULT_SIZE_CAP
vertices, and keeps one adjacency, read-only CSR arrays; the validators read
only it. The DistanceOracle, which the solver and pair_visible read, caches
three things of the graph: one row per source, its BFS levels as bitmasks,
built on first use in one level-by-level pass; the neighbour lists that pass
walks; and the neighbour bitmasks ``sees`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import pairwise
from numbers import Integral
from operator import and_, or_

import numpy as np

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    OutOfRangeVertexError,
    SelfLoopError,
    SizeCapExceededError,
)

DEFAULT_SIZE_CAP = 200_000


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected simple undirected graph as read-only int64 CSR arrays: the
    sorted neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``. Arrays
    that break this raise a typed MvChromaError."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        """Check n and the CSR arrays, kept as read-only int64 copies, then
        raise DisconnectedGraphError unless every vertex reaches vertex 0.

        ``indptr`` must rise from 0 to len(indices) in n steps, every index
        must be a vertex other than its row's, and the rows must be strictly
        increasing and symmetric: the (u, v) keys u * n + v in row order
        rise and equal the (v, u) keys sorted. Then hooking and pointer
        jumping (after Shiloach and Vishkin, J. Algorithms 1982), which
        needs the symmetry, hooks every root with an edge out of its tree
        within two rounds, so O(log n) rounds suffice.
        """
        object.__setattr__(self, "n", _vertex_count(self.n))
        for name in ("indptr", "indices"):
            a = np.asarray(getattr(self, name))
            if a.ndim != 1 or (a.dtype.kind not in "iu" and a.size):  # [] reads as float
                raise GraphFormatError(f"{name} is not a one-dimensional integer array")
            a = a.astype(np.int64)  # a copy, so no caller's array is shared
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n, indptr, indices = self.n, self.indptr, self.indices
        degree = np.diff(indptr)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or (degree < 0).any():
            raise GraphFormatError(f"indptr does not rise from 0 to {len(indices)} in {n} steps")
        outside = (indices < 0) | (indices >= n)
        if outside.any():
            raise OutOfRangeVertexError(f"vertex {indices[outside][0]} out of range 0..{n - 1}")
        u, v = np.repeat(np.arange(n), degree), indices
        if (u == v).any():
            raise SelfLoopError(f"self-loop at vertex {u[u == v][0]}")
        keys = u * n + v
        if (np.diff(keys) <= 0).any() or not np.array_equal(keys, np.sort(v * n + u)):
            raise GraphFormatError("adjacency rows are not strictly increasing and symmetric")
        root = np.arange(n)
        while (root[u] != root[v]).any():
            np.minimum.at(root, root[u], root[v])
            while (root[root] != root).any():
                root = root[root]
        if root.any():
            raise DisconnectedGraphError("graph is disconnected")

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, sorted."""
        u = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = u < self.indices
        return list(zip(u[keep].tolist(), self.indices[keep].tolist()))

    @cached_property
    def degree_order(self) -> np.ndarray:
        """Vertices by non-increasing degree, ties by id: greedy's vertex
        order, the validators' renumbering and the base of ``search_order``."""
        return np.argsort(-np.diff(self.indptr), kind="stable")

    @cached_property
    def search_order(self) -> tuple[int, ...]:
        """The exact search's vertex order, which closes neighbourhoods early.

        A vertex comes as soon as every neighbour of it that is not a pendant
        (a degree-1 vertex) has come, a pendant right after its one neighbour,
        and otherwise the next vertex in ``degree_order``; ready vertices also
        come in degree order. O(m + n log n): a count of unplaced non-pendant
        neighbours per vertex, and a heap of the ready vertices keyed by degree
        rank.
        """
        n, by_degree = self.n, self.degree_order.tolist()
        degree = np.diff(self.indptr)
        ptr, nbr = self.indptr.tolist(), self.indices.tolist()
        pendant = (degree == 1).tolist()
        owner = np.repeat(np.arange(n), degree)
        waiting = np.bincount(owner[degree[self.indices] != 1], minlength=n).tolist()
        rank = np.argsort(self.degree_order).tolist()  # the inverse permutation
        ready = [rank[v] for v in range(n) if not waiting[v]]
        heapify(ready)
        placed, order, scan = [False] * n, [], 0
        while len(order) < n:
            if ready:
                v = by_degree[heappop(ready)]
            else:
                while placed[by_degree[scan]]:
                    scan += 1
                v = by_degree[scan]
            placed[v] = True
            order.append(v)
            nbrs = nbr[ptr[v] : ptr[v + 1]]
            for w in nbrs:  # by id, which is degree rank among pendants
                if pendant[w] and not placed[w]:
                    placed[w] = True
                    order.append(w)
            if not pendant[v]:
                for w in nbrs:
                    waiting[w] -= 1
                    if not waiting[w] and not placed[w]:
                        heappush(ready, rank[w])
        return tuple(order)

    @cached_property
    def oracle(self) -> DistanceOracle:
        """The graph's one distance oracle: each BFS row is built once."""
        return DistanceOracle(self)


def require_int(value, error: type[Exception], what: str) -> int:
    """value as a Python int; raises ``error`` when it is not an integer."""
    if not isinstance(value, Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _vertex_count(n) -> int:
    n = require_int(n, OutOfRangeVertexError, "vertex count")
    if n < 0:
        raise OutOfRangeVertexError("vertex count must be non-negative")
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(f"{n} vertices is more than {DEFAULT_SIZE_CAP}")
    return n


def graph_from_edge_list(n: int, edges) -> Graph:
    """Build a canonical simple graph; duplicate edges collapse, and
    self-loops and disconnected input raise."""
    n = _vertex_count(n)
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    e = np.asarray(edges)
    if e.dtype.kind not in "iu":  # ids past int64 stay Python ints; a non-integer raises
        ids = np.array(edges, dtype=object).flat
        e = np.array([require_int(x, OutOfRangeVertexError, "vertex id") for x in ids], dtype=object)
    e = e.reshape(-1, 2)
    bad = (e < 0) | (e >= n)
    if bad.any():
        raise OutOfRangeVertexError(f"vertex {e[bad][0]} out of range 0..{n - 1}")
    u, v = e.astype(np.int64, copy=False).T
    # both directions as sorted unique keys u * n + v; np.unique's hashing is slower
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    keys = keys[np.diff(keys, prepend=-1) > 0]
    rows, indices = np.divmod(keys, max(n, 1))
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return Graph(n=n, indptr=indptr, indices=indices)


def require_vertex(v, n: int) -> int:
    """v as a Python int; raises OutOfRangeVertexError unless it is an
    integer in 0..n-1."""
    v = require_int(v, OutOfRangeVertexError, "vertex id")
    if not 0 <= v < n:
        raise OutOfRangeVertexError(f"vertex {v} out of range 0..{n - 1}")
    return v


class DistanceOracle:
    """Hop distances from one BFS row per vertex, built on first use.

    A row is the vertex's distance levels as bitmasks and nothing else: d(u, v)
    is the index of u's level that holds v. The u-v geodesic DAG's internal
    levels are ``L_u[i] & L_v[d - i]`` for i in 1..d-1, which ``between``
    ORs together and ``through`` reads.

    ``sees`` reads only x's row. It carries ``reach`` outward from x level
    by level, like the validators' class sweep: the vertices of the level
    that some geodesic from x reaches with no blocked vertex inside. The
    next level's reach is the neighbours of reach's unblocked vertices in
    that level. While reach is a whole level with none of it blocked, the
    next reach is the whole next level, since every vertex of a BFS level
    has a neighbour one level up. It stops at the first level with a target
    outside reach and returns those targets. At the last level that holds
    targets it builds no reach: a target there is in reach iff one of its
    neighbours is in the previous reach and not blocked, so it tests the
    targets alone.

    The rows, the neighbour lists they are built from and the neighbour
    masks are all it keeps for the graph's lifetime.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._rows: list[list[int] | None] = [None] * g.n

    @cached_property
    def _nbrs(self) -> list[list[int]]:
        """The CSR rows as Python lists, made once: every row's BFS walks them."""
        ptr, nbr = self.g.indptr.tolist(), self.g.indices.tolist()
        return [nbr[a:b] for a, b in pairwise(ptr)]

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bit w of ``neighbor_masks[v]`` is set iff w is a neighbour of v."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self._nbrs)

    def _row(self, u: int) -> list[int]:
        row = self._rows[u]
        if row is None:
            # a vertex is seen once queued, so it joins one level, its first
            nbrs, seen = self._nbrs, [False] * self.g.n
            seen[u] = True
            row, front = [], [u]
            while front:
                level, ahead = 0, []
                for w in front:
                    level |= 1 << w
                    for y in nbrs[w]:
                        if not seen[y]:
                            seen[y] = True
                            ahead.append(y)
                row.append(level)
                front = ahead
            self._rows[u] = row
        return row

    def d(self, u: int, v: int) -> int:
        u, v = require_vertex(u, self.g.n), require_vertex(v, self.g.n)
        return next(i for i, level in enumerate(self._row(u)) if level >> v & 1)

    def through(self, x: int, v: int) -> int:
        """Bitmask of the vertices y with v on some shortest x-y path, that is
        with d(x, v) + d(v, y) == d(x, y)."""
        lx, lv = self._rows[x] or self._row(x), self._rows[v] or self._row(v)
        dxv = 0  # d(x, v): the level of v's row that holds x
        while not lv[dxv] >> x & 1:
            dxv += 1
        return reduce(or_, map(and_, lv, lx[dxv:]))

    def between(self, x: int, y: int) -> int:
        """Bitmask of the vertices inside some shortest x-y path: the OR of
        ``L_x[i] & L_y[d - i]`` over i in 1..d-1, with d = d(x, y)."""
        lx, ly = self._rows[x] or self._row(x), self._rows[y] or self._row(y)
        d = 0
        while not lx[d] >> y & 1:
            d += 1
        return reduce(or_, map(and_, lx[1:d], reversed(ly[1:d])), 0)

    def sees(self, x: int, targets: int, blocked: int) -> int:
        """The vertices of the bitmask ``targets`` that x does not see along
        a geodesic with no vertex of ``blocked`` inside, from the nearest
        level that holds any; 0 when x sees them all."""
        lx = self._rows[x] or self._row(x)
        nbr = self.neighbor_masks
        # x is an endpoint of every geodesic from it, so it never blocks
        blocked &= ~lx[0]
        targets &= ~lx[0]
        reach = lx[0]
        whole = True  # reach is the whole previous level
        for level in lx[1:]:
            if not targets:
                return 0
            if whole and not reach & blocked:
                reach = level
            else:
                free = reach & ~blocked
                if not targets & ~level:  # the last level: test only its targets
                    unseen = 0
                    while targets:
                        low = targets & -targets
                        if not nbr[low.bit_length() - 1] & free:
                            unseen |= low
                        targets ^= low
                    return unseen
                reach = 0
                while free:
                    low = free & -free
                    reach |= nbr[low.bit_length() - 1]
                    free ^= low
                reach &= level
                whole = reach == level
            unseen = targets & level & ~reach
            if unseen:
                return unseen
            targets &= ~level
        return 0


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """The distance oracle of g; its rows are built as they are asked for.

    The name is older than the lazy oracle: ``perfbench`` calls and traces
    this function under it.
    """
    return g.oracle
