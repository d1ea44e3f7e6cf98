"""Immutable simple undirected graphs, BFS distances and geodesic primitives.

Vertex ids are dense 0-based integers. Distances are stored as a dense
matrix with -1 marking unreachable pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    DisconnectedGraphError,
    OutOfRangeVertexError,
    SelfLoopError,
    UnreachablePairError,
)

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

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

    def sparse_adjacency(self) -> csr_matrix:
        """0/1 adjacency matrix in float64, the dtype scipy's csgraph
        routines convert their input to."""
        indptr, indices = self.csr
        data = np.ones(len(indices))
        return csr_matrix((data, indices, indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class DistanceOracle:
    """All-pairs hop distances; dist[u, v] == -1 when unreachable."""

    dist: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, u: int, v: int) -> int:
        return int(self.dist[u, v])

    def require_connected(self, u: int, v: int) -> int:
        d = int(self.dist[u, v])
        if d == UNREACHABLE:
            raise UnreachablePairError(f"vertices {u} and {v} are not connected")
        return d


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise OutOfRangeVertexError(f"vertex {v} out of range 0..{n - 1}")


def graph_from_edge_list(n: int, edges) -> Graph:
    """Build a canonical simple graph; duplicate edges collapse, self-loops raise."""
    if n < 0:
        raise OutOfRangeVertexError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        m=len(seen),
    )


def require_connected_graph(g: Graph) -> None:
    """Raise DisconnectedGraphError unless every vertex reaches vertex 0.

    Graphs with at most one vertex count as connected.
    """
    if g.n > 1 and UNREACHABLE in bfs_distances(g, 0):
        raise DisconnectedGraphError("graph is disconnected")


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


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """Dense all-pairs BFS distance matrix."""
    if g.n == 0:
        return DistanceOracle(dist=np.zeros((0, 0), dtype=np.int32))
    if g.m == 0:
        dist = np.full((g.n, g.n), UNREACHABLE, dtype=np.int32)
        np.fill_diagonal(dist, 0)
        return DistanceOracle(dist=dist)
    d = shortest_path(g.sparse_adjacency(), method="auto", unweighted=True)
    dist = np.where(np.isinf(d), UNREACHABLE, d).astype(np.int32)
    dist.setflags(write=False)
    return DistanceOracle(dist=dist)


def diameter(g: Graph, o: DistanceOracle | None = None) -> int:
    """Max hop distance; raises on disconnected input."""
    if g.n == 0:
        raise DisconnectedGraphError("empty graph has no diameter")
    require_connected_graph(g)
    if o is None:
        o = all_pairs_distances(g)
    return int(o.dist.max())


def on_some_geodesic(o: DistanceOracle, u: int, w: int, v: int) -> bool:
    """True iff w lies on some shortest u-v path."""
    for x in (u, w, v):
        _check_vertex(x, o.n)
    duv = o.require_connected(u, v)
    duw = o.d(u, w)
    dwv = o.d(w, v)
    if duw == UNREACHABLE or dwv == UNREACHABLE:
        return False
    return duw + dwv == duv


def geodesic_count(g: Graph, o: DistanceOracle, u: int, v: int) -> int:
    """Number of shortest u-v paths (exact, arbitrary precision)."""
    _check_vertex(u, g.n)
    _check_vertex(v, g.n)
    duv = o.require_connected(u, v)
    if u == v:
        return 1
    # vertices on the u-v shortest-path DAG, processed by distance from u
    du = o.dist[u]
    dv = o.dist[v]
    on_dag = [w for w in range(g.n) if du[w] != UNREACHABLE and du[w] + dv[w] == duv]
    on_dag.sort(key=lambda w: int(du[w]))
    count: dict[int, int] = {u: 1}
    for w in on_dag:
        if w == u:
            continue
        dw = int(du[w])
        count[w] = sum(
            count.get(x, 0) for x in g.adjacency[w] if int(du[x]) == dw - 1 and x in count
        )
    return count.get(v, 0)


def geodesic_avoids(g: Graph, layers: list[int], blocked: int) -> bool:
    """True iff a path picks one unblocked vertex from each layer in turn,
    consecutive picks adjacent.

    ``layers`` are the internal levels 1..d-1 of a u-v geodesic DAG as
    bitmasks, so such a path is a shortest u-v path that avoids the bitmask
    ``blocked``; with no layers (d <= 1) it always exists.
    """
    if not layers:
        return True
    nbr = g.neighbor_masks
    # reach: the level's vertices that end some geodesic prefix from u
    # with no blocked vertex
    reach = layers[0] & ~blocked
    for layer in layers[1:]:
        if not reach:
            return False
        rest = layer & ~blocked
        nxt = 0
        while rest:
            low = rest & -rest
            if nbr[low.bit_length() - 1] & reach:
                nxt |= low
            rest ^= low
        reach = nxt
    return reach != 0


def geodesic_exists_avoiding(g: Graph, o: DistanceOracle, u: int, v: int, blocked) -> bool:
    """True iff some shortest u-v path has no internal vertex w with blocked(w).

    Endpoints are always admitted. ``blocked`` is a predicate over vertex ids.
    """
    _check_vertex(u, g.n)
    _check_vertex(v, g.n)
    duv = o.require_connected(u, v)
    du = o.dist[u]
    internal = np.flatnonzero((du > 0) & (du < duv) & (du + o.dist[v] == duv))
    layers = [0] * max(duv - 1, 0)
    blocked_mask = 0
    for w, dw in zip(internal.tolist(), du[internal].tolist()):
        layers[dw - 1] |= 1 << w
        if blocked(w):
            blocked_mask |= 1 << w
    return geodesic_avoids(g, layers, blocked_mask)
