"""Validators for mutual-visibility and general-position sets and colorings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ColoringNotTotalError, OutOfRangeVertexError
from .graph import DistanceOracle, Graph, require_connected_graph


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring with dense 0-based color ids 0..k-1."""

    colors: tuple[int, ...]
    k: int

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_classes(self) -> list[list[int]]:
        classes: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            classes[c].append(v)
        return classes


def coloring_from_list(colors) -> Coloring:
    """Validate and wrap a color list; ids must form the range 0..k-1."""
    colors = tuple(int(c) for c in colors)
    if not colors:
        raise ColoringNotTotalError("empty coloring")
    used = sorted(set(colors))
    if used != list(range(len(used))):
        raise ColoringNotTotalError(f"color ids not dense: {used}")
    return Coloring(colors=colors, k=len(used))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[int, int, int], ...]  # (u, v, color)
    checked_pairs: int


def _violating_pairs(members: list[int], bad: np.ndarray) -> list[tuple[int, int]]:
    """Member pairs (x, y), x < y, marked in the s x s matrix ``bad``."""
    # most classes are clean; any() costs far less than argwhere on large s
    if not bad.any():
        return []
    return [(members[i], members[j]) for i, j in np.argwhere(bad) if i < j]


def _bit_matrix(rows: np.ndarray, s: int) -> np.ndarray:
    """Unpack s rows of uint64 words into an s x s bool matrix, bit i of a
    row (word i // 64, bit i % 64) becoming column i."""
    octets = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=s, bitorder="little").view(bool)


def _degree_blocks(g: Graph) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """The vertices renumbered by non-increasing degree, as ``(rank, blocks)``:
    rank maps old ids to new, and each distinct degree d has a block
    ``(lo, hi, neighbours)`` with new ids lo..hi-1 and their (hi - lo) x d
    matrix of neighbours' new ids.

    An OR over neighbours is then one gather and one reduce per block.
    ``np.bitwise_or.reduceat`` over the CSR rows runs an inner loop per
    vertex and word, and one BFS level of the largest GT(11, 2) class took
    five times as long with it.
    """
    indptr, indices = g.csr
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    degree, starts = degree[order], indptr[order]
    _, first, count = np.unique(-degree, return_index=True, return_counts=True)
    return rank, [
        (lo, lo + c, rank[indices[starts[lo : lo + c, None] + np.arange(degree[lo])]])
        for lo, c in zip(first.tolist(), count.tolist())
    ]


def _class_sweep(g: Graph, members: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Bit-parallel BFS from every member at once, one bit per source (after
    Akiba, Iwata and Yoshida, SIGMOD 2013). The graph must be connected with
    n >= 2.

    Returns two symmetric s x s bool matrices over the members:
    ``hidden[i, j]`` when no members[i]-members[j] geodesic avoids the members
    as strict internal vertices (an MV violation), and ``crossed[i, j]`` when
    some geodesic has a member as a strict internal vertex (a GP violation).

    A vertex reached from source x at level d holds bit x in ``clean`` when
    some geodesic from x has no member strictly inside, and in ``dirty`` when
    some geodesic has one; every geodesic is one or the other, so the two
    together are the BFS frontier. A member past level 0 passes no ``clean``
    bit on and turns every bit it was reached by ``dirty``. Costs
    O(levels * m * s / 64) word operations and O(m * s / 8) bytes.
    """
    rank, blocks = _degree_blocks(g)
    s = len(members)
    words = (s + 63) // 64
    mem = rank[members]
    src = np.arange(s)
    is_member = np.zeros(g.n, dtype=bool)
    is_member[mem] = True
    # state[v] = (clean, dirty) as passed on to v's neighbours
    state = np.zeros((g.n, 2, words), dtype=np.uint64)
    state[mem, 0, src // 64] = np.uint64(1) << (src % 64).astype(np.uint64)
    seen = state[:, 0].copy()
    visible = seen[mem]
    crossed = np.zeros_like(visible)
    everyone = np.bitwise_or.reduce(visible, axis=0)  # bits 0..s-1
    while not (seen[mem] == everyone).all():
        reached = np.empty_like(state)
        for lo, hi, neighbours in blocks:
            np.bitwise_or.reduce(state[neighbours], axis=1, out=reached[lo:hi])
        front = (reached[:, 0] | reached[:, 1]) & ~seen
        seen |= front
        reached &= front[:, None, :]
        visible |= reached[mem, 0]
        crossed |= reached[mem, 1]
        reached[is_member, 0] = 0
        reached[is_member, 1] = front[is_member]
        state = reached
    return ~_bit_matrix(visible, s), _bit_matrix(crossed, s)


def _scan_classes(g: Graph, classes, mode: str, exhaustive: bool) -> ValidationReport:
    """The class loop shared by every MV and GP check."""
    require_connected_graph(g)
    violations: list[tuple[int, int, int]] = []
    checked = 0
    for color, members in enumerate(classes):
        s = len(members)
        checked += s * (s - 1) // 2
        # two members of a connected graph see each other, with no third
        # member to lie between them
        if s >= 3:
            hidden, crossed = _class_sweep(g, members)
            bad = hidden if mode == "mv" else crossed
            violations.extend((u, v, color) for u, v in _violating_pairs(members, bad))
        if violations and not exhaustive:
            break
    violations.sort(key=lambda t: (t[2], t[0], t[1]))
    if violations and not exhaustive:
        violations = violations[:1]
    return ValidationReport(
        valid=not violations,
        violations=tuple(violations),
        checked_pairs=checked,
    )


def _set_members(g: Graph, s) -> list[int]:
    members = sorted(set(int(v) for v in s))
    for v in members:
        if not 0 <= v < g.n:
            raise OutOfRangeVertexError(f"vertex {v} out of range")
    return members


def is_mv_set(g: Graph, s) -> bool:
    """True iff every pair in s sees each other avoiding s-internal vertices."""
    return _scan_classes(g, [_set_members(g, s)], "mv", False).valid


def _require_total(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise ColoringNotTotalError(
            f"coloring covers {c.n} vertices, graph has {g.n}"
        )


def validate_mv_coloring(
    g: Graph, c: Coloring, exhaustive: bool = False
) -> ValidationReport:
    """Check every color class for mutual visibility.

    With exhaustive=False (solver use) the first violating class stops the
    scan; exhaustive=True lists every violating pair. Violations are ordered
    lexicographically by (color, u, v).
    """
    _require_total(g, c)
    return _scan_classes(g, c.color_classes(), "mv", exhaustive)


def is_gp_set(g: Graph, s) -> bool:
    """True iff no three members of s lie on a common shortest path."""
    return _scan_classes(g, [_set_members(g, s)], "gp", False).valid


def validate_gp_coloring(
    g: Graph, c: Coloring, exhaustive: bool = False
) -> ValidationReport:
    """Check every color class for general position."""
    _require_total(g, c)
    return _scan_classes(g, c.color_classes(), "gp", exhaustive)


def cycle_class_intersection(s, cycle) -> int:
    """|s ∩ cycle|."""
    return len(set(s) & set(cycle))


def pair_visible(g: Graph, o: DistanceOracle, u: int, v: int, same_class) -> bool:
    """Single-pair view of the class check, for cross-validation in tests:
    True iff some shortest u-v path has no vertex of ``same_class`` inside.

    ``o`` is g's distance oracle; u and v must be connected.
    """
    o.require_connected(u, v)
    return o.sees(u, 1 << v, sum(1 << w for w in set(same_class)))
