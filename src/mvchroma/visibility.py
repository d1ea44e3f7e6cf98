"""Validators for mutual-visibility and general-position sets and colorings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ColoringNotTotalError, OutOfRangeVertexError
from .graph import DistanceOracle, Graph, geodesic_exists_avoiding


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


def _mv_violating_pairs(
    g: Graph, o: DistanceOracle, members: list[int]
) -> list[tuple[int, int]]:
    """Pairs (x, y), x < y, with no geodesic whose internal vertices avoid
    the member set (endpoints exempt).

    Level-synchronous frontier propagation from every member at once. Two
    members of a connected graph always see each other.
    """
    s = len(members)
    if s < 3:
        return []
    A = g.sparse_adjacency()
    dist = np.asarray(o.dist)
    mem = np.asarray(members)
    D = dist[mem]  # s x n, distances from each source member
    Dm = D[:, mem]  # s x s
    in_set = np.zeros(g.n, dtype=bool)
    in_set[mem] = True
    allowed = ~in_set
    vis = np.eye(s, dtype=bool)
    frontier = np.zeros((g.n, s), dtype=bool)
    frontier[mem, np.arange(s)] = True
    maxd = int(Dm.max())
    for d in range(1, maxd + 1):
        reached = (A @ frontier) > 0  # n x s
        reached &= (D.T == d)
        vis |= reached[mem, :].T & (Dm == d)
        frontier = reached & allowed[:, None]
        if not frontier.any():
            # remaining member pairs at larger distances are invisible
            break
    return _violating_pairs(members, ~vis)


def _scan_classes(
    o: DistanceOracle, classes, violating_pairs, exhaustive: bool
) -> ValidationReport:
    """The class loop shared by every MV and GP check."""
    o.require_connected_graph()
    violations: list[tuple[int, int, int]] = []
    checked = 0
    for color, members in enumerate(classes):
        s = len(members)
        checked += s * (s - 1) // 2
        violations.extend((u, v, color) for u, v in violating_pairs(members))
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


def _set_members(o: DistanceOracle, s) -> list[int]:
    members = sorted(set(int(v) for v in s))
    for v in members:
        if not 0 <= v < o.n:
            raise OutOfRangeVertexError(f"vertex {v} out of range")
    return members


def is_mv_set(g: Graph, o: DistanceOracle, s) -> bool:
    """True iff every pair in s sees each other avoiding s-internal vertices."""
    return _scan_classes(
        o, [_set_members(o, s)], lambda m: _mv_violating_pairs(g, o, m), False
    ).valid


def _require_total(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise ColoringNotTotalError(
            f"coloring covers {c.n} vertices, graph has {g.n}"
        )


def validate_mv_coloring(
    g: Graph, o: DistanceOracle, c: Coloring, exhaustive: bool = False
) -> ValidationReport:
    """Check every color class for mutual visibility.

    With exhaustive=False (solver use) the first violating class stops the
    scan; exhaustive=True lists every violating pair. Violations are ordered
    lexicographically by (color, u, v).
    """
    _require_total(g, c)
    return _scan_classes(
        o, c.color_classes(), lambda m: _mv_violating_pairs(g, o, m), exhaustive
    )


def is_gp_set(o: DistanceOracle, s) -> bool:
    """True iff no three members of s lie on a common shortest path."""
    return _scan_classes(
        o, [_set_members(o, s)], lambda m: _gp_violating_pairs(o, m), False
    ).valid


def _gp_violating_pairs(o: DistanceOracle, members: list[int]) -> list[tuple[int, int]]:
    """Pairs (x, y), x < y, with some third member on an x-y geodesic."""
    s = len(members)
    if s < 3:
        return []
    mem = np.asarray(members)
    Dm = np.asarray(o.dist)[np.ix_(mem, mem)]
    bad = np.zeros((s, s), dtype=bool)
    for z in range(s):
        collinear = Dm[:, z][:, None] + Dm[z, :][None, :] == Dm
        collinear[z, :] = False
        collinear[:, z] = False
        bad |= collinear
    return _violating_pairs(members, bad)


def validate_gp_coloring(
    g: Graph, o: DistanceOracle, c: Coloring, exhaustive: bool = False
) -> ValidationReport:
    """Check every color class for general position."""
    _require_total(g, c)
    return _scan_classes(
        o, c.color_classes(), lambda m: _gp_violating_pairs(o, m), exhaustive
    )


def cycle_class_intersection(s, cycle) -> int:
    """|s ∩ cycle|."""
    return len(set(s) & set(cycle))


def pair_visible(g: Graph, o: DistanceOracle, u: int, v: int, same_class) -> bool:
    """Single-pair view of the class check, for cross-validation in tests."""
    blocked = set(same_class) - {u, v}
    return geodesic_exists_avoiding(g, o, u, v, lambda w: w in blocked)
