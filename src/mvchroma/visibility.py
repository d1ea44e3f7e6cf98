"""Validators for mutual-visibility and general-position sets and colorings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ColoringNotTotalError, InvalidParamsError
from .graph import DistanceOracle, Graph, require_int, require_vertex


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
    colors = tuple(require_int(c, ColoringNotTotalError, "color") for c in colors)
    if not colors:
        raise ColoringNotTotalError("empty coloring")
    used = sorted(set(colors))
    if used != list(range(len(used))):
        raise ColoringNotTotalError(f"color ids not dense: {used}")
    return Coloring(colors=colors, k=len(used))


# An exhaustive report lists at most this many violating pairs, the smallest
# in (color, u, v) order, and counts the rest in ``violation_count``.
MAX_LISTED_VIOLATIONS = 100_000


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """A validator's verdict. Two reports are equal when their fields are,
    the listed pairs compared as ``violations``, their tuple view."""

    valid: bool
    # the listed violating pairs as a (k, 3) int64 array of (u, v, color) rows
    pairs: np.ndarray
    checked_pairs: int
    # every violating pair when exhaustive; otherwise the scan stops at the
    # first, so 0 or 1
    violation_count: int = 0
    # every class is in general position: exact in both modes, read from the
    # same sweeps, since a scan stops only on a GP violation
    gp_valid: bool = True

    def __post_init__(self):
        object.__setattr__(self, "pairs", np.asarray(self.pairs, dtype=np.int64).reshape(-1, 3))

    @cached_property
    def violations(self) -> tuple[tuple[int, int, int], ...]:
        """The listed pairs as (u, v, color) tuples of Python ints."""
        return tuple(map(tuple, self.pairs.tolist()))

    def _key(self):
        return self.valid, self.violations, self.checked_pairs, self.violation_count, self.gp_valid

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ValidationReport) else NotImplemented

    def __hash__(self):
        return hash(self._key())


# Sources per multi-source BFS. A batch holds O(m * BATCH_SOURCES / 8) bytes
# of state, however large the class it comes from.
BATCH_SOURCES = 1024


def _bit_matrix(rows: np.ndarray, s: int) -> np.ndarray:
    """Unpack rows of uint64 words into a bool matrix of s columns, bit i of
    a row (word i // 64, bit i % 64) becoming column i."""
    octets = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=s, bitorder="little").view(bool)


def _bit_range(lo: int, hi: int, words: int) -> np.ndarray:
    """One row of uint64 words with bits lo..hi-1 set."""
    flags = np.zeros(words * 64, dtype=bool)
    flags[lo:hi] = True
    return np.packbits(flags, bitorder="little").view("<u8").astype(np.uint64)


def _degree_blocks(g: Graph) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """The vertices renumbered in ``g.degree_order``, as ``(rank, blocks)``:
    rank maps old ids to new, and each distinct degree d has a block
    ``(lo, hi, neighbours)`` with new ids lo..hi-1 and their (hi - lo) x d
    matrix of neighbours' new ids.

    An OR over neighbours is then one gather and one reduce per block.
    ``np.bitwise_or.reduceat`` over the CSR rows runs an inner loop per
    vertex and word, and one BFS level of the largest GT(11, 2) class took
    five times as long with it.
    """
    rank = np.empty(g.n, dtype=np.int64)
    rank[g.degree_order] = np.arange(g.n)
    degree, starts = np.diff(g.indptr)[g.degree_order], g.indptr[g.degree_order]
    _, first, count = np.unique(-degree, return_index=True, return_counts=True)
    return rank, [
        (lo, lo + c, rank[g.indices[starts[lo : lo + c, None] + np.arange(degree[lo])]])
        for lo, c in zip(first.tolist(), count.tolist())
    ]


def _batches(classes):
    """Batches of at most BATCH_SOURCES sources. ``classes`` holds one
    ``(members, s)`` per colour, its s sources first. Classes of three or
    more members come in colour order: whole classes packed while their
    sources fit, and a class of more sources cut into chunks of
    BATCH_SOURCES, one batch each. A batch entry ``(color, members, lo, hi)``
    takes members[lo:hi] as its sources and all of members as its targets.

    Two members of a connected graph see each other, with no third member to
    lie between them, so a smaller class needs no sweep.
    """
    batch: list[tuple[int, list[int], int, int]] = []
    size = 0
    for color, (members, s) in enumerate(classes):
        if len(members) < 3 or not s:
            continue
        if batch and size + s > BATCH_SOURCES:
            yield batch
            batch, size = [], 0
        if s > BATCH_SOURCES:
            for lo in range(0, s, BATCH_SOURCES):
                yield [(color, members, lo, min(lo + BATCH_SOURCES, s))]
        else:
            batch.append((color, members, 0, s))
            size += s
    if batch:
        yield batch


def _class_sweep(n: int, rank: np.ndarray, blocks, batch) -> tuple[np.ndarray, np.ndarray]:
    """Bit-parallel BFS from every source of a batch at once, one bit per
    source (after Akiba, Iwata and Yoshida, SIGMOD 2013); ``rank`` and
    ``blocks`` come from ``_degree_blocks``.

    The entries' sources take consecutive bits, and their targets
    consecutive rows. A target's ``own`` row holds the bits of the sources
    in its class. Returns two target x word arrays, both masked by ``own``:
    ``hidden`` has bit x when no geodesic from source x avoids the class as
    strict internal vertices (an MV violation), and ``crossed`` when some
    geodesic has a member strictly inside (a GP violation).

    A vertex reached from source x at level d holds bit x in ``clean`` when
    some geodesic from x has no member of x's class strictly inside, and in
    ``dirty`` when some geodesic has one; every geodesic is one or the other,
    so the two together are the BFS frontier. A target passes the bits of
    its own class on dirty (``dirty |= clean & own; clean &= ~own``) and
    every other bit as it came, so the classes of a batch do not interact.
    The sweep ends when every target has been reached from every source of
    its class. Costs O(levels * m * b / 64) word operations and
    O(m * b / 8) bytes for b <= BATCH_SOURCES sources.
    """
    bits = sum(hi - lo for _, _, lo, hi in batch)
    words = (bits + 63) // 64
    tgt = np.concatenate([rank[members] for _, members, _, _ in batch])
    own, b0 = [], 0
    for _, members, lo, hi in batch:
        own.append(np.broadcast_to(_bit_range(b0, b0 + hi - lo, words), (len(members), words)))
        b0 += hi - lo
    own = np.concatenate(own)
    src = np.concatenate([rank[members[lo:hi]] for _, members, lo, hi in batch])
    bit = np.arange(bits)
    # state[v] = (clean, dirty) as passed on to v's neighbours
    state = np.zeros((n, 2, words), dtype=np.uint64)
    state[src, 0, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
    seen = state[:, 0].copy()
    visible = seen[tgt]
    crossed = np.zeros_like(visible)
    while not ((seen[tgt] & own) == own).all():
        reached = np.empty_like(state)
        for lo, hi, neighbours in blocks:
            np.bitwise_or.reduce(state[neighbours], axis=1, out=reached[lo:hi])
        front = (reached[:, 0] | reached[:, 1]) & ~seen
        seen |= front
        reached &= front[:, None, :]
        visible |= reached[tgt, 0]
        crossed |= reached[tgt, 1]
        reached[tgt, 1] |= reached[tgt, 0] & own
        reached[tgt, 0] &= ~own
        state = reached
    return own & ~visible, own & crossed


def _violating_entries(bad: np.ndarray, batch):
    """Yield ``(color, members, lo, pairs)`` for each entry of a batch whose
    ``bad`` rows (its sweep's ``hidden`` or ``crossed``) may hold a violation,
    in batch order: pairs[i, t] is set when source members[lo + i] and target
    members[t] violate with the source first, so each pair is set once."""
    row = b0 = 0
    for color, members, lo, hi in batch:
        s, b1 = len(members), b0 + hi - lo
        rows = bad[row : row + s]
        # most classes are clean; any() costs far less than unpacking
        if rows.any():
            pairs = _bit_matrix(rows, b1)[:, b0:].T
            pairs &= np.arange(lo, hi)[:, None] < np.arange(s)
            yield color, members, lo, pairs
        row, b0 = row + s, b1


def _scan_classes(
    g: Graph, classes, mode: str, exhaustive: bool, sources=None
) -> ValidationReport:
    """The class loop shared by every MV and GP check. Entries come in color
    order and their chunks in source order, so the pairs are listed in
    (color, u, v) order with no sort. Without exhaustive, the first
    violating entry stops the scan, and ``checked_pairs`` counts the classes
    up to and including its colour.

    With ``sources``, a class sweeps from its members in sources only,
    listed first, and still takes every member as a target; a listed pair
    is then (source, target). A source out of range, and a non-empty class
    with no source, raise.
    """
    # a sweep from orbit representatives misses the pairs their images cover
    if exhaustive and sources is not None:
        raise InvalidParamsError("an exhaustive report needs every member as a source")
    if sources is None:
        split = [(members, len(members)) for members in classes]
    else:
        chosen = set(_set_members(g, sources))
        split = []
        for members in classes:
            front = [v for v in members if v in chosen]
            if members and not front:
                raise InvalidParamsError(f"no source in color class {len(split)}")
            split.append((front + [v for v in members if v not in chosen], len(front)))
    room = MAX_LISTED_VIOLATIONS if exhaustive else 1
    count, listed, violations, gp_valid = 0, 0, [], True
    batches = list(_batches(split))
    if batches:
        rank, blocks = _degree_blocks(g)
    for batch in batches:
        hidden, crossed = _class_sweep(g.n, rank, blocks, batch)
        gp_valid = gp_valid and not crossed.any()
        bad = hidden if mode == "mv" else crossed
        for color, members, lo, pairs in _violating_entries(bad, batch):
            per_row = np.count_nonzero(pairs, axis=1)
            found = int(per_row.sum())
            if not found:
                continue
            count += found
            take = room - listed
            if take > 0:
                # unpack only the rows that hold the first `take` pairs
                stop = int(np.searchsorted(np.cumsum(per_row), take)) + 1
                i, t = np.nonzero(pairs[:stop])
                i, t, members = i[:take], t[:take], np.asarray(members)
                violations.append(np.stack((members[lo + i], members[t], np.full_like(i, color)), axis=1))
                listed += len(i)
            if not exhaustive:
                break
        if listed and not exhaustive:
            break
    last = int(violations[0][0, 2]) if listed and not exhaustive else len(classes) - 1
    return ValidationReport(
        valid=not listed,
        pairs=np.concatenate(violations) if violations else (),
        checked_pairs=sum(len(m) * (len(m) - 1) // 2 for m in classes[: last + 1]),
        violation_count=count if exhaustive else listed,
        gp_valid=gp_valid,
    )


def _set_members(g: Graph, s) -> list[int]:
    return sorted({require_vertex(v, g.n) for v in s})


def is_mv_set(g: Graph, s) -> bool:
    """True iff every pair in s sees each other avoiding s-internal vertices."""
    return _scan_classes(g, [_set_members(g, s)], "mv", False).valid


def _require_total(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise ColoringNotTotalError(
            f"coloring covers {c.n} vertices, graph has {g.n}"
        )
    # dense ids 0..k-1 on n vertices need k <= n
    if c.k > c.n:
        raise ColoringNotTotalError(f"{c.k} colors declared for {c.n} vertices")
    if c.colors and not 0 <= min(c.colors) <= max(c.colors) < c.k:
        raise ColoringNotTotalError(f"color ids outside 0..{c.k - 1}")


def validate_mv_coloring(
    g: Graph, c: Coloring, exhaustive: bool = False, *, sources=None
) -> ValidationReport:
    """Check every color class for mutual visibility.

    With exhaustive=False (solver use) the first violating class stops the
    scan; exhaustive=True counts every violating pair and lists the first
    MAX_LISTED_VIOLATIONS. Violations are ordered lexicographically by
    (color, u, v).

    ``sources``, when given, must hold a vertex of every orbit of a group
    of automorphisms of g that maps each color class onto itself. The
    sweep then runs from those members only, with every member a target:
    such a map takes a violating pair to a violating pair, so a violation
    exists iff one has an end in ``sources``. ``valid``, ``gp_valid`` and
    ``checked_pairs`` are those of the full scan; the listed pair is one
    violating (source, target) pair, not the smallest. It needs
    exhaustive=False.
    """
    _require_total(g, c)
    return _scan_classes(g, c.color_classes(), "mv", exhaustive, sources)


def is_gp_set(g: Graph, s) -> bool:
    """True iff no three members of s lie on a common shortest path."""
    return _scan_classes(g, [_set_members(g, s)], "gp", False).valid


def validate_gp_coloring(
    g: Graph, c: Coloring, exhaustive: bool = False, *, sources=None
) -> ValidationReport:
    """Check every color class for general position; ``exhaustive`` and
    ``sources`` as in ``validate_mv_coloring``."""
    _require_total(g, c)
    return _scan_classes(g, c.color_classes(), "gp", exhaustive, sources)


def pair_visible(g: Graph, o: DistanceOracle, u: int, v: int, same_class) -> bool:
    """Single-pair view of the class check, for cross-validation in tests:
    True iff some shortest u-v path has no vertex of ``same_class`` inside.

    ``o`` is g's distance oracle.
    """
    u, v = require_vertex(u, g.n), require_vertex(v, g.n)
    return not o.sees(u, 1 << v, sum(1 << w for w in _set_members(g, same_class)))
