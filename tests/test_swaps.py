"""The coloring-preserving sibling swaps of a glued tree and the
representative sweep built on them (``swap_representatives``).

Swaps are rebuilt here from the heap layout alone and checked against the
graph's edges and the coloring; the representative verdicts are checked
against the full validators."""

import random
from functools import cache

import numpy as np
import pytest

from conftest import trees_up_to
from mvchroma import (
    Coloring,
    build_glued_tree,
    chi_mu_formula,
    constructive_coloring,
    graph_from_edge_list,
    validate_gp_coloring,
    validate_mv_coloring,
    verify_theorem,
)
from mvchroma.errors import InvalidParamsError, OutOfRangeVertexError
from mvchroma.gluedtrees import sibling_types, swap_representatives
import mvchroma.gluedtrees as gluedtrees
import mvchroma.visibility as visibility

NON_GAP = [rt for rt in trees_up_to(2000) if not chi_mu_formula(*rt).gap]
DEEP = [(r, 2) for r in range(10, 14)]
# BATCH_SOURCES values for the narrow-batch sweeps, each with the largest
# tree it sweeps: at 2 bits GT(12,2) and GT(13,2) would add a third to this
# file's run time
NARROW = {8: 30_000, 2: 10_000}


def level_offsets(r: int, t: int) -> np.ndarray:
    """The first local heap index of each level 0..r+1."""
    return np.array([(t**level - 1) // (t - 1) for level in range(r + 2)])


def swap_image(tree, level: int, a, b, w):
    """The images of vertex ids w under the swap of the sibling subtrees at
    local heap indices a and b of ``level`` (arrays broadcast with w).

    The descendants of local index x at relative depth k are the t^k
    indices from x*t^k + (t^k - 1)/(t - 1) on, on both sides; a side-2
    vertex's and a quasi-leaf's id are per_side plus the local index."""
    r, t = tree.r, tree.t
    offsets = level_offsets(r, t)
    per_side = offsets[r]
    local = np.where(w < per_side, w, w - per_side)
    k = np.searchsorted(offsets, local, side="right") - 1 - level
    tk = t ** np.maximum(k, 0)
    top = (local - (tk - 1) // (t - 1)) // tk
    side = (top == a).astype(np.int64) - (top == b)
    return w + (k >= 0) * side * (b - a) * tk


def subtree_vertices(tree, level: int, x) -> np.ndarray:
    """The vertex ids of the subtrees at local indices x (a column array),
    both sides and the quasi-leaves below, one row each."""
    r, t = tree.r, tree.t
    per_side = level_offsets(r, t)[r]
    parts = []
    for k in range(r - level + 1):
        local = x * t**k + (t**k - 1) // (t - 1) + np.arange(t**k)
        parts += [per_side + local] if level + k == r else [local, per_side + local]
    return np.concatenate(parts, axis=1)


def sibling_pairs(tree, coloring, level: int):
    """(a, b, equal): for each position b of ``level`` after the first
    child of its parent, a is the first sibling with b's type if that is
    not b itself (equal), else the first child (not equal); local heap
    indices."""
    t = tree.t
    types = sibling_types(tree, coloring)[level]
    index = np.arange(len(types))
    row = index // t
    _, first, inverse = np.unique(
        row * (types.max() + 1) + types, return_index=True, return_inverse=True
    )
    first = first[inverse]
    equal = first != index
    a = np.where(equal, first, row * t)
    keep = index % t > 0
    base = level_offsets(tree.r, t)[level]
    return base + a[keep], base + index[keep], equal[keep]


def check_swaps(tree, coloring):
    g = tree.graph
    indptr, indices = g.indptr, g.indices
    degree = np.diff(indptr)
    edges = np.sort(np.repeat(np.arange(g.n), degree) * g.n + indices)
    colors = np.asarray(coloring.colors)
    swaps = 0
    for level in range(1, tree.r + 1):
        a, b, equal = sibling_pairs(tree, coloring, level)
        if not len(a):
            continue
        moved = np.concatenate(
            (subtree_vertices(tree, level, a[:, None]), subtree_vertices(tree, level, b[:, None])),
            axis=1,
        )
        image = swap_image(tree, level, a[:, None], b[:, None], moved)
        # a bijection of each swap's moved vertices, and an involution
        assert (np.sort(image, axis=1) == np.sort(moved, axis=1)).all()
        assert (swap_image(tree, level, a[:, None], b[:, None], image) == moved).all()
        # the swap fixes the coloring exactly when the types are equal
        assert ((colors[image] == colors[moved]).all(axis=1) == equal).all()
        # every edge at a moved vertex maps to an edge; the others are fixed
        row = np.repeat(np.arange(len(a))[:, None], moved.shape[1], axis=1).ravel()
        u = moved.ravel()
        deg = degree[u]
        start = np.repeat(indptr[u] - np.cumsum(deg) + deg, deg)
        w = indices[start + np.arange(deg.sum())]
        row, u = np.repeat(row, deg), np.repeat(u, deg)
        iu = swap_image(tree, level, a[row], b[row], u)
        iw = swap_image(tree, level, a[row], b[row], w)
        key = iu * g.n + iw
        assert np.isin(key, edges).all()
        swaps += int(equal.sum())
    return swaps


def test_equal_type_swaps_are_coloring_automorphisms():
    # the constructive coloring on every non-gap tree with n <= 2000, and
    # one color, which makes all siblings equal, on the gap trees
    swaps = 0
    for r, t in trees_up_to(2000):
        tree = build_glued_tree(r, t)
        if chi_mu_formula(r, t).gap:
            coloring = Coloring((0,) * tree.graph.n, 1)
        else:
            coloring = constructive_coloring(tree)
        swaps += check_swaps(tree, coloring)
    assert swaps > 2_000_000


def verdicts(report):
    """(mv, gp) from one MV report, which says both."""
    return report.valid, report.gp_valid


def representative_verdicts(tree, coloring):
    sources = swap_representatives(tree, coloring)
    return verdicts(validate_mv_coloring(tree.graph, coloring, sources=sources))


def full_verdicts(tree, coloring):
    return verdicts(validate_mv_coloring(tree.graph, coloring))


def narrow_verdicts(tree, coloring, width, entries):
    """The representative verdicts with ``BATCH_SOURCES`` monkeypatched to
    ``width``. Each batch must hold at most ``width`` source bits; its
    entries are appended to ``entries`` as (batch length, class size, lo, hi)."""
    real = visibility._batches

    def spy(classes):
        for batch in real(classes):
            assert sum(hi - lo for _, _, lo, hi in batch) <= width
            entries.extend((len(batch), len(members), lo, hi) for _, members, lo, hi in batch)
            yield batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(visibility, "BATCH_SOURCES", width)
        mp.setattr(visibility, "_batches", spy)
        return representative_verdicts(tree, coloring)


@cache
def constructive_verdicts():
    """(full, representatives, narrow) verdicts, each a dict from (r, t) to
    (mv, gp); narrow maps each width in NARROW to such a dict, over the
    trees up to that width's size, and to the batch entries its sweeps saw
    (``narrow_verdicts``)."""
    full, representatives, narrow = {}, {}, {}
    for width in NARROW:
        narrow[width] = {}, []
    for r, t in NON_GAP + DEEP:
        tree = build_glued_tree(r, t)
        coloring = constructive_coloring(tree)
        full[r, t] = full_verdicts(tree, coloring)
        representatives[r, t] = representative_verdicts(tree, coloring)
        for width, (verdicts, entries) in narrow.items():
            if tree.graph.n <= NARROW[width]:
                verdicts[r, t] = narrow_verdicts(tree, coloring, width, entries)
    return full, representatives, narrow


def test_representatives_match_full_validators():
    full, representatives, _ = constructive_verdicts()
    assert representatives == full
    # both GP verdicts occur (GT(3,2) is not in general position)
    assert {gp for _, gp in full.values()} == {True, False}


def test_representatives_match_full_validators_in_narrow_batches():
    # batches are packed by source bits: at 8 bits a class of more members
    # shares its batch, which packing by class size would never do, and at
    # 2 bits a class's representatives are cut into chunks (lo > 0)
    full, _, narrow = constructive_verdicts()
    verdicts, entries = narrow[8]
    assert verdicts == full
    assert any(size > 8 and shared > 1 for shared, size, _, _ in entries)
    verdicts, entries = narrow[2]
    assert verdicts == {rt: full[rt] for rt in verdicts}
    assert (11, 2) in verdicts
    assert any(lo > 0 for _, _, lo, _ in entries)


def perturbed_colorings(tree, rng, count):
    """The constructive coloring with one vertex recolored, or with two
    differently colored vertices swapped, ``count`` of each."""
    base = constructive_coloring(tree)
    n, k = tree.graph.n, base.k
    for _ in range(count):
        colors = list(base.colors)
        v = rng.randrange(n)
        colors[v] = rng.choice([c for c in range(k) if c != colors[v]])
        yield Coloring(tuple(colors), k)
    for _ in range(count):
        colors = list(base.colors)
        u = rng.randrange(n)
        v = rng.choice([v for v in range(n) if colors[v] != colors[u]])
        colors[u], colors[v] = colors[v], colors[u]
        yield Coloring(tuple(colors), k)


def test_representatives_match_full_validators_on_perturbed_colorings():
    # again at 2 source bits per sweep, where a class's representatives
    # are cut into chunks
    rng = random.Random(20251018)
    verdicts, entries = set(), []
    for r, t in NON_GAP:
        tree = build_glued_tree(r, t)
        if tree.graph.n > 300:
            continue
        for coloring in perturbed_colorings(tree, rng, 3):
            full = full_verdicts(tree, coloring)
            assert representative_verdicts(tree, coloring) == full, (r, t, coloring)
            # GP mode from representatives against the full MV report's gp_valid
            sources = swap_representatives(tree, coloring)
            gp = validate_gp_coloring(tree.graph, coloring, sources=sources).valid
            assert gp == full[1], (r, t, coloring)
            assert narrow_verdicts(tree, coloring, 2, entries) == full, (r, t, coloring)
            verdicts.add(full)
    # every verdict pair that can occur did: GP implies MV
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert any(lo > 0 for _, _, lo, _ in entries)


def test_verify_theorem_sweeps_from_representatives(monkeypatch):
    seen = []
    real = visibility.validate_mv_coloring

    def spy(g, c, exhaustive=False, *, sources=None):
        seen.append(sources)
        return real(g, c, exhaustive, sources=sources)

    monkeypatch.setattr(gluedtrees, "validate_mv_coloring", spy)
    assert verify_theorem(13, 2, gp=True).gp_valid
    # one validation gives both verdicts
    assert [len(sources) for sources in seen] == [140]


def test_exhaustive_report_refuses_sources():
    tree = build_glued_tree(3, 2)
    c = constructive_coloring(tree)
    # P3 in one class is not MV; a source out of range, and a class with no
    # source, would skip the sweep that finds it
    p3 = graph_from_edge_list(3, [(0, 1), (1, 2)])
    one = Coloring((0, 0, 0), 1)
    for validate in (validate_mv_coloring, validate_gp_coloring):
        with pytest.raises(InvalidParamsError):
            validate(tree.graph, c, True, sources=[0])
        assert not validate(p3, one, sources=[0]).valid
        with pytest.raises(OutOfRangeVertexError):
            validate(p3, one, sources=[9])
        with pytest.raises(InvalidParamsError, match="no source"):
            validate(p3, one, sources=[])
