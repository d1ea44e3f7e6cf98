"""Glued t-ary trees: generation, cycle extraction, the closed-form color
count and the constructive coloring.

A glued tree of depth r and arity t is two perfect t-ary trees with their
leaf sets identified pairwise. Internal vertices carry coordinates
(side, i, j) with 1 <= i <= r (depth i-1) and 1 <= j <= t^(i-1); the
identified leaves ("quasi-leaves") are indexed 1..t^r left to right.

Vertex id layout (fixed, documented for golden files): side-1 internals in
level order, then side-2 internals in level order, then quasi-leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import NamedTuple

import numpy as np

from .errors import (
    GapInputError,
    InvalidParamsError,
    InvalidQuasiLeafError,
    SizeCapExceededError,
)
from .graph import DEFAULT_SIZE_CAP, Graph, graph_from_edge_list, require_int, require_vertex
from .solver import chi_mu_exact
from .visibility import Coloring, validate_mv_coloring


@dataclass(frozen=True)
class Internal:
    side: int  # 1 or 2
    i: int  # level index >= 1; depth is i-1
    j: int  # position within level, 1-based


@dataclass(frozen=True)
class QuasiLeaf:
    a: int  # 1..t^r, left to right


TreeCoordinate = Internal | QuasiLeaf


@dataclass(frozen=True)
class LabeledGluedTree:
    """GT(r, t) with its vertex ids in heap order.

    Within a side, the internal vertex with local index x (level by level,
    left to right) has the local children t*x + 1 .. t*x + t; a local child
    index c >= (t^r - 1)/(t - 1), the internal count per side, is the
    quasi-leaf with id (t^r - 1)/(t - 1) + c. Ids and coordinates are
    computed from this layout in both directions.
    """

    graph: Graph
    r: int
    t: int

    @property
    def num_quasi_leaves(self) -> int:
        return self.t**self.r

    def internal(self, side: int, i: int, j: int) -> int:
        r, t = self.r, self.t
        side, i, j = (require_int(x, InvalidParamsError, "internal coordinate") for x in (side, i, j))
        if side not in (1, 2) or not 1 <= i <= r or not 1 <= j <= t ** (i - 1):
            raise InvalidParamsError(f"GT({r},{t}) has no internal vertex {(side, i, j)}")
        return (side - 1) * _internal_per_side(r, t) + _internal_per_side(i - 1, t) + j - 1

    def quasi(self, a: int) -> int:
        q = self.num_quasi_leaves
        a = require_int(a, InvalidQuasiLeafError, "quasi-leaf index")
        if not 1 <= a <= q:
            raise InvalidQuasiLeafError(f"need a quasi-leaf index in 1..{q}")
        return 2 * _internal_per_side(self.r, self.t) + a - 1

    def coord(self, v: int) -> TreeCoordinate:
        """The coordinates of vertex id v; the inverse of ``internal`` and
        ``quasi``."""
        v = require_vertex(v, self.graph.n)
        per_side = _internal_per_side(self.r, self.t)
        if v >= 2 * per_side:
            return QuasiLeaf(v - 2 * per_side + 1)
        side, x = divmod(v, per_side)
        # x lies in level i, whose local indices start at `first`
        i, first, width = 1, 0, 1
        while x >= first + width:
            i, first, width = i + 1, first + width, width * self.t
        return Internal(side + 1, i, x - first + 1)


@dataclass(frozen=True)
class CycleDecomposition:
    """The two equal-length quasi-leaf geodesics and the cycle they induce."""

    a: int
    b: int
    p_side1: tuple[int, ...]
    p_side2: tuple[int, ...]

    @property
    def all_vertices(self) -> frozenset[int]:
        return frozenset(self.p_side1) | frozenset(self.p_side2)


@dataclass(frozen=True)
class FormulaResult:
    """Closed-form color count, or an explicit gap for odd arity."""

    i: int
    value: int | None
    gap: bool
    candidates: tuple[int, ...]


def _internal_per_side(r: int, t: int) -> int:
    return (t**r - 1) // (t - 1)


def _tree_params(r, t) -> tuple[int, int]:
    r, t = require_int(r, InvalidParamsError, "r"), require_int(t, InvalidParamsError, "t")
    if r < 1 or t < 2:
        raise InvalidParamsError(f"need r >= 1 and t >= 2, got r={r}, t={t}")
    return r, t


def glued_tree_order(r: int, t: int) -> int:
    """|V(GT(r, t))| = 2(t^(r+1)-1)/(t-1) - t^r."""
    r, t = _tree_params(r, t)
    return 2 * _internal_per_side(r + 1, t) - t**r


def build_glued_tree(r: int, t: int) -> LabeledGluedTree:
    r, t = _tree_params(r, t)
    # n > t^r, so a t^r past 2^64 is over the cap without computing n,
    # whose decimal form may be too long to print
    if r * math.log2(t) > 64 or glued_tree_order(r, t) > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(
            f"GT({r},{t}) has more than {DEFAULT_SIZE_CAP} vertices"
        )
    # heap order: local index x has the local children c = t*x+1 .. t*x+t.
    # A side-2 vertex's id is per_side plus its local index, and so is the
    # id of the quasi-leaf a side reaches at local index c >= per_side
    per_side = _internal_per_side(r, t)
    c = np.arange(1, t * per_side + 1)  # every local child index, and its parent x
    x = (c - 1) // t
    side1 = np.column_stack((x, np.where(c < per_side, c, per_side + c)))
    edges = np.concatenate((side1, np.column_stack((x, c)) + per_side))
    return LabeledGluedTree(graph=graph_from_edge_list(glued_tree_order(r, t), edges), r=r, t=t)


def _heap_ancestors(c: int, t: int) -> list[int]:
    """The local heap indices of the ancestors of local index c, parent
    first and root last."""
    out = []
    while c:
        c = (c - 1) // t
        out.append(c)
    return out


def cycle_vertices(tree: LabeledGluedTree, a: int, b: int) -> CycleDecomposition:
    """The two tree-side geodesics between quasi-leaves a and b, via LCA walks."""
    r, t = tree.r, tree.t
    q = t**r
    a, b = (require_int(x, InvalidQuasiLeafError, "quasi-leaf index") for x in (a, b))
    if not (1 <= a <= q and 1 <= b <= q) or a == b:
        raise InvalidQuasiLeafError(f"need distinct quasi-leaf indices in 1..{q}")
    # a quasi-leaf is the child at local index per_side + a - 1 on either side
    per_side = _internal_per_side(r, t)
    up_a = _heap_ancestors(per_side + a - 1, t)  # levels r..1
    up_b = _heap_ancestors(per_side + b - 1, t)
    # lowest common ancestor: first level (walking up) where they agree
    meet = 0
    while up_a[meet] != up_b[meet]:
        meet += 1
    inner = up_a[: meet + 1] + up_b[:meet][::-1]

    def side_path(base: int) -> tuple[int, ...]:
        return (tree.quasi(a), *(base + x for x in inner), tree.quasi(b))

    return CycleDecomposition(a=a, b=b, p_side1=side_path(0), p_side2=side_path(per_side))


class _Interval(NamedTuple):
    i: int  # interval index
    a_i: int  # A_i = (t^(i-1) - 1)/(t - 1)
    first_max: int  # the first regime's largest depth
    second_min: int  # the second regime's smallest depth


def _interval(r: int, t: int) -> _Interval:
    """Where depth r lies for arity t.

    The interval index is the unique i with A_i + i - 1 <= r <= A_{i+1} + i - 1.
    With the split point B = A_i + t^(i-1)/2, the first regime (2(r - i) + 3
    colors) runs up to depth floor(B) + i - 2 and the second (2(r - i) + 2)
    starts at ceil(B) + i - 1, so for odd t one depth per interval lies
    between them.
    """
    i = 1
    while _internal_per_side(i, t) + i - 1 < r:
        i += 1
    a_i = _internal_per_side(i - 1, t)
    # 2B stays integral
    b2 = 2 * a_i + t ** (i - 1)
    return _Interval(i, a_i, b2 // 2 + i - 2, (b2 + 1) // 2 + i - 1)


def chi_mu_formula(r: int, t: int) -> FormulaResult:
    """Closed-form mutual-visibility chromatic number of GT(r, t).

    For odd t the two value regimes provably miss one r per interval index;
    those inputs are reported as an explicit gap with both candidate counts.
    """
    r, t = _tree_params(r, t)
    i, _, first_max, second_min = _interval(r, t)
    low = 2 * (r - i) + 2
    if r <= first_max:
        return FormulaResult(i=i, value=low + 1, gap=False, candidates=())
    if r >= second_min:
        return FormulaResult(i=i, value=low, gap=False, candidates=())
    return FormulaResult(i=i, value=None, gap=True, candidates=(low, low + 1))


def at_second_regime_min(r: int, t: int) -> bool:
    """True iff r is the smallest depth of the second value regime for arity
    t, with r >= 2.

    There the constructive coloring gives one side-1 internal vertex the
    quasi-leaf color, and it lies inside the side-1 geodesic between two
    quasi-leaves below it, so the construction is not in general position.
    On every other non-gap tree up to n = 10,000 it is
    (``scripts/theorem_sweep.py --max-n 10000 --gp``), and on GT(r, 2) for
    r = 12, 13, 15 and 16 (``theorem --gp``); GT(14, 2) is a second-regime
    minimum.
    """
    r, t = _tree_params(r, t)
    return r == _interval(r, t).second_min and r > 1


def constructive_coloring(tree: LabeledGluedTree) -> Coloring:
    """The theorem's explicit coloring, using exactly the closed-form count.

    Colors are 0-based internally, with the quasi-leaf class always color 0;
    file output shifts everything to 1-based.
    """
    r, t = tree.r, tree.t
    if chi_mu_formula(r, t).gap:
        raise GapInputError(f"chi_mu formula has a gap at (r={r}, t={t})")
    i, a_i, first_max, _ = _interval(r, t)
    first_regime = r <= first_max
    # the interval's smallest depth, which for r >= 2 is in the first regime
    at_first_min = r == a_i + i - 1
    big_k = r - i + 1 if at_first_min else r - i

    # side-1 level l has the ids offsets[l-1] .. offsets[l]-1, side 2's
    # are per_side higher, and the quasi-leaves come last
    offsets = [_internal_per_side(level, t) for level in range(r + 1)]
    per_side = offsets[r]
    colors = [-1] * (2 * per_side) + [0] * t**r
    # side 1's vertices from the root down, right to left within a level
    top1 = chain.from_iterable(reversed(range(lo, hi)) for lo, hi in pairwise(offsets))
    for k, top in zip(range(1, big_k + 1), top1):
        lo, hi = offsets[r - k], offsets[r - k + 1]  # level r - k + 1
        colors[lo:hi] = [2 * k - 1] * (hi - lo)
        colors[per_side + lo : per_side + hi] = [2 * k] * (hi - lo)
        # side 2's vertices from the root down, left to right
        colors[per_side + k - 1] = 2 * k - 1
        colors[top] = 2 * k
    if not at_first_min:
        # leftover internals: side-2 ones get their own color in the first
        # regime, share side 1's in the second
        for v in range(2 * per_side):
            if colors[v] == -1:
                second = first_regime and v >= per_side
                colors[v] = 2 * (r - i) + (2 if second else 1)
        if at_second_regime_min(r, t):
            # the one side-1 vertex recolored back to the quasi-leaf color
            colors[tree.internal(1, i, r - i - a_i + 1)] = 0
    return Coloring(colors=tuple(colors), k=max(colors) + 1)


def sibling_types(tree: LabeledGluedTree, coloring: Coloring) -> list[np.ndarray]:
    """The type of every heap position, one array per level from the root
    (level 0) to the quasi-leaves (level r), indexed left to right.

    A position at level l < r holds the side-1 and side-2 vertices with the
    same local index, and one at level r a quasi-leaf. Two positions of a
    level have equal types exactly when their subtrees, on both sides and
    down to the quasi-leaves, carry the same colours in the same order.
    Swapping two sibling subtrees on both sides at once is an automorphism
    of the glued tree (the quasi-leaves below them are shared), and it
    fixes the coloring exactly when the two siblings have equal types.

    A quasi-leaf's type is its colour. Internal types are renumbered per
    level by ``np.unique`` over the rows (side-1 colour, side-2 colour, the
    children's types), each row viewed as one opaque byte string, so no key
    grows with t. The root has no sibling, and its type is 0.
    """
    r, t = tree.r, tree.t
    offsets = [_internal_per_side(level, t) for level in range(r + 1)]
    per_side = offsets[r]
    colors = np.asarray(coloring.colors, dtype=np.int64)
    types = colors[2 * per_side :]
    levels = [types]
    for lo, hi in reversed(list(pairwise(offsets))[1:]):
        rows = np.column_stack(
            (colors[lo:hi], colors[per_side + lo : per_side + hi], types.reshape(hi - lo, t))
        )
        rows = rows.view(np.dtype((np.void, rows.itemsize * (t + 2)))).ravel()
        types = np.unique(rows, return_inverse=True)[1]
        levels.append(types)
    levels.append(np.zeros(1, dtype=np.int64))
    return levels[::-1]


def swap_representatives(tree: LabeledGluedTree, coloring: Coloring) -> list[int]:
    """One vertex of every orbit of the group generated by the
    coloring-preserving sibling swaps (``sibling_types``), ascending.

    Top-down, the representative of child j of a position p is the first
    child of rep(p) with child j's type: rep(p) has p's type, so its
    children have the types of p's, in order. So a position is its own
    representative exactly when its parent is and no earlier sibling has
    its type, and then both of its vertices (one for a quasi-leaf) are
    representatives. A position maps to its representative by one swap per
    level, and every swap keeps the representative, so these are the orbits.
    """
    t = tree.t
    own = np.ones(1, dtype=bool)
    flags = [own]
    for types in sibling_types(tree, coloring)[1:]:
        # the first sibling of each type, by (parent, type) keys below n^2
        key = np.arange(len(types)) // t * (int(types.max()) + 1) + types
        first = np.zeros(len(types), dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        own = np.repeat(own, t) & first
        flags.append(own)
    internal = np.concatenate(flags[:-1])
    return np.flatnonzero(np.concatenate((internal, internal, own))).tolist()


@dataclass(frozen=True)
class TheoremReport:
    r: int
    t: int
    formula: FormulaResult
    construction_colors: int
    mv_valid: bool
    gp_valid: bool | None
    exact: int | None
    # [lo, hi] from the exact solver when its budget ran out (exact is None)
    bounds: tuple[int, int] | None = None

    @property
    def gp_expected(self) -> bool | None:
        """The expected GP verdict when GP was checked: it holds except at
        the second regime's smallest depth."""
        if self.gp_valid is None:
            return None
        return not at_second_regime_min(self.r, self.t)

    @property
    def agree(self) -> bool:
        ok = self.mv_valid and self.construction_colors == self.formula.value
        if self.gp_valid is not None:
            ok = ok and self.gp_valid == self.gp_expected
        if self.exact is not None:
            ok = ok and self.exact == self.formula.value
        if self.bounds is not None:
            ok = ok and self.bounds[0] <= self.formula.value <= self.bounds[1]
        return ok


def verify_theorem(
    r: int, t: int, exact: bool = False, gp: bool = False, budget=None
) -> TheoremReport:
    """Build GT(r, t), run the constructive coloring, validate, compare counts.

    One MV validation gives both verdicts: its report's ``gp_valid`` is
    read from the same sweeps, and ``gp_valid`` is reported only with
    ``gp``. It sweeps from one vertex per orbit of the coloring-preserving
    sibling swaps (``swap_representatives``), with every member of a class a
    target; the swaps are automorphisms that map each class onto itself, so
    the verdicts are those of the full sweeps.

    When the exact solver's budget runs out, ``exact`` stays None and
    ``bounds`` holds its [lo, hi].
    """
    formula = chi_mu_formula(r, t)
    if formula.gap:
        raise GapInputError(
            f"chi_mu formula has a gap at (r={r}, t={t}); "
            f"candidates {','.join(map(str, formula.candidates))}"
        )
    tree = build_glued_tree(r, t)
    coloring = constructive_coloring(tree)
    report = validate_mv_coloring(tree.graph, coloring, sources=swap_representatives(tree, coloring))
    exact_value = bounds = None
    if exact:
        lo, hi, _ = chi_mu_exact(tree.graph, budget=budget)
        exact_value, bounds = (lo, None) if lo == hi else (None, (lo, hi))
    return TheoremReport(
        r=r,
        t=t,
        formula=formula,
        construction_colors=coloring.k,
        mv_valid=report.valid,
        gp_valid=report.gp_valid if gp else None,
        exact=exact_value,
        bounds=bounds,
    )
