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

from dataclasses import dataclass, field

from .errors import (
    BudgetExhaustedError,
    GapInputError,
    InvalidParamsError,
    InvalidQuasiLeafError,
    SizeCapExceededError,
)
from .graph import Graph, graph_from_edge_list
from .visibility import Coloring, validate_mv_coloring

DEFAULT_SIZE_CAP = 200_000


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
    graph: Graph
    r: int
    t: int
    coord_of: dict[int, TreeCoordinate] = field(repr=False)
    id_of: dict[TreeCoordinate, int] = field(repr=False)

    @property
    def num_quasi_leaves(self) -> int:
        return self.t**self.r

    def internal(self, side: int, i: int, j: int) -> int:
        return self.id_of[Internal(side, i, j)]

    def quasi(self, a: int) -> int:
        return self.id_of[QuasiLeaf(a)]


@dataclass(frozen=True)
class CycleDecomposition:
    """The two equal-length quasi-leaf geodesics and the cycle they induce."""

    a: int
    b: int
    p_side1: tuple[int, ...]
    p_side2: tuple[int, ...]

    @property
    def q_side1(self) -> tuple[int, ...]:
        return self.p_side1[1:-1]

    @property
    def q_side2(self) -> tuple[int, ...]:
        return self.p_side2[1:-1]

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


def glued_tree_order(r: int, t: int) -> int:
    """|V(GT(r, t))| = 2(t^(r+1)-1)/(t-1) - t^r."""
    return 2 * _internal_per_side(r + 1, t) - t**r


def build_glued_tree(r: int, t: int) -> LabeledGluedTree:
    if r < 1 or t < 2:
        raise InvalidParamsError(f"need r >= 1 and t >= 2, got r={r}, t={t}")
    n = glued_tree_order(r, t)
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(
            f"GT({r},{t}) has {n} vertices, cap is {DEFAULT_SIZE_CAP}"
        )

    per_side = _internal_per_side(r, t)
    id_of: dict[TreeCoordinate, int] = {}
    coord_of: dict[int, TreeCoordinate] = {}

    def level_offset(i: int) -> int:
        return _internal_per_side(i - 1, t)

    for side in (1, 2):
        base = 0 if side == 1 else per_side
        for i in range(1, r + 1):
            for j in range(1, t ** (i - 1) + 1):
                vid = base + level_offset(i) + j - 1
                coord = Internal(side, i, j)
                id_of[coord] = vid
                coord_of[vid] = coord
    for a in range(1, t**r + 1):
        vid = 2 * per_side + a - 1
        coord = QuasiLeaf(a)
        id_of[coord] = vid
        coord_of[vid] = coord

    edges: list[tuple[int, int]] = []
    for side in (1, 2):
        for i in range(1, r):
            for j in range(1, t ** (i - 1) + 1):
                parent = id_of[Internal(side, i, j)]
                for k in range(1, t + 1):
                    edges.append((parent, id_of[Internal(side, i + 1, t * (j - 1) + k)]))
        for j in range(1, t ** (r - 1) + 1):
            parent = id_of[Internal(side, r, j)]
            for k in range(1, t + 1):
                edges.append((parent, id_of[QuasiLeaf(t * (j - 1) + k)]))

    return LabeledGluedTree(
        graph=graph_from_edge_list(n, edges),
        r=r,
        t=t,
        coord_of=coord_of,
        id_of=id_of,
    )


def _ancestor_positions(a: int, r: int, t: int) -> list[int]:
    """Level positions j of the ancestors of quasi-leaf a, from level r up to 1."""
    positions = []
    j = (a + t - 1) // t  # parent at level r
    for i in range(r, 0, -1):
        positions.append(j)
        j = (j + t - 1) // t
    return positions


def cycle_vertices(tree: LabeledGluedTree, a: int, b: int) -> CycleDecomposition:
    """The two tree-side geodesics between quasi-leaves a and b, via LCA walks."""
    r, t = tree.r, tree.t
    q = t**r
    if not (1 <= a <= q and 1 <= b <= q) or a == b:
        raise InvalidQuasiLeafError(f"need distinct quasi-leaf indices in 1..{q}")
    up_a = _ancestor_positions(a, r, t)  # levels r..1
    up_b = _ancestor_positions(b, r, t)
    # lowest common ancestor: first level (walking up) where positions agree
    meet = 0
    while up_a[meet] != up_b[meet]:
        meet += 1

    def side_path(side: int) -> tuple[int, ...]:
        path = [tree.quasi(a)]
        for step in range(meet + 1):
            path.append(tree.internal(side, r - step, up_a[step]))
        for step in range(meet - 1, -1, -1):
            path.append(tree.internal(side, r - step, up_b[step]))
        path.append(tree.quasi(b))
        return tuple(path)

    return CycleDecomposition(a=a, b=b, p_side1=side_path(1), p_side2=side_path(2))


def chi_mu_formula(r: int, t: int) -> FormulaResult:
    """Closed-form mutual-visibility chromatic number of GT(r, t).

    For odd t the two value regimes provably miss one r per interval index;
    those inputs are reported as an explicit gap with both candidate counts.
    """
    if r < 1 or t < 2:
        raise InvalidParamsError(f"need r >= 1 and t >= 2, got r={r}, t={t}")
    if r == 1:
        return FormulaResult(i=1, value=2, gap=False, candidates=())

    # interval index: unique i with A_i + i - 1 <= r <= A_{i+1} + i - 1,
    # where A_i = (t^(i-1) - 1)/(t - 1)
    i = 1
    while _internal_per_side(i, t) + i - 1 < r:
        i += 1
    a_i = _internal_per_side(i - 1, t)
    assert a_i + i - 1 <= r <= _internal_per_side(i, t) + i - 1

    # regime split point B = A_i + t^(i-1)/2, tracked as 2B to stay integral
    b2 = 2 * a_i + t ** (i - 1)
    if r <= b2 // 2 + i - 2:
        return FormulaResult(i=i, value=2 * (r - i) + 3, gap=False, candidates=())
    if r >= (b2 + 1) // 2 + i - 1:
        return FormulaResult(i=i, value=2 * (r - i) + 2, gap=False, candidates=())
    return FormulaResult(
        i=i, value=None, gap=True, candidates=(2 * (r - i) + 2, 2 * (r - i) + 3)
    )


def at_second_regime_min(r: int, t: int) -> bool:
    """True iff r is the smallest depth of the second value regime for arity
    t, with r >= 2 and no gap.

    There the constructive coloring gives one side-1 internal vertex the
    quasi-leaf color, and it lies inside the side-1 geodesic between two
    quasi-leaves below it, so the construction is not in general position.
    On every other non-gap tree up to n = 2000 it is
    (``scripts/theorem_sweep.py --gp``).
    """
    formula = chi_mu_formula(r, t)
    if r == 1 or formula.gap:
        return False
    i = formula.i
    a_i = _internal_per_side(i - 1, t)
    # second regime: r >= B + i - 1, with 2B = 2 A_i + t^(i-1)
    b2 = 2 * a_i + t ** (i - 1)
    return formula.value == 2 * (r - i) + 2 and r == (b2 + 1) // 2 + i - 1


def _side1_sequence(tree: LabeledGluedTree, count: int) -> list[int]:
    """Level order, positions descending within each level: v_{1,1}, v_{2,t}, ..."""
    out = []
    i = 1
    while len(out) < count:
        for j in range(tree.t ** (i - 1), 0, -1):
            out.append(tree.internal(1, i, j))
            if len(out) == count:
                break
        i += 1
    return out


def _side2_sequence(tree: LabeledGluedTree, count: int) -> list[int]:
    """Level order, positions ascending: v'_{1,1}, v'_{2,1}, v'_{2,2}, ..."""
    out = []
    i = 1
    while len(out) < count:
        for j in range(1, tree.t ** (i - 1) + 1):
            out.append(tree.internal(2, i, j))
            if len(out) == count:
                break
        i += 1
    return out


def constructive_coloring(tree: LabeledGluedTree) -> Coloring:
    """The theorem's explicit coloring, using exactly the closed-form count.

    Colors are 0-based internally, with the quasi-leaf class always color 0;
    file output shifts everything to 1-based.
    """
    r, t = tree.r, tree.t
    formula = chi_mu_formula(r, t)
    if formula.gap:
        raise GapInputError(f"chi_mu formula has a gap at (r={r}, t={t})")
    n = tree.graph.n

    if r == 1:
        # GT(1, t) = K_{2,t}: roots one color, quasi-leaves the other
        colors = [0] * n
        colors[tree.internal(1, 1, 1)] = 1
        colors[tree.internal(2, 1, 1)] = 1
        return Coloring(colors=tuple(colors), k=2)

    i = formula.i
    a_i = _internal_per_side(i - 1, t)
    first_regime = formula.value == 2 * (r - i) + 3
    at_first_min = first_regime and r == a_i + i - 1
    big_k = r - i + 1 if at_first_min else r - i

    colors = [-1] * n
    for a in range(1, t**r + 1):
        colors[tree.quasi(a)] = 0
    seq1 = _side1_sequence(tree, big_k)
    seq2 = _side2_sequence(tree, big_k)
    for k in range(1, big_k + 1):
        depth = r - k  # level index depth+1
        for j in range(1, t**depth + 1):
            colors[tree.internal(1, depth + 1, j)] = 2 * k - 1
            colors[tree.internal(2, depth + 1, j)] = 2 * k
        colors[seq2[k - 1]] = 2 * k - 1
        colors[seq1[k - 1]] = 2 * k
    if not at_first_min:
        # leftover internals: side-2 ones get their own color in the first
        # regime, share side 1's in the second
        for v in range(n):
            if colors[v] == -1:
                second = first_regime and tree.coord_of[v].side == 2
                colors[v] = 2 * (r - i) + (2 if second else 1)
        if at_second_regime_min(r, t):
            # the one side-1 vertex recolored back to the quasi-leaf color
            colors[tree.internal(1, i, r - i - a_i + 1)] = 0
    assert all(c != -1 for c in colors)
    coloring = Coloring(colors=tuple(colors), k=max(colors) + 1)
    assert coloring.k == formula.value
    return coloring


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
    r: int,
    t: int,
    exact: bool = False,
    gp: bool = False,
    budget=None,
) -> TheoremReport:
    """Build GT(r, t), run the constructive coloring, validate, compare counts.

    With ``gp`` the coloring is checked for general position first, and MV
    only when that fails: every GP set is an MV set.

    When the exact solver's budget runs out, ``exact`` stays None and
    ``bounds`` holds its [lo, hi].
    """
    from .solver import chi_mu_exact
    from .visibility import validate_gp_coloring

    formula = chi_mu_formula(r, t)
    if formula.gap:
        raise GapInputError(
            f"chi_mu formula has a gap at (r={r}, t={t}); "
            f"candidates {formula.candidates}"
        )
    tree = build_glued_tree(r, t)
    coloring = constructive_coloring(tree)
    gp_valid = None
    if gp:
        gp_valid = validate_gp_coloring(tree.graph, coloring).valid
    mv_valid = gp_valid or validate_mv_coloring(tree.graph, coloring).valid
    exact_value = None
    bounds = None
    if exact:
        try:
            exact_value, _ = chi_mu_exact(tree.graph, budget=budget)
        except BudgetExhaustedError as e:
            bounds = (e.lo, e.hi)
    return TheoremReport(
        r=r,
        t=t,
        formula=formula,
        construction_colors=coloring.k,
        mv_valid=mv_valid,
        gp_valid=gp_valid,
        exact=exact_value,
        bounds=bounds,
    )
