"""Exact search for mutual-visibility colorability and the NAE3SAT brute-force
scan.

The search assigns colors along a vertex order, breaks color symmetry by
allowing a new color id only when all smaller ids are in use, and prunes
with the pair visibility test: after each assignment every same-colored
pair that could be affected must still have a geodesic whose assigned
internal vertices avoid that color. Unassigned vertices never block, so the
rule is sound along a branch. A color class is held as the bitmask of its
members and nothing else. Greedy is first fit with the same pair test.

The k searches walk ``Graph.search_order``, which places a vertex once its
non-pendant neighbours are placed and a pendant right after its neighbour.
When a color fails at a depth on pair (x, y), its conflict set, x, y and
the class members inside x-y geodesics, goes into that depth's blame mask
at once, beside what deeper dead ends pass up. When the depth runs out of
colors, the search jumps back to the deepest vertex in that mask and hands
that vertex the rest (conflict-directed backjumping, Prosser 1993). A depth
whose color range the symmetry rule cut, and a leaf the validator rejects,
blame every vertex before it, so such a depth gathers no conflict sets. A
node is one color checked at one depth; a jump costs none.

A visit to a depth starts from the color that last passed there, or 0
before any has (phase saving, Pipatsrisawat and Darwiche 2007), and goes
round the depth's color range once, so the first descent is still first
fit. A dead end's jump-back set, its culprits with the colors they hold, is
a nogood: no coloring the search can reach extends it (jump-back learning,
Frost and Dechter 1994). It is stored under the depth and color of its
deepest culprit, replacing the one stored there, with one mask per color
of the other culprits; when that depth takes that color again with every
one of them on its stored color, the color fails with the nogood's
members as conflict set.
It costs a node like a color the pair test rejects, but no pair test. One
nogood per slot keeps that test as cheap as a few mask compares, where an
unbounded list per vertex made each node several times slower; a slot's
table is made by the first dead end that fills it, so memory grows with
dead ends, not with k. A dead end the symmetry rule cut stores none: its
culprits are the whole prefix, and the search never meets a prefix twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

from .errors import BudgetExhaustedError, InvalidParamsError, TooManyVariablesError
from .graph import DistanceOracle, Graph, require_int
from .visibility import Coloring, validate_mv_coloring

# the brute-force NAE3SAT scan tries 2^q assignments
NAE_VARIABLE_CAP = 24


class Status(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget"


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    coloring: Coloring | None
    nodes_explored: int
    elapsed: float


@dataclass
class Budget:
    """Dual node/wall-clock budget, shared by every search it is passed to:
    their nodes add up in ``nodes``, and ``deadline`` (``time.perf_counter``
    time) is fixed when the first of them starts. A search stops once the
    total exceeds max_nodes or the deadline has passed. Each limit must be
    >= 0; zero stops at the first node, and None (no limit) becomes inf."""

    max_nodes: float | None = None
    max_seconds: float | None = None
    nodes: int = field(default=0, init=False)
    deadline: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.max_nodes is None:
            self.max_nodes = math.inf
        elif require_int(self.max_nodes, InvalidParamsError, "node budget") < 0:
            raise InvalidParamsError("node budget must be >= 0")
        self.max_seconds = math.inf if self.max_seconds is None else self.max_seconds
        # NaN fails every comparison, so it would never trip
        if not isinstance(self.max_seconds, Real) or not self.max_seconds >= 0:
            raise InvalidParamsError(f"time budget must be a number >= 0: {self.max_seconds!r}")


@dataclass(frozen=True)
class NaeAssignment:
    """Truth values for variables 1..q; values[i-1] is the value of x_i."""

    values: tuple[bool, ...]


class PrefixTable:
    """The pairs of ``before`` (a vertex bitmask) that one vertex v can break.

    A search makes one for each depth d it reaches: v is ``order[d]`` and
    ``before`` the vertices ahead of it, ``order[:d]``; greedy makes one per
    vertex and drops it once v has a color. ``masks[x]`` is
    ``through(x, v) & before``, stored the first time x's mask is asked for,
    unless it is 0. Then x is cleared from ``live``, which starts as
    ``before`` and only ever loses bits: v lies on no geodesic from x to a
    vertex of ``before``, nor, by symmetry, on one from such a vertex to x,
    so x is in no pair of ``before`` that v could break.
    """

    __slots__ = ("before", "live", "masks")

    def __init__(self, before: int):
        self.before = before
        self.live = before
        self.masks: dict[int, int] = {}


def _check_assignment(
    o: DistanceOracle, table: PrefixTable, v: int, color_mask: int
) -> tuple[int, int] | None:
    """Partial-validity of the class after adding v, rechecking affected pairs:
    None when every pair still sees, else a pair (x, y) of the class where x
    does not see y.

    table is v's PrefixTable, and its ``before`` holds every other member.
    """
    unseen = o.sees(v, color_mask, color_mask)
    if unseen:
        return v, (unseen & -unseen).bit_length() - 1
    # pairs (x, y) through v, each once: x is the lowest live member left and
    # y one of the live members above it, so the last member starts no pair;
    # v is not in before, so not in live
    left = color_mask & table.live
    masks = table.masks
    while left & (left - 1):
        low = left & -left
        left ^= low
        x = low.bit_length() - 1
        mask = masks.get(x)
        if mask is None:
            mask = o.through(x, v) & table.before
            if not mask:
                table.live ^= low
                continue
            masks[x] = mask
        rest = mask & left
        if rest:
            unseen = o.sees(x, rest, color_mask)
            if unseen:
                return x, (unseen & -unseen).bit_length() - 1
    return None


def _conflict(o: DistanceOracle, x: int, y: int, color_mask: int) -> int:
    """The members of the class ``color_mask`` that make x miss y: x, y and
    the members inside x-y geodesics. No superset of them in one class is an
    MV set, whatever colors the other vertices hold."""
    return o.between(x, y) & color_mask | 1 << x | 1 << y


def _finish(budget, status, coloring, nodes, start) -> SearchOutcome:
    """Charge a search's nodes to its budget and report them."""
    budget.nodes += nodes
    return SearchOutcome(status, coloring, nodes, time.perf_counter() - start)


def mv_k_colorable(g: Graph, k: int, budget: Budget | None = None) -> SearchOutcome:
    """Decide whether g admits a mutual-visibility coloring with <= k colors:
    the backjumping loop over ``g.search_order``, drawing on budget."""
    if require_int(k, InvalidParamsError, "color budget") < 1:
        raise InvalidParamsError("color budget must be >= 1")
    budget = budget or Budget()  # None: a fresh budget with no limit
    n, o, order = g.n, g.oracle, g.search_order
    # tables[d] is order[d]'s PrefixTable, made when the search first reaches d
    tables = [PrefixTable(0)]
    start = time.perf_counter()
    # this search's share, worked out once: the nodes the budget has left,
    # and the deadline, read on the first node and every 256 after it
    if budget.deadline is None:
        budget.deadline = start + budget.max_seconds
    node_limit, deadline = budget.max_nodes - budget.nodes, budget.deadline
    nodes = 0
    if n == 0:
        return _finish(budget, Status.FEASIBLE, Coloring((), 0), nodes, start)

    # depth d has at most d + 1 colors in use, so no color id reaches n
    color_masks = [0] * min(k, n)
    # choice[d] is the color held at depth d, and a leaf reads its coloring
    # from it; first[d] is the color d's visit started from, and phase[d]
    # the color that last passed at d; blame[d] holds the conflict sets of
    # the colors that failed at d and what the subtrees under d's passed
    # colors passed up
    choice, first, phase = [-1] * n, [0] * n, [0] * n
    blame = [0] * n
    used = [0] * (n + 1)  # colors in use entering depth d
    # learned[d], made by the first dead end that jumps back to d, maps a
    # color c to the nogood learned last with order[d] colored c: its
    # members, and (color, members holding it) pairs
    learned: dict[int, dict[int, tuple[int, list[tuple[int, int]]]]] = {}
    depth = 0
    while True:
        v = order[depth]
        bit = 1 << v
        top = used[depth] + 1
        cut = top < k
        if not cut:
            top = k
        c = choice[depth]
        if c >= 0:
            color_masks[c] &= ~bit
            origin = first[depth]
            tried = (c - origin) % top + 1
        else:  # a new visit starts from the saved phase, cycling through range
            origin = phase[depth]
            if origin >= top:
                origin = 0
            first[depth], tried = origin, 0
        table, slots = tables[depth], learned.get(depth)
        for step in range(tried, top):
            c = origin + step
            if c >= top:
                c -= top
            nodes += 1
            if nodes > node_limit or (
                nodes & 255 == 1 and time.perf_counter() >= deadline
            ):
                return _finish(budget, Status.BUDGET_EXHAUSTED, None, nodes, start)
            choice[depth] = c
            color_masks[c] |= bit
            nogood = slots.get(c) if slots else None
            if nogood is not None:
                for h, m in nogood[1]:
                    if color_masks[h] & m != m:
                        break
                else:  # every member holds its stored color: c fails on them
                    if not cut:
                        blame[depth] |= nogood[0]
                    color_masks[c] &= ~bit
                    continue
            fail = _check_assignment(o, table, v, color_masks[c])
            if fail is None and depth == n - 1:
                colors = tuple(cu for _, cu in sorted(zip(order, choice)))
                candidate = Coloring(colors, max(colors) + 1)
                if validate_mv_coloring(g, candidate).valid:
                    return _finish(budget, Status.FEASIBLE, candidate, nodes, start)
                blame[depth] = table.before  # a leaf's rejection blames all of it
            elif fail is None:
                phase[depth] = c
                used[depth + 1] = c + 1 if c >= used[depth] else used[depth]
                depth += 1
                if depth == len(tables):
                    tables.append(PrefixTable(table.before | bit))
                break
            elif not cut:
                blame[depth] |= _conflict(o, *fail, color_masks[c])
            color_masks[c] &= ~bit
        else:
            # a dead end: no color in range leads to a coloring. Colors the
            # value precedence cut off depend on the whole prefix
            choice[depth] = -1
            culprits = table.before if cut else blame[depth] & ~bit
            blame[depth] = 0
            # jump back to the deepest culprit and pass it the rest; the
            # depths jumped over start afresh when the search next reaches them
            depth -= 1
            while depth >= 0 and not culprits >> order[depth] & 1:
                color_masks[choice[depth]] &= ~(1 << order[depth])
                choice[depth], blame[depth] = -1, 0
                depth -= 1
            if depth < 0:
                return _finish(budget, Status.INFEASIBLE, None, nodes, start)
            rest = culprits & ~(1 << order[depth])
            blame[depth] |= rest
            if not cut:  # order[depth] itself holds the slot's color when tested
                learned.setdefault(depth, {})[choice[depth]] = (culprits, [
                    (h, m) for h in range(used[depth]) if (m := rest & color_masks[h])
                ])


def greedy_upper_bound(g: Graph) -> tuple[int, Coloring]:
    """First fit over the degree order, validated like a search's leaf; were
    it ever rejected, the bound would be one color per vertex, always MV."""
    o, colors, classes, before = g.oracle, [0] * g.n, [], 0
    for v in g.degree_order.tolist():
        table, bit = PrefixTable(before), 1 << v
        c = next((c for c, members in enumerate(classes)
                  if _check_assignment(o, table, v, members | bit) is None), len(classes))
        if c == len(classes):  # a new color always passes: v blocks no other class
            classes.append(0)
        classes[c] |= bit
        colors[v], before = c, before | bit
    coloring = Coloring(tuple(colors), len(classes))
    if not validate_mv_coloring(g, coloring).valid:
        coloring = Coloring(tuple(range(g.n)), g.n)
    return coloring.k, coloring


def chi_mu_exact(g: Graph, budget: Budget | None = None) -> tuple[int, Coloring]:
    """Smallest k with a feasible mutual-visibility coloring, swept upward.

    Every k's search draws on the one budget. Raises BudgetExhaustedError
    with the best known bounds [lo, hi] when it runs out before the sweep
    settles.
    """
    ub, greedy_coloring = greedy_upper_bound(g)
    for k in range(1, ub):
        outcome = mv_k_colorable(g, k, budget)
        if outcome.status is Status.FEASIBLE:
            return k, outcome.coloring
        if outcome.status is Status.BUDGET_EXHAUSTED:
            raise BudgetExhaustedError(lo=k, hi=ub)
    return ub, greedy_coloring


def nae_satisfiable(f) -> NaeAssignment | None:
    """Exhaustive NAE3SAT scan of a ``reduction.NaeFormula`` in increasing
    binary order, x_1 most significant."""
    q, clauses = f.q, f.clauses
    if q > NAE_VARIABLE_CAP:
        raise TooManyVariablesError(f"{q} variables exceeds cap {NAE_VARIABLE_CAP}")
    for bits in range(1 << q):
        values = tuple(bool((bits >> (q - i)) & 1) for i in range(1, q + 1))
        # a clause is NAE-satisfied when its literals take both truth values
        if all(len({values[var - 1] == positive for var, positive in cl}) == 2 for cl in clauses):
            return NaeAssignment(values=values)
    return None
