"""NAE3SAT instances and the reduction from NAE3SAT to 2-color
mutual-visibility colorability.

The constructed graph has diameter 4; it is 2-colorable in the
mutual-visibility sense iff the formula has a not-all-equal satisfying
assignment. Both directions are exercised empirically by verify_reduction.

The graph of a normalized formula with q variables and m clauses has
n = 4q + 2m + 4 vertices, laid out as follows (0-based ids):

- p, c, z and z' are vertices 0..3;
- variable i (1..q) has u_i = 4i, ū_i = 4i+1, a_i = 4i+2 and b_i = 4i+3;
- clause j (0-based) has v_j = 4q+4+2j and w_j = v_j+1;
- a literal of variable i sits on u_i when positive and on ū_i when not,
  so its vertex is 4i + (not positive).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (
    ClauseArityError,
    FormulaSyntaxError,
    NonNormalizedInputError,
    PartialAssignmentError,
    SizeCapExceededError,
    VariableOutOfRangeError,
    WrongColorCountError,
)
from .graph import DEFAULT_SIZE_CAP, Graph, graph_from_edge_list, require_int
from .solver import (
    Budget,
    NaeAssignment,
    SearchOutcome,
    Status,
    mv_k_colorable,
    nae_satisfiable,
)
from .visibility import Coloring, _require_total, validate_mv_coloring

Literal = tuple[int, bool]  # (1-based variable index, positive polarity)

RED = 0
WHITE = 1
P, C, Z, ZP = 0, 1, 2, 3


@dataclass(frozen=True)
class NaeFormula:
    """NAE3SAT over x_1..x_q, q >= 1: clauses of three sorted literals."""

    q: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if (q := require_int(self.q, VariableOutOfRangeError, "variable count")) < 1:
            raise VariableOutOfRangeError(f"a formula needs q >= 1 variables, got {q}")
        canon = []
        for cl in self.clauses:
            cl = tuple(sorted((require_int(v, VariableOutOfRangeError, "variable"), bool(p))
                              for v, p in cl))
            if len(cl) != 3:
                raise ClauseArityError(f"clause must have exactly 3 literals, got {len(cl)}")
            for var, _ in cl:
                if not 1 <= var <= q:
                    raise VariableOutOfRangeError(f"variable {var} out of range 1..{q}")
            canon.append(cl)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "clauses", tuple(canon))


def make_formula(q: int, clauses) -> NaeFormula:
    return NaeFormula(q, clauses)


def random_clause(rng: random.Random, q: int) -> list[Literal]:
    """A seeded clause over x_1..x_q (q >= 3): three distinct variables from
    ``rng.sample``, then one fair coin per variable, in sample order, for its
    sign. The seeded formulas of the tests, ``scripts/reduction_equivalence.py``
    and ``scripts/bench.py`` draw their clauses here."""
    return [(v, rng.random() < 0.5) for v in rng.sample(range(1, q + 1), 3)]


def parse_nae_formula(text: str) -> NaeFormula:
    """Parse `p nae3 <q> <m>` followed by m lines `<l1> <l2> <l3> 0`."""
    header = None
    clause_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise FormulaSyntaxError("duplicate header line")
            header = line.split()
            continue
        clause_lines.append(line)
    if header is None:
        raise FormulaSyntaxError("missing `p nae3 <q> <m>` header")
    if len(header) != 4 or header[1] != "nae3":
        raise FormulaSyntaxError(f"bad header: {' '.join(header)}")
    try:
        q, m = int(header[2]), int(header[3])
    except ValueError as e:
        raise FormulaSyntaxError(f"bad header numbers: {e}") from e
    if len(clause_lines) != m:
        raise FormulaSyntaxError(f"header announces {m} clauses, found {len(clause_lines)}")
    clauses = []
    for line in clause_lines:
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as e:
            raise FormulaSyntaxError(f"bad clause line {line!r}") from e
        if not nums or nums[-1] != 0:
            raise FormulaSyntaxError(f"clause line must end with 0: {line!r}")
        lits = nums[:-1]
        if any(l == 0 for l in lits):
            raise FormulaSyntaxError(f"literal 0 inside clause: {line!r}")
        clauses.append([(abs(l), l > 0) for l in lits])
    return make_formula(q, clauses)


def format_nae_formula(f: NaeFormula) -> str:
    lines = [f"p nae3 {f.q} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(
            " ".join(str(var if pos else -var) for var, pos in cl) + " 0"
        )
    return "\n".join(lines) + "\n"


def normalize(f: NaeFormula) -> NaeFormula | None:
    """Make every clause involve three distinct variables; None when a clause
    refutes the formula.

    One literal three times is a clause no assignment satisfies, so the
    answer is None. A clause with a variable in both polarities always holds
    and is dropped. A clause {l, l, l2} with a doubled literal becomes
    {l, l2, a} and {l, l2, not-a} with a fresh variable a.
    """
    q = f.q
    out = []
    for cl in f.clauses:
        lits = set(cl)
        if len(lits) == 1:
            return None
        n_vars = len({v for v, _ in lits})
        if n_vars < len(lits):  # a variable in both polarities
            continue
        if n_vars == 3:
            out.append(cl)
            continue
        q += 1
        out += [(*lits, (q, pos)) for pos in (True, False)]
    return NaeFormula(q=q, clauses=out)


@dataclass(frozen=True)
class ReductionGraph:
    graph: Graph
    formula: NaeFormula = field(repr=False)


def _literal_vertex(var: int, positive: bool) -> int:
    """u_var for a positive literal, ū_var for a negative one."""
    return 4 * var + (not positive)


def build_reduction(f: NaeFormula) -> ReductionGraph:
    """The diameter-4 graph whose 2-colorability mirrors NAE satisfaction."""
    for cl in f.clauses:
        if len({v for v, _ in cl}) != 3:
            raise NonNormalizedInputError(
                "every clause must involve three distinct variables"
            )
    q = f.q
    n = 4 * q + 2 * len(f.clauses) + 4
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(
            f"the reduction graph has {n} vertices, more than {DEFAULT_SIZE_CAP}"
        )
    edges = [(P, C)]
    for u in range(4, 4 * q + 4, 4):
        ubar, a, b = u + 1, u + 2, u + 3
        edges += [(u, a), (ubar, a), (u, C), (ubar, C), (a, b)]
        edges += [(hub, x) for hub in (Z, ZP) for x in (u, ubar, a)]
    for v, cl in zip(range(4 * q + 4, n, 2), f.clauses):
        edges += [(v, v + 1), (Z, v), (ZP, v)]
        edges += [(v, _literal_vertex(*lit)) for lit in cl]
    return ReductionGraph(graph=graph_from_edge_list(n, edges), formula=f)


def legend_to_dict(rg: ReductionGraph) -> dict:
    """The layout with 1-based vertex ids, as the file formats write them."""
    f = rg.formula
    return {
        "p": P + 1,
        "c": C + 1,
        "z": Z + 1,
        "zp": ZP + 1,
        "vars": [
            {"u": u + 1, "ubar": u + 2, "a": u + 3, "b": u + 4}
            for u in range(4, 4 * f.q + 4, 4)
        ],
        "clauses": [
            {"v": v + 1, "w": v + 2, "T": [_literal_vertex(*lit) + 1 for lit in cl]}
            for v, cl in zip(range(4 * f.q + 4, rg.graph.n, 2), f.clauses)
        ],
    }


def assignment_to_coloring(rg: ReductionGraph, a: NaeAssignment) -> Coloring:
    """The forward proof direction's 2-coloring (red=0, white=1)."""
    f = rg.formula
    if len(a.values) < f.q:
        raise PartialAssignmentError(
            f"assignment covers {len(a.values)} of {f.q} variables"
        )
    # p, c, z, z'; then u, ū, a, b per variable; then v, w per clause
    colors = [RED, WHITE, RED, WHITE]
    for value in a.values[: f.q]:
        colors += [RED, WHITE] if value else [WHITE, RED]
        colors += [WHITE, RED]
    colors += [WHITE, RED] * len(f.clauses)
    return Coloring(tuple(colors), 2)


def coloring_to_assignment(rg: ReductionGraph, c: Coloring) -> NaeAssignment:
    """The reverse proof direction, anchored at u_1's color.

    NAE satisfaction is invariant under globally flipping the assignment, so
    the anchor choice is harmless.
    """
    _require_total(rg.graph, c)
    if c.k != 2:
        raise WrongColorCountError(f"expected exactly 2 colors, got {c.k}")
    u_colors = c.colors[4 : 4 * rg.formula.q + 4 : 4]
    return NaeAssignment(values=tuple(x == u_colors[0] for x in u_colors))


@dataclass(frozen=True)
class ReductionReport:
    trivially_unsat: bool
    nae_satisfiable: bool | None
    mv_two_colorable: bool | None
    # None when the solver's budget ran out before it decided
    agree: bool | None
    forward_coloring_validates: bool | None
    solver_nodes: int
    solver_budget_exhausted: bool


def verify_reduction(f: NaeFormula, budget: Budget | None = None) -> ReductionReport:
    """Empirically check both directions of the reduction on one instance."""
    fn = normalize(f)
    if fn is None:
        return ReductionReport(
            trivially_unsat=True,
            nae_satisfiable=False,
            mv_two_colorable=None,
            agree=True,
            forward_coloring_validates=None,
            solver_nodes=0,
            solver_budget_exhausted=False,
        )
    assignment = nae_satisfiable(fn)
    rg = build_reduction(fn)
    search: SearchOutcome = mv_k_colorable(rg.graph, 2, budget=budget)
    decided = search.status is not Status.BUDGET_EXHAUSTED
    colorable = search.status is Status.FEASIBLE if decided else None
    forward_valid = None
    if decided and assignment is not None:
        forward = assignment_to_coloring(rg, assignment)
        forward_valid = validate_mv_coloring(rg.graph, forward).valid
    return ReductionReport(
        trivially_unsat=False,
        nae_satisfiable=assignment is not None,
        mv_two_colorable=colorable,
        agree=(assignment is not None) == colorable if decided else None,
        forward_coloring_validates=forward_valid,
        solver_nodes=search.nodes_explored,
        solver_budget_exhausted=not decided,
    )
