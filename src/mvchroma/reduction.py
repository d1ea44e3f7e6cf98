"""NAE3SAT instances, the identified-leaf star gadget, and the reduction from
NAE3SAT to 2-color mutual-visibility colorability.

The constructed graph has diameter 4; it is 2-colorable in the
mutual-visibility sense iff the formula has a not-all-equal satisfying
assignment. Both directions are exercised empirically by verify_reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ClauseArityError,
    FormulaSyntaxError,
    InvalidParamsError,
    NonNormalizedInputError,
    PartialAssignmentError,
    VariableOutOfRangeError,
    WrongColorCountError,
)
from .graph import Graph, graph_from_edge_list
from .solver import (
    Budget,
    NaeAssignment,
    SearchOutcome,
    Status,
    mv_k_colorable,
    nae_satisfiable,
)
from .visibility import Coloring, validate_mv_coloring

Literal = tuple[int, bool]  # (1-based variable index, positive polarity)

RED = 0
WHITE = 1


@dataclass(frozen=True)
class NaeFormula:
    q: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]


def _canonical_clause(lits) -> tuple[Literal, Literal, Literal]:
    lits = tuple(sorted((int(v), bool(p)) for v, p in lits))
    if len(lits) != 3:
        raise ClauseArityError(f"clause must have exactly 3 literals, got {len(lits)}")
    return lits


def make_formula(q: int, clauses) -> NaeFormula:
    canon = []
    for cl in clauses:
        cl = _canonical_clause(cl)
        for var, _ in cl:
            if not 1 <= var <= q:
                raise VariableOutOfRangeError(f"variable {var} out of range 1..{q}")
        canon.append(cl)
    return NaeFormula(q=q, clauses=tuple(canon))


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
        if len(lits) != 3:
            raise ClauseArityError(
                f"clause must have exactly 3 literals, got {len(lits)}"
            )
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


@dataclass(frozen=True)
class NormalizeOutcome:
    trivially_unsat: bool
    formula: NaeFormula | None


def normalize(f: NaeFormula) -> NormalizeOutcome:
    """Make every clause involve three distinct variables.

    In order: a single-variable clause with all-equal literals is a trivial No;
    a clause containing a variable in both polarities is dropped; a clause with
    a doubled literal {l, l, l2} becomes {l, l2, a} and {l, l2, not-a} with a
    fresh variable a.
    """
    for cl in f.clauses:
        vars_ = {v for v, _ in cl}
        if len(vars_) == 1 and len({p for _, p in cl}) == 1:
            return NormalizeOutcome(trivially_unsat=True, formula=None)
    kept = []
    for cl in f.clauses:
        pol: dict[int, set[bool]] = {}
        for v, p in cl:
            pol.setdefault(v, set()).add(p)
        if any(len(ps) == 2 for ps in pol.values()):
            continue
        kept.append(cl)
    q = f.q
    out = []
    for cl in kept:
        vars_ = {v for v, _ in cl}
        if len(vars_) == 3:
            out.append(cl)
            continue
        # exactly two distinct variables, doubled literal in one polarity
        seen: dict[Literal, int] = {}
        for lit in cl:
            seen[lit] = seen.get(lit, 0) + 1
        doubled = next(l for l, cnt in seen.items() if cnt >= 2)
        other = next((l for l in seen if l != doubled), doubled)
        q += 1
        out.append(_canonical_clause([doubled, other, (q, True)]))
        out.append(_canonical_clause([doubled, other, (q, False)]))
    return NormalizeOutcome(
        trivially_unsat=False, formula=NaeFormula(q=q, clauses=tuple(out))
    )


@dataclass(frozen=True)
class HGadgetLegend:
    c: int
    p: int
    c2: int
    p2: int
    leaves: tuple[int, ...]


def build_h_gadget(n: int) -> tuple[Graph, HGadgetLegend]:
    """Two stars on n+2 vertices with their n leaves identified."""
    if n < 2:
        raise InvalidParamsError("gadget needs n >= 2 identified leaves")
    c, p, c2, p2 = 0, 1, 2, 3
    leaves = tuple(range(4, 4 + n))
    edges = [(c, p), (c2, p2)]
    for leaf in leaves:
        edges.append((c, leaf))
        edges.append((c2, leaf))
    return graph_from_edge_list(n + 4, edges), HGadgetLegend(c, p, c2, p2, leaves)


@dataclass(frozen=True)
class VariableGadget:
    u: int
    ubar: int
    a: int
    b: int


@dataclass(frozen=True)
class ClauseGadget:
    v: int
    w: int
    T: tuple[int, int, int]


@dataclass(frozen=True)
class ReductionLegend:
    p: int
    c: int
    z: int
    zp: int
    vars: tuple[VariableGadget, ...]
    clauses: tuple[ClauseGadget, ...]


@dataclass(frozen=True)
class ReductionGraph:
    graph: Graph
    legend: ReductionLegend = field(repr=False)


def build_reduction(f: NaeFormula) -> ReductionGraph:
    """The diameter-4 graph whose 2-colorability mirrors NAE satisfaction."""
    for cl in f.clauses:
        if len({v for v, _ in cl}) != 3:
            raise NonNormalizedInputError(
                "every clause must involve three distinct variables"
            )
    q = f.q
    r = len(f.clauses)
    p, c, z, zp = 0, 1, 2, 3
    var_gadgets = []
    for i in range(q):
        base = 4 + 4 * i
        var_gadgets.append(VariableGadget(u=base, ubar=base + 1, a=base + 2, b=base + 3))
    clause_gadgets = []
    edges = [(p, c)]
    for i, vg in enumerate(var_gadgets):
        edges += [
            (vg.u, vg.a),
            (vg.ubar, vg.a),
            (vg.u, c),
            (vg.ubar, c),
            (vg.a, vg.b),
        ]
    for j, cl in enumerate(f.clauses):
        vj = 4 + 4 * q + 2 * j
        wj = vj + 1
        t = tuple(
            var_gadgets[var - 1].u if pos else var_gadgets[var - 1].ubar
            for var, pos in cl
        )
        clause_gadgets.append(ClauseGadget(v=vj, w=wj, T=t))
        edges.append((vj, wj))
        for x in t:
            edges.append((vj, x))
    for hub in (z, zp):
        for vg in var_gadgets:
            edges += [(hub, vg.u), (hub, vg.ubar), (hub, vg.a)]
        for cg in clause_gadgets:
            edges.append((hub, cg.v))
    n = 4 * q + 2 * r + 4
    return ReductionGraph(
        graph=graph_from_edge_list(n, edges),
        legend=ReductionLegend(
            p=p, c=c, z=z, zp=zp, vars=tuple(var_gadgets), clauses=tuple(clause_gadgets)
        ),
    )


def legend_to_dict(legend: ReductionLegend) -> dict:
    """The legend with 1-based vertex ids, as the file formats write them."""
    return {
        "p": legend.p + 1,
        "c": legend.c + 1,
        "z": legend.z + 1,
        "zp": legend.zp + 1,
        "vars": [
            {"u": vg.u + 1, "ubar": vg.ubar + 1, "a": vg.a + 1, "b": vg.b + 1}
            for vg in legend.vars
        ],
        "clauses": [
            {"v": cg.v + 1, "w": cg.w + 1, "T": [x + 1 for x in cg.T]}
            for cg in legend.clauses
        ],
    }


def assignment_to_coloring(rg: ReductionGraph, a: NaeAssignment) -> Coloring:
    """The forward proof direction's 2-coloring (red=0, white=1)."""
    legend = rg.legend
    if len(a.values) < len(legend.vars):
        raise PartialAssignmentError(
            f"assignment covers {len(a.values)} of {len(legend.vars)} variables"
        )
    colors = [-1] * rg.graph.n
    colors[legend.p] = RED
    colors[legend.c] = WHITE
    colors[legend.z] = RED
    colors[legend.zp] = WHITE
    for i, vg in enumerate(legend.vars, start=1):
        colors[vg.a] = WHITE
        colors[vg.b] = RED
        if a.value(i):
            colors[vg.u] = RED
            colors[vg.ubar] = WHITE
        else:
            colors[vg.u] = WHITE
            colors[vg.ubar] = RED
    for cg in legend.clauses:
        colors[cg.v] = WHITE
        colors[cg.w] = RED
    assert all(col != -1 for col in colors)
    return Coloring(tuple(colors), 2)


def coloring_to_assignment(rg: ReductionGraph, c: Coloring) -> NaeAssignment:
    """The reverse proof direction, anchored at u_1's color.

    NAE satisfaction is invariant under globally flipping the assignment, so
    the anchor choice is harmless.
    """
    if c.k != 2:
        raise WrongColorCountError(f"expected exactly 2 colors, got {c.k}")
    legend = rg.legend
    if not legend.vars:
        return NaeAssignment(values=())
    reference = c.colors[legend.vars[0].u]
    return NaeAssignment(
        values=tuple(c.colors[vg.u] == reference for vg in legend.vars)
    )


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
    outcome = normalize(f)
    if outcome.trivially_unsat:
        return ReductionReport(
            trivially_unsat=True,
            nae_satisfiable=False,
            mv_two_colorable=None,
            agree=True,
            forward_coloring_validates=None,
            solver_nodes=0,
            solver_budget_exhausted=False,
        )
    fn = outcome.formula
    assignment = nae_satisfiable(fn)
    rg = build_reduction(fn)
    search: SearchOutcome = mv_k_colorable(rg.graph, 2, budget=budget)
    if search.status is Status.BUDGET_EXHAUSTED:
        return ReductionReport(
            trivially_unsat=False,
            nae_satisfiable=assignment is not None,
            mv_two_colorable=None,
            agree=None,
            forward_coloring_validates=None,
            solver_nodes=search.nodes_explored,
            solver_budget_exhausted=True,
        )
    colorable = search.status is Status.FEASIBLE
    forward_valid = None
    if assignment is not None:
        forward = assignment_to_coloring(rg, assignment)
        forward_valid = validate_mv_coloring(rg.graph, forward).valid
    return ReductionReport(
        trivially_unsat=False,
        nae_satisfiable=assignment is not None,
        mv_two_colorable=colorable,
        agree=(assignment is not None) == colorable,
        forward_coloring_validates=forward_valid,
        solver_nodes=search.nodes_explored,
        solver_budget_exhausted=False,
    )
