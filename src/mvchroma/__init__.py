"""Mutual-visibility colorings of graphs.

Validators for mutual-visibility and general-position colorings, an exact
chromatic-number solver, glued t-ary tree generators with the closed-form
value and constructive coloring, and the NAE3SAT reduction.
"""

__version__ = "0.1.0"

from .graph import (
    DistanceOracle,
    Graph,
    all_pairs_distances,
    graph_from_edge_list,
)
from .visibility import (
    Coloring,
    ValidationReport,
    coloring_from_list,
    is_gp_set,
    is_mv_set,
    validate_gp_coloring,
    validate_mv_coloring,
)
from .solver import (
    Budget,
    NaeAssignment,
    SearchOutcome,
    Status,
    chi_mu_exact,
    greedy_upper_bound,
    mv_k_colorable,
    nae_satisfiable,
)
from .gluedtrees import (
    CycleDecomposition,
    FormulaResult,
    Internal,
    LabeledGluedTree,
    QuasiLeaf,
    TheoremReport,
    at_second_regime_min,
    build_glued_tree,
    chi_mu_formula,
    constructive_coloring,
    cycle_vertices,
    glued_tree_order,
    verify_theorem,
)
from .reduction import (
    NaeFormula,
    ReductionGraph,
    ReductionReport,
    assignment_to_coloring,
    build_reduction,
    coloring_to_assignment,
    format_nae_formula,
    legend_to_dict,
    make_formula,
    normalize,
    parse_nae_formula,
    random_clause,
    verify_reduction,
)
from .formats import (
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
    write_labels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
