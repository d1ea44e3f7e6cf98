"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every criterion pins an explicit time limit and exact expectations.
"""

import random
import time
from itertools import combinations, product

import pytest

from conftest import (
    DEFAULT_SEED,
    all_two_colorings,
    brute_chi_mu,
    build_h_gadget,
    coloring_with_k,
    diameter,
    enumerate_shortest_paths,
    golden_colors_gt2,
    golden_colors_gt3,
    random_clauses,
    random_connected_graph,
)
from mvchroma import (
    Budget,
    Status,
    assignment_to_coloring,
    build_glued_tree,
    build_reduction,
    chi_mu_exact,
    chi_mu_formula,
    constructive_coloring,
    cycle_vertices,
    glued_tree_order,
    graph_from_edge_list,
    make_formula,
    mv_k_colorable,
    nae_satisfiable,
    validate_gp_coloring,
    validate_mv_coloring,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {status} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_acceptance_01_formula_fidelity():
    start = time.perf_counter()
    values = {
        (1, 2): chi_mu_formula(1, 2).value,
        (2, 2): chi_mu_formula(2, 2).value,
        (3, 2): chi_mu_formula(3, 2).value,
    }
    elapsed_ms = (time.perf_counter() - start) * 1e3
    ok = values == {(1, 2): 2, (2, 2): 3, (3, 2): 4} and elapsed_ms < 1.0
    _report(1, "formula-fidelity", ok, f"{values}, {elapsed_ms:.3f} ms < 1 ms")


def test_acceptance_02_golden_colorings():
    start = time.perf_counter()
    t2 = build_glued_tree(2, 2)
    t3 = build_glued_tree(3, 2)
    got2 = constructive_coloring(t2).colors
    got3 = constructive_coloring(t3).colors
    elapsed = time.perf_counter() - start
    ok = (
        got2 == golden_colors_gt2(t2)
        and got3 == golden_colors_gt3(t3)
        and elapsed < 1.0
    )
    _report(2, "golden-colorings", ok, f"byte-match GT(2) and GT(3), {elapsed:.2f} s < 1 s")


def test_acceptance_03_upper_bound_sweep():
    start = time.perf_counter()
    cases = []
    t = 2
    while glued_tree_order(2, t) <= 2000:
        r = 2
        while glued_tree_order(r, t) <= 2000:
            cases.append((r, t))
            r += 1
        t += 2
    assert {(r, 2) for r in range(2, 8)} <= set(cases)
    assert {(2, 4), (3, 4)} <= set(cases)
    violations = 0
    for r, t in cases:
        tree = build_glued_tree(r, t)
        coloring = constructive_coloring(tree)
        report = validate_mv_coloring(tree.graph, coloring, exhaustive=True)
        if not report.valid or coloring.k != chi_mu_formula(r, t).value:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed <= 60.0
    _report(
        3,
        "upper-bound-sweep",
        ok,
        f"{len(cases)} instances, {violations} violations, {elapsed:.1f} s <= 60 s",
    )


def test_acceptance_04_exact_lower_bounds():
    start = time.perf_counter()
    c4 = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k_c4, _ = chi_mu_exact(c4)
    k_gt2, _ = chi_mu_exact(build_glued_tree(2, 2).graph)
    infeasible_2 = (
        mv_k_colorable(build_glued_tree(2, 2).graph, 2).status is Status.INFEASIBLE
    )
    elapsed = time.perf_counter() - start
    ok = k_c4 == 2 and k_gt2 == 3 and infeasible_2 and elapsed < 60.0
    _report(
        4,
        "exact-lower-bounds",
        ok,
        f"chi(C4)={k_c4}, chi(GT(2))={k_gt2}, k=2 infeasible={infeasible_2}, "
        f"{elapsed:.2f} s < 60 s",
    )


@pytest.mark.stretch
def test_acceptance_05_stretch_lower_bound():
    start = time.perf_counter()
    tree = build_glued_tree(3, 2)
    outcome = mv_k_colorable(tree.graph, 3, budget=Budget(max_seconds=900))
    elapsed = time.perf_counter() - start
    ok = outcome.status is Status.INFEASIBLE and elapsed < 900.0
    _report(
        5,
        "stretch-lower-bound",
        ok,
        f"GT(3) k=3 {outcome.status.value}, {outcome.nodes_explored} nodes, "
        f"{elapsed:.2f} s < 900 s",
    )


def test_acceptance_06_cycle_lemma():
    start = time.perf_counter()
    exceptions = 0
    checked = 0
    for t in (2, 3):
        for r in range(1, 5):
            if chi_mu_formula(r, t).gap:
                continue
            tree = build_glued_tree(r, t)
            coloring = constructive_coloring(tree)
            classes = [frozenset(members) for members in coloring.color_classes()]
            q = t**r
            for a, b in combinations(range(1, q + 1), 2):
                cyc = cycle_vertices(tree, a, b).all_vertices
                for members in classes:
                    checked += 1
                    if len(members & cyc) > 3:
                        exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0 and elapsed <= 120.0
    _report(
        6,
        "cycle-lemma",
        ok,
        f"{checked} class/cycle checks, {exceptions} exceptions, "
        f"{elapsed:.1f} s <= 120 s",
    )


def test_acceptance_07_gp_corollary():
    start = time.perf_counter()
    gp_ok = True
    for r in (2, 4):
        tree = build_glued_tree(r, 2)
        coloring = constructive_coloring(tree)
        gp_ok &= validate_gp_coloring(tree.graph, coloring, exhaustive=True).valid
        gp_ok &= validate_mv_coloring(tree.graph, coloring).valid
    # the excluded depth still yields a valid MV coloring; GP validity is
    # merely reported and does not gate the criterion
    tree3 = build_glued_tree(3, 2)
    c3 = constructive_coloring(tree3)
    mv3 = validate_mv_coloring(tree3.graph, c3).valid
    gp3 = validate_gp_coloring(tree3.graph, c3).valid
    elapsed = time.perf_counter() - start
    ok = gp_ok and mv3 and elapsed <= 30.0
    _report(
        7,
        "gp-corollary",
        ok,
        f"r=2,4 GP-valid={gp_ok}, r=3 MV-valid={mv3} (GP reported: {gp3}), "
        f"{elapsed:.2f} s <= 30 s",
    )


def test_acceptance_08_h_gadget_exhaustive():
    start = time.perf_counter()
    total_accepted = 0
    exact = True
    for n in (2, 3):
        g, legend = build_h_gadget(n)
        accepted = set()
        constrained = set()
        for colors in all_two_colorings(g.n):
            c = coloring_with_k(colors)
            valid = validate_mv_coloring(g, c).valid
            meets = (
                colors[legend.p] != colors[legend.c]
                and colors[legend.p2] != colors[legend.c2]
                and len({colors[v] for v in legend.leaves}) == 2
            )
            if valid:
                accepted.add(colors)
            # "accepted" must equal "constraints hold and the checker finds
            # no further violation"; the second conjunct is the checker itself
            if meets and valid:
                constrained.add(colors)
        exact &= accepted == constrained and len(accepted) > 0
        total_accepted += len(accepted)
    elapsed = time.perf_counter() - start
    ok = exact and elapsed <= 10.0
    _report(
        8,
        "h-gadget-exhaustive",
        ok,
        f"H_2+H_3 over 192 colorings, {total_accepted} accepted, sets equal, "
        f"{elapsed:.2f} s <= 10 s",
    )


def _random_normalized_formula(rng):
    q = rng.randrange(3, 7)
    return make_formula(q, random_clauses(rng, q, rng.randrange(1, 9)))


def test_acceptance_09_reduction_structure():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    bad = 0
    for _ in range(20):
        f = _random_normalized_formula(rng)
        rg = build_reduction(f)
        if rg.graph.n != 4 * f.q + 2 * len(f.clauses) + 4 or diameter(rg.graph) != 4:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed <= 30.0
    _report(
        9,
        "reduction-structure",
        ok,
        f"20 formulas, {bad} mismatches, {elapsed:.2f} s <= 30 s",
    )


def test_acceptance_10_reduction_equivalence():
    start = time.perf_counter()
    all_clauses = sorted(
        {
            tuple(sorted((v, p) for v, p in zip((1, 2, 3), pols)))
            for pols in product((False, True), repeat=3)
        }
    )
    assert len(all_clauses) == 8
    instances = []
    for size in range(0, 5):
        instances.extend(combinations(all_clauses, size))
    assert len(instances) == 163
    mismatches = 0
    forward_failures = 0
    for clauses in instances:
        f = make_formula(3, clauses)
        assignment = nae_satisfiable(f)
        rg = build_reduction(f)
        outcome = mv_k_colorable(rg.graph, 2)
        if (assignment is not None) != (outcome.status is Status.FEASIBLE):
            mismatches += 1
        if assignment is not None:
            coloring = assignment_to_coloring(rg, assignment)
            if not validate_mv_coloring(rg.graph, coloring).valid:
                forward_failures += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and forward_failures == 0 and elapsed <= 600.0
    _report(
        10,
        "reduction-equivalence",
        ok,
        f"163 normalized q=3 formulas, {mismatches} mismatches, "
        f"{forward_failures} forward failures, {elapsed:.1f} s <= 600 s",
    )


def test_acceptance_11_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    mismatches = 0
    graphs = 0
    while graphs < 200:
        n = rng.randrange(2, 9)
        g = random_connected_graph(rng, n)
        graphs += 1
        naive = brute_chi_mu(g, 3)
        for k in (1, 2, 3):
            outcome = mv_k_colorable(g, k)
            expected = naive is not None and naive <= k
            if (outcome.status is Status.FEASIBLE) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed <= 300.0
    _report(
        11,
        "oracle-equivalence",
        ok,
        f"{graphs} graphs x k in 1..3, {mismatches} mismatches, "
        f"{elapsed:.1f} s <= 300 s",
    )


def test_acceptance_12_geodesic_observations():
    start = time.perf_counter()
    bad = 0
    for r in (1, 2, 3):
        tree = build_glued_tree(r, 2)
        g = tree.graph
        internals = [
            (side, i, j)
            for side in (1, 2)
            for i in range(1, r + 1)
            for j in range(1, 2 ** (i - 1) + 1)
        ]
        # same-side internal pairs: a unique geodesic
        for side in (1, 2):
            same = [c for c in internals if c[0] == side]
            for a, b in combinations(same, 2):
                u = tree.internal(*a)
                v = tree.internal(*b)
                if len(enumerate_shortest_paths(g, u, v)) != 1:
                    bad += 1
        # mirror pairs: one geodesic per quasi-leaf under the subtree
        for i in range(1, r + 1):
            for j in range(1, 2 ** (i - 1) + 1):
                u = tree.internal(1, i, j)
                v = tree.internal(2, i, j)
                if len(enumerate_shortest_paths(g, u, v)) != 2 ** (r - i + 1):
                    bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed <= 30.0
    _report(
        12,
        "geodesic-observations",
        ok,
        f"{bad} mismatches across GT(1..3), {elapsed:.2f} s <= 30 s",
    )
