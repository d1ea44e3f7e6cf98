"""Seeded inputs, op lists and reference checks for the three workloads.

An op is one ``mvchroma.cli.main(argv)`` call. ``build`` generates a
workload's instances from the seed and writes the input files the program
reads; it runs before the first timed op. ``Checker.check`` judges one op's
outcome against a reference that the benchmark computes itself, after the
timed passes, from the in-memory instances (never from the files the program
read).
"""

from __future__ import annotations

import json
import random
import re
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

# Node budgets handed to the program. A node budget (unlike a seconds budget)
# makes the set of undecided ops repeat exactly on one commit.
NAE_BUDGET_NODES = 5000
HUB_BUDGET_NODES = 20000

# Non-gap glued trees GT(r, t) with their closed-form chi_mu and whether the
# constructive coloring is also a general-position coloring (it is not at
# every depth; acceptance criterion 07 covers which). Deep narrow trees (t=2
# up to r=10, n=3070) spend their time in all-pairs distances; wide shallow
# ones (GT(5,4), GT(2,32)) in the GP check. The run of GT(2, t), t=10..24,
# gives many ops of neighbouring sizes around the median and the tail, so
# that those order statistics do not jump between runs; only two r=1 trees
# (K_{2,t}, a few ms of CLI start-up each) are kept.
GT_INSTANCES = (
    (1, 2, 2, True), (1, 32, 2, True), (2, 2, 3, True), (3, 2, 4, False),
    (4, 2, 6, True), (5, 2, 7, True), (6, 2, 9, True), (7, 2, 10, False),
    (8, 2, 12, True), (9, 2, 14, True), (10, 2, 15, True), (2, 3, 3, True),
    (4, 3, 6, False), (5, 3, 8, True), (2, 4, 3, True), (3, 4, 5, True),
    (4, 4, 6, False), (5, 4, 8, True), (2, 5, 3, True), (3, 5, 5, True),
    (2, 6, 3, True), (3, 6, 5, True), (2, 7, 3, True), (3, 7, 5, True),
    (2, 8, 3, True), (3, 8, 5, True), (2, 10, 3, True), (2, 11, 3, True),
    (2, 12, 3, True), (2, 13, 3, True), (2, 14, 3, True), (2, 15, 3, True),
    (2, 16, 3, True), (2, 17, 3, True), (2, 18, 3, True), (2, 19, 3, True),
    (2, 20, 3, True), (2, 21, 3, True), (2, 22, 3, True), (2, 23, 3, True),
    (2, 24, 3, True), (2, 32, 3, True),
)
SMOKE_GT_INSTANCES = ((3, 2, 4, False),)

NAE_QS = (3, 4, 5)
NAE_REPEATS = 6
DEGENERATE_EVERY = 5

# K_{2,d} plus a pendant. Degree 128 and up overflows the int8 frontier
# count in the validator; 129 is the smallest degree at which the greedy
# bound's self-check fails, which is why it is the largest one solved.
HUB_K2_DEGREES = (127, 128, 129, 200, 255, 256, 300)
HUB_SOLVE_DEGREES = (127, 128, 129)
# (vertices, hubs) of the seeded random hub graphs.
HUB_RANDOM_GRAPHS = ((200, 2), (240, 3), (280, 4))
HUB_RANDOM_COLORS = (4, 8)


@dataclass
class Op:
    """One CLI call. ``{out}`` in argv is replaced by a per-pass output path."""

    name: str
    kind: str
    argv: tuple[str, ...]
    instance: object = field(repr=False)


@dataclass
class Outcome:
    exit_code: int | None
    error: str | None
    stdout: str
    out_path: Path


@dataclass
class Workload:
    name: str
    ops: list[Op]
    budgets: dict
    write_s: float = 0.0


# ---------------------------------------------------------------- instances


@dataclass
class GraphInstance:
    label: str
    n: int
    edges: list[tuple[int, int]]
    path: str


@dataclass
class ColoringInstance:
    graph: GraphInstance
    colors: list[int]  # 0-based dense ids
    label: str
    path: str


@dataclass
class FormulaInstance:
    q: int
    clauses: list[list[tuple[int, bool]]]
    path: str


def k2_pendant(d: int) -> tuple[int, list[tuple[int, int]]]:
    """K_{2,d} with hubs 0 and 1, leaves 2..d+1, and a pendant on leaf 2."""
    edges = [(h, 2 + i) for h in (0, 1) for i in range(d)]
    edges.append((2, d + 2))
    return d + 3, edges


def random_hub_graph(rng: random.Random, n: int, hubs: int) -> list[tuple[int, int]]:
    """Hub h gets 128 + 8h random neighbours, then n/8 random extra edges."""
    others = list(range(hubs, n))
    edges = set()
    for h in range(hubs):
        for v in rng.sample(others, 128 + 8 * h):
            edges.add((h, v))
    for _ in range(n // 8):
        a, b = sorted(rng.sample(others, 2))
        edges.add((a, b))
    # attach whatever the hubs missed to a vertex already reached
    adj = adjacency(n, edges)
    reached = set(bfs(adj, 0)[1])
    for v in range(n):
        if v not in reached:
            u = rng.choice(sorted(reached))
            edges.add((min(u, v), max(u, v)))
            reached.add(v)
    return sorted(edges)


def random_coloring(rng: random.Random, n: int, k: int) -> list[int]:
    """Classes of equal size (within one), vertices assigned at random."""
    colors = [v % k for v in range(n)]
    rng.shuffle(colors)
    return colors


def k2_random_coloring(rng: random.Random, d: int) -> list[int]:
    """A 3-colouring of K_{2,d} plus a pendant whose shape the seed does not
    change: both hubs in class 0, the pendant in class 1, the pendant's leaf
    in class 2, and the other d - 1 leaves split as evenly as possible over
    the three classes, leaves assigned at random. Every seed so gives an
    isomorphic instance: the hub pair is judged at every degree, and the
    number of leaves outside the hubs' class (133 at d=200, 85 at d=127) is
    fixed, so whether it passes 127 does not hang on the seed."""
    leaves = [i % 3 for i in range(d - 1)]
    rng.shuffle(leaves)
    return [0, 0, 2] + leaves + [1]


def random_formula(rng: random.Random, q: int, m: int) -> list[list[tuple[int, bool]]]:
    """Random NAE3SAT clauses, one in five (rounded up) degenerate so that
    normalization has work, in the style of scripts/reduction_equivalence.py.
    Degenerate clauses alternate between a doubled literal (normalization
    splits it in two with a fresh variable) and a variable in both polarities
    (normalization drops it), so the reduction graph's size depends on q and m
    alone and not on the seed."""
    degenerate = sorted(rng.sample(range(m), -(-m // DEGENERATE_EVERY)))
    clauses = []
    for i in range(m):
        v, w, x = rng.sample(range(1, q + 1), 3)
        p = rng.random() < 0.5
        if i not in degenerate:
            clauses.append([(v, p), (w, rng.random() < 0.5), (x, rng.random() < 0.5)])
        elif degenerate.index(i) % 2 == 0:
            clauses.append([(v, p), (v, p), (w, rng.random() < 0.5)])
        else:
            clauses.append([(v, p), (v, not p), (w, rng.random() < 0.5)])
    return clauses


# ------------------------------------------------------------------- build


def build(name: str, seed: int, smoke: bool, inputs: Path) -> Workload:
    """Generate the workload's instances from ``seed`` and write its inputs."""
    builder = {"gt-theorem": _build_gt, "nae-search": _build_nae, "hub-solve": _build_hub}[name]
    return builder(random.Random(f"{name}:{seed}"), smoke, inputs)


def _timed_write(wl: Workload, path: str, render, obj) -> None:
    start = time.perf_counter()
    text = render(obj)
    wl.write_s += time.perf_counter() - start
    Path(path).write_text(text)


def _build_gt(rng, smoke, inputs) -> Workload:
    table = list(SMOKE_GT_INSTANCES if smoke else GT_INSTANCES)
    rng.shuffle(table)
    ops = [
        Op(
            name=f"theorem GT({r},{t})",
            kind="theorem",
            argv=("theorem", "--r", str(r), "--t", str(t), "--gp", "--json", "{out}"),
            instance=(chi, gp_valid),
        )
        for r, t, chi, gp_valid in table
    ]
    return Workload("gt-theorem", ops, budgets={})


def _build_nae(rng, smoke, inputs) -> Workload:
    from mvchroma.reduction import format_nae_formula, make_formula

    wl = Workload("nae-search", [], budgets={"reduce-verify --budget-nodes": NAE_BUDGET_NODES})
    cells = [(3, 3)] if smoke else [
        (q, mult * q) for q in NAE_QS for mult in (1, 2, 3) for _ in range(NAE_REPEATS)
    ]
    for idx, (q, m) in enumerate(cells):
        inst = FormulaInstance(q, random_formula(rng, q, m), str(inputs / f"f{idx:03d}.nae"))
        _timed_write(wl, inst.path, format_nae_formula, make_formula(q, inst.clauses))
        wl.ops.append(Op(
            name=f"reduce-verify f{idx:03d} q={q} m={m}",
            kind="reduce-verify",
            argv=("reduce-verify", "--formula", inst.path,
                  "--budget-nodes", str(NAE_BUDGET_NODES), "--json", "{out}"),
            instance=inst,
        ))
    rng.shuffle(wl.ops)
    return wl


def _build_hub(rng, smoke, inputs) -> Workload:
    from mvchroma.formats import write_coloring, write_graph
    from mvchroma.graph import graph_from_edge_list
    from mvchroma.visibility import coloring_from_list

    wl = Workload("hub-solve", [], budgets={"solve --budget-nodes": HUB_BUDGET_NODES})
    graphs: list[GraphInstance] = []
    colorings: list[ColoringInstance] = []

    def add_graph(label, n, edges):
        g = GraphInstance(label, n, edges, str(inputs / f"{label}.col"))
        _timed_write(wl, g.path, write_graph, graph_from_edge_list(n, edges))
        graphs.append(g)
        return g

    def add_coloring(g, label, colors):
        c = ColoringInstance(g, colors, f"{g.label} {label}", str(inputs / f"{g.label}-{label}.sol"))
        _timed_write(wl, c.path, write_coloring, coloring_from_list(colors))
        colorings.append(c)

    degrees = (8,) if smoke else HUB_K2_DEGREES
    for d in degrees:
        g = add_graph(f"k2_{d}", *k2_pendant(d))
        two = [1] * g.n
        two[0] = two[1] = two[d + 2] = 0
        add_coloring(g, "hubs-pendant", two)
        if not smoke:
            add_coloring(g, "random3", k2_random_coloring(rng, d))
    if not smoke:
        for i, (n, hubs) in enumerate(HUB_RANDOM_GRAPHS):
            g = add_graph(f"hub{i}_{n}_{hubs}", n, random_hub_graph(rng, n, hubs))
            for k in HUB_RANDOM_COLORS:
                add_coloring(g, f"random{k}", random_coloring(rng, n, k))

    for c in colorings:
        for mode in ("mv", "gp"):
            wl.ops.append(Op(
                name=f"validate {mode} {c.label}",
                kind="validate",
                argv=("validate", "--graph", c.graph.path, "--coloring", c.path,
                      "--mode", mode, "--json", "{out}"),
                instance=(c, mode),
            ))
    solve_degrees = (8,) if smoke else HUB_SOLVE_DEGREES
    for g in graphs:
        if g.label in {f"k2_{d}" for d in solve_degrees}:
            wl.ops.append(Op(
                name=f"solve {g.label}",
                kind="solve",
                argv=("solve", "--graph", g.path, "--budget-nodes", str(HUB_BUDGET_NODES),
                      "--out", "{out}"),
                instance=g,
            ))
    rng.shuffle(wl.ops)
    return wl


# -------------------------------------------------------------- references


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, src: int) -> tuple[list[int], list[int]]:
    """Hop distances from src (-1 unreachable) and the BFS visiting order."""
    dist = [-1] * len(adj)
    dist[src] = 0
    order = [src]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                order.append(w)
                queue.append(w)
    return dist, order


class GraphReference:
    """Per-pair visibility and general position, from the definitions."""

    def __init__(self, g: GraphInstance):
        self.adj = adjacency(g.n, g.edges)
        self._rows: dict[int, tuple[list[int], list[int]]] = {}

    def row(self, u: int) -> tuple[list[int], list[int]]:
        if u not in self._rows:
            self._rows[u] = bfs(self.adj, u)
        return self._rows[u]

    def sees(self, u: int, members: set[int]) -> list[bool]:
        """clean[w]: some u-w geodesic has no internal vertex in members."""
        dist, order = self.row(u)
        clean = [False] * len(self.adj)
        clean[u] = True
        for w in order[1:]:
            dw = dist[w]
            clean[w] = any(
                clean[x] and (x == u or x not in members)
                for x in self.adj[w]
                if dist[x] == dw - 1
            )
        return clean

    def mv_violations(self, colors: list[int]) -> list[tuple[int, int, int]]:
        out = []
        for color, members in enumerate(classes(colors)):
            member_set = set(members)
            for i, u in enumerate(members):
                clean = self.sees(u, member_set)
                out.extend((u, v, color) for v in members[i + 1:] if not clean[v])
        return out

    def gp_violations(self, colors: list[int]) -> list[tuple[int, int, int]]:
        out = []
        for color, members in enumerate(classes(colors)):
            if len(members) < 3:
                continue
            idx = np.asarray(members)
            d = np.array([self.row(u)[0] for u in members])[:, idx]
            bad = np.zeros(d.shape, dtype=bool)
            for z in range(len(members)):
                on_path = d[:, z][:, None] + d[z, :][None, :] == d
                on_path[z, :] = False
                on_path[:, z] = False
                bad |= on_path
            out.extend(
                (members[i], members[j], color)
                for i, j in zip(*np.nonzero(np.triu(bad, 1)))
            )
        return out


def classes(colors: list[int]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        out[c].append(v)
    return out


def nae_reference(q: int, clauses) -> tuple[bool, bool]:
    """(trivially unsat, NAE-satisfiable) of the formula as generated."""
    trivial = any(
        len({v for v, _ in cl}) == 1 and len({p for _, p in cl}) == 1 for cl in clauses
    )
    sat = any(
        all(len({values[v - 1] == p for v, p in cl}) == 2 for cl in clauses)
        for values in product((False, True), repeat=q)
    )
    return trivial, sat


# ------------------------------------------------------------------ checks


class Checker:
    """Judges outcomes; references are computed once per input, on demand."""

    def __init__(self):
        self._graph_refs: dict[str, GraphReference] = {}
        self._expected: dict[tuple, object] = {}
        self.reference_errors: list[str] = []

    def graph_ref(self, g: GraphInstance) -> GraphReference:
        if g.path not in self._graph_refs:
            self._graph_refs[g.path] = GraphReference(g)
        return self._graph_refs[g.path]

    def _memo(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def check(self, op: Op, out: Outcome) -> tuple[str, str]:
        """("ok" | "undecided" | "failed", reason)."""
        if out.error is not None:
            return "failed", f"exception out of cli.main: {out.error}"
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, out)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return "failed", f"unreadable output: {type(e).__name__}: {e}"

    def _check_theorem(self, op, out):
        chi, gp_valid = op.instance
        if out.exit_code != 0:
            return "failed", f"exit {out.exit_code}, expected 0"
        rep = json.loads(out.out_path.read_text())
        got = (rep["formula"]["value"], rep["construction_colors"], rep["mv_valid"], rep["gp_valid"])
        if got != (chi, chi, True, gp_valid):
            return "failed", f"(formula, construction, mv_valid, gp_valid) = {got}, expected {(chi, chi, True, gp_valid)}"
        return "ok", ""

    def _check_reduce_verify(self, op, out):
        f: FormulaInstance = op.instance
        trivial, sat = self._memo(("nae", f.path), lambda: nae_reference(f.q, f.clauses))
        if out.exit_code not in (0, 4):
            return "failed", f"exit {out.exit_code}, expected 0 or 4"
        rep = json.loads(out.out_path.read_text())
        if rep["trivially_unsat"] != trivial or rep["nae_satisfiable"] != sat:
            return "failed", f"trivially_unsat/nae_satisfiable = {rep['trivially_unsat']}/{rep['nae_satisfiable']}, expected {trivial}/{sat}"
        if out.exit_code == 4:
            if rep["solver_budget_exhausted"] and rep["mv_two_colorable"] is None:
                return "undecided", ""
            return "failed", "exit 4 without an exhausted budget in the report"
        expected_2col = None if trivial else sat
        if rep["mv_two_colorable"] != expected_2col or not rep["agree"]:
            return "failed", f"mv_two_colorable = {rep['mv_two_colorable']}, expected {expected_2col}"
        if sat and rep["forward_coloring_validates"] is not True:
            return "failed", "forward coloring of a satisfying assignment does not validate"
        return "ok", ""

    def expected_violations(self, c: ColoringInstance, mode: str):
        ref = self.graph_ref(c.graph)
        compute = ref.mv_violations if mode == "mv" else ref.gp_violations
        return self._memo((mode, c.path), lambda: sorted(compute(c.colors), key=lambda t: (t[2], t[0], t[1])))

    def _check_validate(self, op, out):
        c, mode = op.instance
        bad = self.expected_violations(c, mode)
        expected_exit = 3 if bad else 0
        if out.exit_code != expected_exit:
            return "failed", f"exit {out.exit_code}, expected {expected_exit} ({len(bad)} violating pairs)"
        rep = json.loads(out.out_path.read_text())
        got = [(x["u"] - 1, x["v"] - 1, x["color"] - 1) for x in rep["violations"]]
        pairs = sum(len(m) * (len(m) - 1) // 2 for m in classes(c.colors))
        if rep["valid"] != (not bad) or got != bad or rep["checked_pairs"] != pairs:
            return "failed", f"report lists {len(got)} violations and {rep['checked_pairs']} pairs, expected {len(bad)} and {pairs}"
        return "ok", ""

    def wrong_verdict(self, op: Op, out: Outcome) -> bool:
        """A validate op whose valid/invalid answer (its exit code) is wrong."""
        if op.kind != "validate":
            return False
        return out.exit_code != (3 if self.expected_violations(*op.instance) else 0)

    def _check_solve(self, op, out):
        g: GraphInstance = op.instance
        chi = 2  # K_{2,d} plus a pendant: one class cannot hold both hubs
        if out.exit_code == 4:
            m = re.search(r"BUDGET bounds \[(\d+), (\d+)\]", out.stdout)
            if m and int(m.group(1)) <= chi <= int(m.group(2)):
                return "undecided", ""
            return "failed", f"budget exit with bounds {out.stdout.strip()!r}, chi is {chi}"
        if out.exit_code != 0:
            return "failed", f"exit {out.exit_code}, expected 0 or 4"
        if out.stdout.split() != ["CHI", str(chi)]:
            return "failed", f"printed {out.stdout.strip()!r}, expected 'CHI {chi}'"
        colors = read_coloring_file(out.out_path.read_text(), g.n)
        if len(set(colors)) != chi or self.graph_ref(g).mv_violations(colors):
            return "failed", "written coloring is not a valid 2-coloring"
        return "ok", ""

    def crosscheck(self, ops: list[Op], rng: random.Random, pairs: int = 8) -> None:
        """Compare the reference with mvchroma's own ``pair_visible`` on
        sampled same-class pairs of every validated coloring, half of them
        from the violating pairs. A disagreement puts the reference in doubt."""
        from mvchroma.graph import all_pairs_distances, graph_from_edge_list
        from mvchroma.visibility import pair_visible

        colorings = {op.instance[0].path: op.instance[0] for op in ops if op.kind == "validate"}
        for c in colorings.values():
            g = graph_from_edge_list(c.graph.n, c.graph.edges)
            o = all_pairs_distances(g)
            members = classes(c.colors)
            bad = {(u, v) for u, v, _ in self.expected_violations(c, "mv")}
            same_class = [
                tuple(sorted(rng.sample(m, 2))) for m in rng.choices(members, k=pairs) if len(m) > 1
            ]
            violating = rng.sample(sorted(bad), min(len(bad), pairs // 2))
            sample = violating + same_class[: pairs - len(violating)]
            for u, v in sample:
                visible = (u, v) not in bad
                if pair_visible(g, o, u, v, members[c.colors[u]]) != visible:
                    self.reference_errors.append(f"{c.label}: pair ({u}, {v}) reference says visible={visible}")


def read_coloring_file(text: str, n: int) -> list[int]:
    colors = [-1] * n
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            colors[int(parts[1]) - 1] = int(parts[2]) - 1
    if min(colors) < 0:
        raise ValueError("coloring file does not cover every vertex")
    return colors
