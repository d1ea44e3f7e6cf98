"""Spans around calls into mvchroma's public functions, recorded from outside.

``traced(tracer)`` swaps each public function listed in ``TRACED`` for a
wrapper, in every mvchroma module that holds a reference to it, and puts the
originals back on exit. The program's source is not touched; untraced passes
run the original functions. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) -> counters pulled from the call's arguments and result
TRACED = {
    ("graph", "all_pairs_distances"): lambda args, res: {"apsp_bytes": 12 * args[0].n ** 2},
    ("gluedtrees", "build_glued_tree"): None,
    ("gluedtrees", "constructive_coloring"): None,
    ("gluedtrees", "chi_mu_formula"): None,
    ("gluedtrees", "verify_theorem"): None,
    ("reduction", "parse_nae_formula"): None,
    ("reduction", "normalize"): None,
    ("reduction", "build_reduction"): None,
    ("reduction", "verify_reduction"): None,
    ("visibility", "validate_mv_coloring"): lambda args, res: {"checked_pairs": res.checked_pairs},
    ("visibility", "validate_gp_coloring"): lambda args, res: {"checked_pairs": res.checked_pairs},
    ("solver", "mv_k_colorable"): lambda args, res: {
        "nodes": res.nodes_explored,
        "budget_exhausted": int(res.status.value == "budget"),
    },
    ("solver", "greedy_upper_bound"): lambda args, res: {"greedy_colors": res[0]},
    ("solver", "chi_mu_exact"): None,
    ("solver", "nae_satisfiable"): None,
    ("formats", "read_graph"): None,
    ("formats", "read_coloring"): None,
}

MODULES = ("cli", "graph", "gluedtrees", "reduction", "visibility", "solver", "formats")


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(
            id=len(self.spans),
            name=name,
            op=self.op,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter):
        def traced_call(*args, **kwargs):
            with self.span(name) as s:
                res = fn(*args, **kwargs)
                if counter is not None:
                    s.counts = counter(args, res)
                return res

        return traced_call


@contextmanager
def traced(tracer: Tracer):
    import importlib

    modules = [importlib.import_module(f"mvchroma.{m}") for m in MODULES]
    by_module = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    # keyed by id: the originals stay alive in their wrappers meanwhile
    wrappers = {}
    for (mod, fname), counter in TRACED.items():
        fn = getattr(by_module[mod], fname)
        wrappers[id(fn)] = tracer.wrap(f"{mod}.{fname}", fn, counter)
    swapped = []
    for m in modules:
        for attr, value in list(vars(m).items()):
            if id(value) in wrappers:
                swapped.append((m, attr, value))
                setattr(m, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for m, attr, value in swapped:
            setattr(m, attr, value)


def self_time(spans: list[Span], span: Span) -> float:
    """Duration minus the time its direct children cover (one thread, so
    children never overlap)."""
    children = sum(s.end - s.start for s in spans if s.parent == span.id)
    return (span.end - span.start) - children


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one traced pass. Times are inclusive: a
    validation inside the greedy bound counts in both."""

    def total(*names):
        return sum(s.end - s.start for s in spans if s.name in names)

    def count(key):
        return sum(s.counts.get(key, 0) for s in spans)

    validate_s = total("visibility.validate_mv_coloring", "visibility.validate_gp_coloring")
    search_s = total("solver.mv_k_colorable")
    return {
        "graph.apsp_s": total("graph.all_pairs_distances"),
        "graph.apsp_bytes": max((s.counts.get("apsp_bytes", 0) for s in spans), default=0),
        "gluedtrees.build_s": total("gluedtrees.build_glued_tree"),
        "gluedtrees.construct_s": total("gluedtrees.constructive_coloring"),
        "reduction.normalize_s": total("reduction.normalize"),
        "reduction.build_s": total("reduction.build_reduction"),
        "visibility.mv_validate_s": total("visibility.validate_mv_coloring"),
        "visibility.gp_validate_s": total("visibility.validate_gp_coloring"),
        "visibility.checked_pairs": count("checked_pairs"),
        "visibility.pairs_per_s": count("checked_pairs") / validate_s if validate_s else 0.0,
        "solver.search_s": search_s,
        "solver.nodes": count("nodes"),
        "solver.nodes_per_s": count("nodes") / search_s if search_s else 0.0,
        "solver.budget_exhausted": count("budget_exhausted"),
        "solver.greedy_s": total("solver.greedy_upper_bound"),
        "solver.greedy_colors": count("greedy_colors"),
        "solver.nae_bruteforce_s": total("solver.nae_satisfiable"),
        "formats.read_s": total("formats.read_graph", "formats.read_coloring", "reduction.parse_nae_formula"),
        "cli.self_s": sum(self_time(spans, s) for s in spans if s.name == "cli.main"),
    }
