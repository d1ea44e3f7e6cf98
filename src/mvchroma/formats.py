"""Text formats: DIMACS-style graphs, colorings, tree label sidecars.

External files are 1-based; these readers and writers translate them to and
from the library's dense 0-based ids. The CLI's validate report and
``reduction.legend_to_dict`` add 1 on their own.
"""

from __future__ import annotations

from .errors import GraphFormatError
from .gluedtrees import Internal, LabeledGluedTree, QuasiLeaf
from .graph import Graph, graph_from_edge_list
from .visibility import Coloring


def _ints(fields, line: str) -> list[int]:
    """The integer fields of one line; a malformed field is a format error."""
    try:
        return [int(x) for x in fields]
    except ValueError as e:
        raise GraphFormatError(f"non-integer field in line {line!r}") from e


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    n = m = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"bad problem line: {line!r}")
            n, m = _ints(parts[2:], line)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphFormatError(f"bad edge line: {line!r}")
            u, v = _ints(parts[1:], line)
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"unknown line: {line!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if len(edges) != m:
        raise GraphFormatError(f"problem line announces {m} edges, found {len(edges)}")
    return graph_from_edge_list(n, edges)


def write_coloring(c: Coloring) -> str:
    lines = [f"s color {c.n} {c.k}"]
    for v, col in enumerate(c.colors):
        lines.append(f"v {v + 1} {col + 1}")
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> tuple[Coloring, dict[int, int]]:
    """Parse a coloring file; sparse external color ids are renumbered dense.

    Returns the coloring and the external-id -> dense-id mapping (both sides
    1-based external ids mapped to 0-based internal).
    """
    n = None
    raw_colors: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if n is not None:
                raise GraphFormatError("duplicate solution line")
            if len(parts) != 4 or parts[1] != "color":
                raise GraphFormatError(f"bad solution line: {line!r}")
            # the header's palette size describes the writer, not the classes
            n, _ = _ints(parts[2:], line)
        elif parts[0] == "v":
            if len(parts) != 3:
                raise GraphFormatError(f"bad vertex line: {line!r}")
            v, col = _ints(parts[1:], line)
            if v in raw_colors:
                raise GraphFormatError(f"duplicate vertex {v}")
            raw_colors[v] = col
        else:
            raise GraphFormatError(f"unknown line: {line!r}")
    if n is None:
        raise GraphFormatError("missing solution line")
    if len(raw_colors) != n or not all(1 <= v <= n for v in raw_colors):
        raise GraphFormatError("vertex lines do not cover 1..n exactly")
    used = sorted(set(raw_colors.values()))
    mapping = {ext: dense for dense, ext in enumerate(used)}
    colors = tuple(mapping[raw_colors[v]] for v in range(1, n + 1))
    return Coloring(colors=colors, k=len(used)), mapping


def write_labels(tree: LabeledGluedTree) -> str:
    """Label sidecar: `L <id> <side> <i> <j>` and `Q <id> <a>`, 1-based ids."""
    lines = []
    for vid in range(tree.graph.n):
        coord = tree.coord(vid)
        if isinstance(coord, Internal):
            lines.append(f"L {vid + 1} {coord.side} {coord.i} {coord.j}")
        else:
            lines.append(f"Q {vid + 1} {coord.a}")
    return "\n".join(lines) + "\n"


def read_labels(text: str) -> dict[int, Internal | QuasiLeaf]:
    out: dict[int, Internal | QuasiLeaf] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "L" and len(parts) == 5:
            vid, side, i, j = _ints(parts[1:], line)
            out[vid - 1] = Internal(side=side, i=i, j=j)
        elif parts[0] == "Q" and len(parts) == 3:
            vid, a = _ints(parts[1:], line)
            out[vid - 1] = QuasiLeaf(a=a)
        else:
            raise GraphFormatError(f"bad label line: {line!r}")
    return out
