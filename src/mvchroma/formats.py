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


def _records(text: str, header: tuple[str, str] | None, arity: dict[str, int]):
    """The two counts of the header line ``<tag> <kind> <a> <b>``, None when
    ``header`` is None, and each body line as one list: its tag, then its
    integer fields.

    Blank lines and lines starting with ``c`` are skipped. The header appears
    exactly once; a body line is a tag of ``arity`` followed by that many
    integers. Anything else raises GraphFormatError quoting the line.
    """
    counts = None
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tag, *fields = line.split()
        try:
            if arity.get(tag) == len(fields):
                rows.append([tag, *map(int, fields)])
            elif len(fields) == 3 and (tag, fields[0]) == header:
                if counts is not None:
                    raise GraphFormatError(f"duplicate header line: {line!r}")
                counts = int(fields[1]), int(fields[2])
            else:
                raise GraphFormatError(f"bad line: {line!r}")
        except ValueError as e:
            raise GraphFormatError(f"non-integer field in line {line!r}") from e
    if header is not None and counts is None:
        raise GraphFormatError(f"missing header line {' '.join(header)!r}")
    return counts, rows


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    (n, m), rows = _records(text, ("p", "edge"), {"e": 2})
    if len(rows) != m:
        raise GraphFormatError(f"problem line announces {m} edges, found {len(rows)}")
    return graph_from_edge_list(n, [(u - 1, v - 1) for _, u, v in rows])


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
    # the header's palette size describes the writer, not the classes
    (n, _), rows = _records(text, ("s", "color"), {"v": 2})
    raw_colors: dict[int, int] = {}
    for _, v, col in rows:
        if v in raw_colors:
            raise GraphFormatError(f"duplicate vertex {v}")
        raw_colors[v] = col
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
    """Parse a label sidecar: its ids cover 1..(number of lines) once each,
    a side is 1 or 2, and i, j and a are positive."""
    _, rows = _records(text, None, {"L": 4, "Q": 2})
    labels = {}
    for tag, vid, *coord in rows:
        if vid - 1 in labels:
            problem = "duplicate label id"
        elif not 1 <= vid <= len(rows):
            problem = f"label id outside 1..{len(rows)}"
        elif min(coord) < 1 or (tag == "L" and coord[0] > 2):
            problem = "bad label coordinates"
        else:
            labels[vid - 1] = Internal(*coord) if tag == "L" else QuasiLeaf(*coord)
            continue
        raise GraphFormatError(f"{problem}: {' '.join(map(str, (tag, vid, *coord)))!r}")
    return labels
