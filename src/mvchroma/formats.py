"""Text formats: DIMACS-style graphs and colorings; tree label sidecars,
which are written but never read.

External files are 1-based; these readers and writers translate them to and
from the library's dense 0-based ids, and reader errors name the file's ids.
The CLI's validate report and ``reduction.legend_to_dict`` add 1 themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphFormatError, OutOfRangeVertexError, SelfLoopError
from .gluedtrees import Internal, LabeledGluedTree
from .graph import Graph, graph_from_edge_list, require_vertex_count
from .visibility import Coloring


# Code points of str.split's whitespace, and of str.splitlines' line breaks
# among them; none lies past U+3000.
_SPACES = (*range(9, 14), *range(28, 33), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
           0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_BREAKS = (*range(10, 14), 28, 29, 30, 0x85, 0x2028, 0x2029)
# per code point: 0 a digit 0-9, 1 any other character of a word, 2
# whitespace, 3 a line break
_KIND = np.ones(0x3002, dtype=np.uint8)
_KIND[ord("0") : ord("9") + 1] = 0
_KIND[list(_SPACES)] = 2
_KIND[list(_BREAKS)] = 3
_INT64 = range(-(2**63), 2**63)


def _integers(text: str, c: np.ndarray, start: np.ndarray, end: np.ndarray, digits: np.ndarray):
    """The words ``text[start:end]`` as integers, ``c`` being the text's code
    points, and a mask of the words that are not integers.

    A word of up to 18 ASCII digits (``digits`` is set) is read in numpy,
    most significant digit first. ``int`` reads any other word, and a value
    past int64 makes the result an array of Python ints.
    """
    length = end - start
    plain = digits & (length <= 18)
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(length[plain].max(initial=0)), 0, -1):
        d = c[np.maximum(end - k, 0)].astype(np.int64) - ord("0")
        value = value * 10 + np.where(plain & (length >= k), d, 0)
    odd, exact = np.flatnonzero(~plain), []
    failed = np.zeros(len(start), dtype=bool)
    for i in odd.tolist():
        try:
            exact.append(int(text[start[i] : end[i]]))
        except ValueError:
            failed[i] = True
            exact.append(0)
    if not all(x in _INT64 for x in exact):
        value = value.astype(object)
    value[odd] = exact
    return value, failed


def _records(text: str, header: tuple[str, str], tag: str):
    """The two counts of the header line ``<header> <a> <b>``, and the two
    integer fields of each body line ``<tag> <x> <y>`` as an (m, 2) int64
    array (of Python ints when a field passes the int64 limits).

    Blank lines and lines starting with ``c`` are skipped. The header appears
    exactly once, anywhere; anything that is neither it nor a body line
    raises GraphFormatError quoting the first such line. Lines, words and
    fields are found over all the text's code points at once, with the
    whitespace of ``str.split`` and the line breaks of ``str.splitlines``.
    """
    # line breaks around the text: every word lies strictly inside c
    text = f"\n{text}\n"
    c = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    kind = _KIND[np.minimum(c, len(_KIND) - 1)]
    solid = kind < 2
    # 0, then where each word starts and ends
    bounds = np.flatnonzero(np.concatenate(([True], solid[1:] != solid[:-1])))
    start, end = bounds[1::2], bounds[2::2]
    # the largest kind of each gap before a word, and of each word
    most = np.maximum.reduceat(kind, bounds)
    first = np.flatnonzero(most[:-1:2] == 3)  # the words that start a line
    words = np.concatenate((first[1:], [len(start)])) - first  # per line
    keep = c[start[first]] != ord("c")
    first, words = first[keep], words[keep]

    def word_is(at, w: str) -> np.ndarray:
        hit = end[at] - start[at] == len(w)
        for i, ch in enumerate(w):
            hit &= c[np.minimum(start[at] + i, len(c) - 1)] == ord(ch)
        return hit

    body = word_is(first, tag) & (words == 3)
    heads = np.flatnonzero(words == 4)
    heads = heads[word_is(first[heads], header[0]) & word_is(first[heads] + 1, header[1])]
    rows = np.flatnonzero(body)
    at = (first[rows, None] + [1, 2]).ravel()
    fields, failed = _integers(text, c, start[at], end[at], most[2 * at + 1] == 0)

    # the first line at fault in file order names the error
    bad = ~body
    bad[heads] = False
    problems = [(i, "bad line: {!r}") for i in np.flatnonzero(bad)[:1]]
    problems += [(i, "duplicate header line: {!r}") for i in heads[1:2]]
    unread = rows[failed.reshape(-1, 2).any(axis=1)]
    problems += [(i, "non-integer field in line {!r}") for i in unread[:1]]
    counts = None
    if len(heads):
        w = first[heads[0]]
        try:
            counts = int(text[start[w + 2] : end[w + 2]]), int(text[start[w + 3] : end[w + 3]])
        except ValueError:
            problems.append((heads[0], "non-integer field in line {!r}"))
    if problems:
        i, message = min(problems)
        raise GraphFormatError(message.format(text[start[first[i]] : end[first[i] + words[i] - 1]]))
    if counts is None:
        raise GraphFormatError(f"missing header line {' '.join(header)!r}")
    return counts, fields.reshape(-1, 2)


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    (n, m), edges = _records(text, ("p", "edge"), "e")
    if len(edges) != m:
        raise GraphFormatError(f"problem line announces {m} edges, found {len(edges)}")
    n = require_vertex_count(n)
    # the file's ids are checked before the shift to 0-based, so errors name them
    outside = (edges < 1) | (edges > n)
    if outside.any():
        raise OutOfRangeVertexError(f"vertex {edges[outside][0]} out of range 1..{n}")
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        raise SelfLoopError(f"self-loop at vertex {edges[loops, 0].min()}")
    return graph_from_edge_list(n, edges.astype(np.int64, copy=False) - 1)


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
    (n, _), rows = _records(text, ("s", "color"), "v")
    v, col = rows.T
    # a stable sort keeps each vertex's lines in file order: a line equal to
    # the one before it in the sort repeats a vertex
    order = np.argsort(v, kind="stable")
    again = order[1:][v[order[1:]] == v[order[:-1]]]
    if len(again):
        raise GraphFormatError(f"duplicate vertex {v[again.min()]}")
    if len(v) != n or len(v) and not 1 <= v.min() <= v.max() <= n:
        raise GraphFormatError("vertex lines do not cover 1..n exactly")
    used, dense = np.unique(col[order], return_inverse=True)
    mapping = {ext: i for i, ext in enumerate(used.tolist())}
    return Coloring(colors=tuple(dense.tolist()), k=len(used)), mapping


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
