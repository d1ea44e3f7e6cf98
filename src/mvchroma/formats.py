"""Text formats: DIMACS-style graphs, colorings, tree label sidecars.

External files are 1-based; these readers and writers translate them to and
from the library's dense 0-based ids. The CLI's validate report and
``reduction.legend_to_dict`` add 1 on their own.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphFormatError
from .gluedtrees import Internal, LabeledGluedTree, QuasiLeaf
from .graph import Graph, graph_from_edge_list
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
# int64 values that stay in int64 when shifted by one
_INT64 = range(1 - 2**63, 2**63 - 1)


def _integers(text: str, c: np.ndarray, start: np.ndarray, end: np.ndarray, digits: np.ndarray):
    """The words ``text[start:end]`` as integers, ``c`` being the text's code
    points, and a mask of the words that are not integers.

    A word of up to 18 ASCII digits (``digits`` is set) is read in numpy,
    most significant digit first. ``int`` reads any other word, and a value
    that a shift by one would take past int64 makes the result an array of
    Python ints.
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


def _records(text: str, header: tuple[str, str] | None, arity: dict[str, int]):
    """The two counts of the header line ``<tag> <kind> <a> <b>``, None when
    ``header`` is None; each body line's tag, as its index in ``arity``; and
    the body lines' integer fields, one row per line, as an int64 array (of
    Python ints when a field nears or passes the int64 limits). A row has a
    column per field of the widest tag; a narrower one repeats its last.

    Blank lines and lines starting with ``c`` are skipped. The header appears
    exactly once; a body line is a tag of ``arity`` followed by that many
    integers. Anything else raises GraphFormatError quoting the first such
    line. Lines, words and fields are found over all the text's code points
    at once, with the whitespace of ``str.split`` and the line breaks of
    ``str.splitlines``.
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

    tag = np.full(len(first), -1)
    for j, (t, a) in enumerate(arity.items()):
        tag[word_is(first, t) & (words == a + 1)] = j
    heads = np.zeros(0, dtype=int)
    if header is not None:
        heads = np.flatnonzero(words == 4)
        heads = heads[word_is(first[heads], header[0]) & word_is(first[heads] + 1, header[1])]
    rows = np.flatnonzero(tag >= 0)
    cols = np.arange(1, max(arity.values()) + 1)
    width = np.array(list(arity.values()))[tag[rows]]
    at = (first[rows, None] + np.minimum(cols, width[:, None])).ravel()
    fields, failed = _integers(text, c, start[at], end[at], most[2 * at + 1] == 0)

    # the first line at fault in file order names the error
    bad = tag < 0
    bad[heads] = False
    problems = [(i, "bad line: {!r}") for i in np.flatnonzero(bad)[:1]]
    problems += [(i, "duplicate header line: {!r}") for i in heads[1:2]]
    unread = rows[failed.reshape(len(rows), len(cols)).any(axis=1)]
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
    if header is not None and counts is None:
        raise GraphFormatError(f"missing header line {' '.join(header)!r}")
    return counts, tag[rows], fields.reshape(len(rows), len(cols))


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    (n, m), _, edges = _records(text, ("p", "edge"), {"e": 2})
    if len(edges) != m:
        raise GraphFormatError(f"problem line announces {m} edges, found {len(edges)}")
    return graph_from_edge_list(n, edges - 1)


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
    (n, _), _, rows = _records(text, ("s", "color"), {"v": 2})
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


def read_labels(text: str) -> dict[int, Internal | QuasiLeaf]:
    """Parse a label sidecar: its ids cover 1..(number of lines) once each,
    a side is 1 or 2, and i, j and a are positive."""
    arity = {"L": 4, "Q": 2}
    _, tags, rows = _records(text, None, arity)
    labels = {}
    for t, (vid, *coord) in zip(tags.tolist(), rows.tolist()):
        tag = "LQ"[t]
        coord = coord[: arity[tag] - 1]
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
