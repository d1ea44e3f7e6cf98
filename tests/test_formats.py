import pytest

from mvchroma import (
    Coloring,
    Internal,
    build_glued_tree,
    graph_from_edge_list,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
    write_labels,
)
from mvchroma.errors import GraphFormatError, OutOfRangeVertexError


def test_graph_round_trip():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    text = write_graph(g)
    assert text.splitlines()[0] == "p edge 4 4"
    again = read_graph(text)
    assert again.n == g.n
    assert again.edges() == g.edges()


def test_graph_round_trip_gt3():
    g = build_glued_tree(3, 2).graph
    assert read_graph(write_graph(g)).edges() == g.edges()


def test_graph_comments_and_blank_lines():
    g = read_graph("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
    assert g.n == 2
    assert g.m == 1


GRAPH_FORMAT_ERRORS = [
    ("e 1 2\n", "missing header line 'p edge'"),
    ("p edge 2 2\ne 1 2\n", "problem line announces 2 edges, found 1"),
    ("p edge 2 1\n  x\t1  2 \n", "bad line: 'x\\t1  2'"),
    ("p edge 2 1\ne 1 2 3\n", "bad line: 'e 1 2 3'"),
    ("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate header line: 'p edge 2 1'"),
    ("p edge 2 1\ne 1 2\np edge x 1\n", "duplicate header line: 'p edge x 1'"),
    ("p edge 2 1\ne 1 x\n", "non-integer field in line 'e 1 x'"),
    ("p edge 2 x\ne 1 2\n", "non-integer field in line 'p edge 2 x'"),
    ("p edge 3 2\ne 1 1.5\ne 2 3\nx\n", "non-integer field in line 'e 1 1.5'"),
    ("p edge 3 2\nx\ne 1 1.5\ne 2 3\n", "bad line: 'x'"),
]


def test_graph_format_errors():
    # the first fault in file order names the error, quoting its line as written
    for text, message in GRAPH_FORMAT_ERRORS:
        with pytest.raises(GraphFormatError) as exc:
            read_graph(text)
        assert str(exc.value) == message, text


@pytest.mark.parametrize("text", [
    "p edge 3 2\r\ne 1 2\r\ne 2 3\r\n",
    "p\tedge\t3\t2\ne\t1\t2\ne 2\t3\n",
    "  p edge 3 2\n   e 1 2\n\t e 2 3  \n",
    "p edge 3 2\ne 1 2\nc between\ncomment 1\ne 2 3\n",
    "e 1 2\nc the header may come after body lines\np edge 3 2\ne 2 3",
    "p edge 3 2\n\ne +1 02\n\n\ne 2 3\n",
], ids=["crlf", "tabs", "leading-spaces", "comments-between-edges", "header-after-body",
        "blank-lines-signs-zeros"])
def test_graph_reader_layouts(text):
    g = read_graph(text)
    assert (g.n, g.edges()) == (3, [(0, 1), (1, 2)])


def test_graph_ids_past_int64_reach_the_range_check():
    with pytest.raises(OutOfRangeVertexError) as exc:
        read_graph(f"p edge 2 1\ne 1 {2**64}\n")
    assert str(exc.value) == f"vertex {2**64} out of range 1..2"
    with pytest.raises(OutOfRangeVertexError) as exc:
        read_graph(f"p edge 2 1\ne {-(2**63)} 1\n")
    assert str(exc.value) == f"vertex {-(2**63)} out of range 1..2"


def test_line_breaks_and_whitespace_are_python_s():
    # every code point str.split treats as whitespace separates fields, and
    # every line break of str.splitlines ends a line
    spaces = [chr(i) for i in range(0x110000) if chr(i).isspace()]
    breaks = [ch for ch in spaces if len(f"a{ch}b".splitlines()) == 2]
    assert len(spaces) == 29 and len(breaks) == 10
    for ch in spaces:
        text = f"p edge 2 1{ch}e 1 2{ch}" if ch in breaks else f"p{ch}edge 2 1\ne 1{ch}2\n"
        assert read_graph(text).edges() == [(0, 1)], hex(ord(ch))
    with pytest.raises(GraphFormatError) as exc:
        read_graph("p edge 2 1\ne 1\u200b2\n")  # a zero-width space is no whitespace
    assert str(exc.value) == "bad line: 'e 1\\u200b2'"


def test_coloring_round_trip():
    c = Coloring((0, 1, 0, 2), 3)
    text = write_coloring(c)
    assert text.splitlines()[0] == "s color 4 3"
    again, mapping = read_coloring(text)
    assert again == c
    assert mapping == {1: 0, 2: 1, 3: 2}


def test_coloring_sparse_renumbered():
    text = "s color 3 2\nv 1 5\nv 2 9\nv 3 5\n"
    c, mapping = read_coloring(text)
    assert c.colors == (0, 1, 0)
    assert c.k == 2
    assert mapping == {5: 0, 9: 1}


COLORING_ERRORS = [
    ("v 1 1\n", "missing header line 's color'"),
    ("s color 2 1\nv 1 1\n", "vertex lines do not cover 1..n exactly"),
    ("s color 2 1\nv 1 1\nv 3 1\n", "vertex lines do not cover 1..n exactly"),
    ("s color 2 1\nv 0 1\nv 1 1\n", "vertex lines do not cover 1..n exactly"),
    ("s color 1 1\nv 1 1\nv 1 1\n", "duplicate vertex 1"),
    ("s color 3 1\nv 3 1\nv 2 1\nv 2 1\nv 3 1\nv 9 1\n", "duplicate vertex 2"),
    (f"s color {2**62} 1\nv 1 1\n", "vertex lines do not cover 1..n exactly"),
    ("s color 1 1\ns color 1 1\nv 1 1\n", "duplicate header line: 's color 1 1'"),
    ("s color 1 1\nv 1 1\nx 1 1\n", "bad line: 'x 1 1'"),
    ("s color 2 1\nv 1 1\nv 2 1 1\n", "bad line: 'v 2 1 1'"),
    ("s color 2 1\nv 1 1\nv 2 one\n", "non-integer field in line 'v 2 one'"),
]


def test_coloring_errors():
    for text, message in COLORING_ERRORS:
        with pytest.raises(GraphFormatError) as exc:
            read_coloring(text)
        assert str(exc.value) == message, text


@pytest.mark.parametrize("text", [
    "s color 3 2\r\nv 1 7\r\nv 2 30\r\nv 3 7\r\n",
    "  v 3 7\n\tv 2 30\nc header last\ns color 3 2\nv\t1\t7\n",
], ids=["crlf", "unordered-header-last"])
def test_coloring_reader_layouts(text):
    c, mapping = read_coloring(text)
    assert (c.colors, c.k, mapping) == ((0, 1, 0), 2, {7: 0, 30: 1})


def test_coloring_ids_past_int64_stay_python_ints():
    c, mapping = read_coloring(f"s color 2 2\nv 1 {2**70}\nv 2 5\n")
    assert (c.colors, mapping) == ((1, 0), {5: 0, 2**70: 1})
    assert all(type(x) is int for x in (*c.colors, *mapping, *mapping.values()))


def test_write_labels_gives_each_vertex_its_coord():
    # the sidecar is written, never read: each line is the vertex's coord
    for r, t in [(2, 2), (3, 3), (2, 5)]:
        tree = build_glued_tree(r, t)
        lines = write_labels(tree).splitlines()
        assert len(lines) == tree.graph.n
        for v, line in enumerate(lines):
            c = tree.coord(v)
            coord = ("L", c.side, c.i, c.j) if isinstance(c, Internal) else ("Q", c.a)
            tag, vid, *rest = line.split()
            assert (tag, int(vid), *map(int, rest)) == (coord[0], v + 1, *coord[1:]), line
