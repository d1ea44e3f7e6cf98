import pytest

from mvchroma import (
    Coloring,
    Internal,
    QuasiLeaf,
    build_glued_tree,
    graph_from_edge_list,
    read_coloring,
    read_graph,
    read_labels,
    write_coloring,
    write_graph,
    write_labels,
)
from mvchroma.errors import GraphFormatError


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


def test_graph_format_errors():
    with pytest.raises(GraphFormatError):
        read_graph("e 1 2\n")  # missing problem line
    with pytest.raises(GraphFormatError):
        read_graph("p edge 2 2\ne 1 2\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        read_graph("p edge 2 1\nx 1 2\n")  # unknown line
    with pytest.raises(GraphFormatError):
        read_graph("p edge 2 1\np edge 2 1\ne 1 2\n")  # duplicate header
    with pytest.raises(GraphFormatError):
        read_graph("p edge 2 1\ne 1 x\n")  # non-integer field


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


def test_coloring_errors():
    with pytest.raises(GraphFormatError):
        read_coloring("v 1 1\n")  # missing solution line
    with pytest.raises(GraphFormatError):
        read_coloring("s color 2 1\nv 1 1\n")  # missing vertex 2
    with pytest.raises(GraphFormatError):
        read_coloring("s color 1 1\nv 1 1\nv 1 1\n")  # duplicate vertex
    with pytest.raises(GraphFormatError):
        read_coloring(f"s color {2**62} 1\nv 1 1\n")  # a count, not a list of ids
    with pytest.raises(GraphFormatError):
        read_coloring("s color 1 1\ns color 1 1\nv 1 1\n")  # duplicate header
    with pytest.raises(GraphFormatError):
        read_coloring("s color 1 1\nv 1 1\nx 1 1\n")  # unknown tag
    with pytest.raises(GraphFormatError):
        read_coloring("s color 2 1\nv 1 1\nv 2 1 1\n")  # wrong field count


def test_labels_round_trip():
    tree = build_glued_tree(2, 2)
    text = write_labels(tree)
    labels = read_labels(text)
    assert labels == {v: tree.coord(v) for v in range(tree.graph.n)}
    assert labels[tree.internal(1, 2, 2)] == Internal(1, 2, 2)
    assert labels[tree.quasi(3)] == QuasiLeaf(3)


def test_labels_bad_line():
    with pytest.raises(GraphFormatError):
        read_labels("L 1 1\n")
    with pytest.raises(GraphFormatError):
        read_labels("L 1 a 1 1\n")
    with pytest.raises(GraphFormatError):
        read_labels("Q 1 1\nX 2 1\n")  # unknown tag
    with pytest.raises(GraphFormatError):
        read_labels("p edge 1 0\nQ 1 1\n")  # label files have no header


@pytest.mark.parametrize("text, message", [
    ("L 1 1 1 1\nL 1 2 1 1\n", "duplicate label id: 'L 1 2 1 1'"),
    ("L 0 1 1 1\n", "label id outside 1..1: 'L 0 1 1 1'"),
    ("Q 1 1\nQ -3 1\n", "label id outside 1..2: 'Q -3 1'"),
    ("Q 1 1\nQ 3 2\n", "label id outside 1..2: 'Q 3 2'"),
    ("L 1 9 9 9\n", "bad label coordinates: 'L 1 9 9 9'"),
    ("L 1 0 1 1\n", "bad label coordinates: 'L 1 0 1 1'"),
    ("L 1 1 0 1\n", "bad label coordinates: 'L 1 1 0 1'"),
    ("L 1 2 1 -1\n", "bad label coordinates: 'L 1 2 1 -1'"),
    ("Q 1 0\n", "bad label coordinates: 'Q 1 0'"),
], ids=["duplicate-id", "id-zero", "id-negative", "id-past-line-count", "side-9",
        "side-0", "i-zero", "j-negative", "a-zero"])
def test_labels_reject_what_no_tree_has(text, message):
    with pytest.raises(GraphFormatError) as exc:
        read_labels(text)
    assert str(exc.value) == message
