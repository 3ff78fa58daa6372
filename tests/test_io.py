import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from treesplice.generators import complete_graph, gnp_graph
from treesplice.graph import GraphFormatError
from treesplice.io import parse_graph, serialize_graph, serialize_tree, serialize_weighted
from treesplice.sampler import sample_trees
from treesplice.splice import WeightedGraph


def test_graph_roundtrip_byte_identical():
    g = complete_graph(4)
    text = serialize_graph(g)
    assert text.splitlines()[0] == "4 6"
    again = serialize_graph(parse_graph(text))
    assert text == again


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 3.*self-loop"):
        parse_graph("4 2\n0 1\n3 3\n")


def test_parse_rejects_duplicate_with_pair():
    with pytest.raises(GraphFormatError, match="duplicate edge \\(0, 1\\)"):
        parse_graph("4 2\n0 1\n0 1\n")


def test_parse_rejects_bad_order_and_counts():
    with pytest.raises(GraphFormatError, match="u < v"):
        parse_graph("4 1\n2 1\n")
    with pytest.raises(GraphFormatError, match="promised"):
        parse_graph("4 3\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph("3 1\n0 1\n1 2\n")


def test_tree_roundtrip_preserves_root_and_parents():
    g = gnp_graph(20, 0.3, seed=2)
    tree = sample_trees(g, 1, seed=5)[0]
    header, *rows = serialize_tree(tree).splitlines()
    assert header == f"tree {tree.n} {tree.root}"
    # The edge rows read as a graph are the tree's edges.
    back = parse_graph("\n".join([f"{tree.n} {len(rows)}", *rows]))
    assert sorted(back.iter_edges()) == sorted(tree.edges())
    # Parent orientation is determined by edges + root.
    parent = csgraph.breadth_first_order(back._adjacency(), tree.root)[1]
    assert np.array_equal(np.maximum(parent, -1), tree.parent)


def test_weighted_roundtrips_17_digits_bit_exact():
    g = gnp_graph(15, 0.4, seed=3)
    rng = np.random.default_rng(1)
    weights = rng.random(g.m) * 3.0 + 1e-7
    header, *rows = serialize_weighted(WeightedGraph(g, weights)).splitlines()
    back = parse_graph("\n".join([header, *(r.rsplit(" ", 1)[0] for r in rows)]))
    assert back == g
    assert np.array_equal([float(r.split()[2]) for r in rows], weights)


def sniff_format(text: str) -> str:
    """'tree', 'weighted', or 'graph', from the header and first edge line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input", 1)
    if lines[0].split()[:1] == ["tree"]:
        return "tree"
    if len(lines) > 1 and len(lines[1].split()) == 3:
        return "weighted"
    return "graph"


def test_sniff_format():
    assert sniff_format("tree 3 0\n0 1\n1 2\n") == "tree"
    assert sniff_format("3 2\n0 1 1.5\n1 2 2.0\n") == "weighted"
    assert sniff_format("3 2\n0 1\n1 2\n") == "graph"


def roundtrip(path: str):
    """Parse a graph file, re-serialize, re-parse; demand a byte-identical
    fixpoint.  Graphs are the one format that is read back."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert sniff_format(text) == "graph"
    obj = parse_graph(text)
    once = serialize_graph(obj)
    assert serialize_graph(parse_graph(once)) == once
    return obj


def test_roundtrip_function(tmp_path):
    g = complete_graph(5)
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    obj = roundtrip(str(path))
    assert obj == g
