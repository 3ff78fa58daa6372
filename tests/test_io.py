import numpy as np
import pytest

from treesplice.generators import complete_graph, gnp_graph
from treesplice.graph import GraphFormatError
from treesplice.io import (
    parse_graph,
    parse_tree,
    parse_weighted,
    serialize_graph,
    serialize_tree,
    serialize_weighted,
)
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
    text = serialize_tree(tree)
    back = parse_tree(text)
    assert back.root == tree.root
    assert sorted(back.edges()) == sorted(tree.edges())
    # Parent orientation is determined by edges + root.
    depth_pairs = {(v, int(back.parent[v])) for v in range(back.n) if back.parent[v] >= 0}
    assert all((min(a, b), max(a, b)) in set(tree.edges()) for a, b in depth_pairs)
    assert serialize_tree(back) == text


def test_tree_rejects_non_tree():
    # n-1 edges but a cycle plus an isolated piece: not spanning.
    with pytest.raises(GraphFormatError, match="spanning tree"):
        parse_tree("tree 5 0\n0 1\n0 2\n1 2\n3 4\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_tree("tree 4 0\n0 1\n1 2\n1 2\n")


def test_weighted_roundtrips_17_digits_bit_exact():
    g = gnp_graph(15, 0.4, seed=3)
    rng = np.random.default_rng(1)
    weights = rng.random(g.m) * 3.0 + 1e-7
    wg = WeightedGraph(g, weights)
    text = serialize_weighted(wg)
    back = parse_weighted(text)
    assert np.array_equal(back.weights, wg.weights)
    assert serialize_weighted(back) == text


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
    """Parse a file, re-serialize, re-parse; demand a byte-identical fixpoint."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parse, serialize = {
        "graph": (parse_graph, serialize_graph),
        "tree": (parse_tree, serialize_tree),
        "weighted": (parse_weighted, serialize_weighted),
    }[sniff_format(text)]
    obj = parse(text)
    once = serialize(obj)
    assert serialize(parse(once)) == once
    return obj


def test_roundtrip_function(tmp_path):
    g = complete_graph(5)
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    obj = roundtrip(str(path))
    assert obj == g
