import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplice.generators import complete_graph, gnp_graph, path_graph, random_regular_graph
from treesplice.graph import Graph, SamplingError, cut_edges
from treesplice.sampler import sample_trees
from treesplice.splice import (
    SPARSIFY_RETRY_CAP,
    WeightedGraph,
    sparsify_gnp,
    splice,
    splice_gnp,
    union_trees,
)


def test_union_single_tree_is_identity():
    g = complete_graph(10)
    tree = sample_trees(g, 1, seed=1)[0]
    spl = union_trees([tree])
    spl.validate()
    assert spl.support.m == g.n - 1
    assert set(spl.multiplicity.tolist()) == {1}
    assert sorted(spl.support.iter_edges()) == sorted(tree.edges())


def test_union_identical_trees_doubles_multiplicity():
    g = complete_graph(3)
    tree = sample_trees(g, 1, seed=2)[0]
    spl = union_trees([tree, tree])
    assert spl.support.m == 2
    assert set(spl.multiplicity.tolist()) == {2}
    assert int(spl.multiplicity.sum()) == 2 * (g.n - 1)


@pytest.mark.parametrize(
    "graph", [complete_graph(12), random_regular_graph(12, 3, seed=2)], ids=["K12", "3-regular"]
)
def test_union_matches_plain_python_union(graph):
    trees = sample_trees(graph, 3, seed=4)
    counts, ends = {}, {}
    for t in trees:
        for v, (p, e) in enumerate(zip(t.parent.tolist(), t.parent_edge.tolist())):
            if p >= 0:
                counts[e] = counts.get(e, 0) + 1
                ends[e] = (min(p, v), max(p, v))
    eids = sorted(counts)
    spl = union_trees(trees)
    assert spl.support == Graph(graph.n, [ends[e] for e in eids])
    assert spl.multiplicity.dtype == np.int32 and spl.support_base_eids.dtype == np.int64
    assert spl.multiplicity.tolist() == [counts[e] for e in eids]
    assert spl.support_base_eids.tolist() == eids
    if graph.m < 3 * (graph.n - 1):
        assert spl.multiplicity.max() > 1  # the three trees share edges


def test_splicer_validate_rejects_each_broken_invariant():
    spl = splice(complete_graph(6), 2, seed=4)
    spl.validate()
    single = splice(path_graph(4), 1, seed=4)
    single.validate()
    triangle = Graph(4, [(0, 1), (1, 2), (0, 2)])  # vertex 3 left out
    cases = [
        (replace(spl, multiplicity=spl.multiplicity + 1), "multiplicities sum to"),
        (
            replace(spl, support=complete_graph(6), multiplicity=np.repeat([1, 0], [10, 5])),
            "support larger",
        ),
        (replace(single, support=triangle), "must be connected"),
        (replace(spl, support_base_eids=spl.support_base_eids[1:]), "outside the support"),
    ]
    for broken, message in cases:
        with pytest.raises(ValueError, match=message):
            broken.validate()


def test_union_edge_disjoint_trees():
    from treesplice.sampler import SpanningTree

    k5 = complete_graph(5)

    def tree_from_parents(parents):
        parent = np.array(parents, dtype=np.int32)
        eids = np.array(
            [-1 if p < 0 else k5.edge_id(p, v) for v, p in enumerate(parents)],
            dtype=np.int32,
        )
        t = SpanningTree(int(np.flatnonzero(parent < 0)[0]), parent, eids)
        t.validate(k5)
        return t

    path_tree = tree_from_parents([-1, 0, 1, 2, 3])      # 01 12 23 34
    zigzag_tree = tree_from_parents([-1, 4, 0, 1, 2])    # 02 24 41 13
    assert set(path_tree.edges()).isdisjoint(zigzag_tree.edges())
    spl = union_trees([path_tree, zigzag_tree])
    assert spl.support.m == 2 * (k5.n - 1)
    assert set(spl.multiplicity.tolist()) == {1}


def test_union_rejects_mismatched_sizes():
    a = sample_trees(complete_graph(5), 1, seed=1)[0]
    b = sample_trees(complete_graph(6), 1, seed=1)[0]
    with pytest.raises(ValueError):
        union_trees([a, b])


def test_splice_of_tree_is_that_tree():
    g = path_graph(9)
    for k in (1, 2, 4):
        spl = splice(g, k, seed=3)
        assert sorted(spl.support.iter_edges()) == sorted(g.iter_edges())
        assert set(spl.multiplicity.tolist()) == {k}


def test_splice_support_bounds_and_connectivity():
    g = complete_graph(128)
    for s in range(5):
        spl = splice(g, 2, seed=s)
        spl.validate()
        assert g.n <= spl.support.m <= 2 * (g.n - 1)
        assert spl.support.is_connected()
        # Support is a subgraph of the base graph.
        base = set(g.iter_edges())
        assert all(e in base for e in spl.support.iter_edges())


def test_splice_max_degree_logarithmic():
    n = 512
    g = complete_graph(n)
    cap = 6 * math.log(n)
    for s in range(50):
        spl = splice(g, 2, seed=100 + s)
        assert spl.support.degrees.max() <= cap


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_multiplicity_accounting(seed, k):
    g = complete_graph(12)
    spl = splice(g, k, seed=seed)
    assert int(spl.multiplicity.sum()) == k * (g.n - 1)
    assert all(1 <= m <= k for m in spl.multiplicity.tolist())
    for tree in spl.source_trees:
        tree_eids = set(tree.edge_ids().tolist())
        assert tree_eids <= set(spl.support_base_eids.tolist())


def test_weighted_graph_validates_positivity():
    g = path_graph(4)
    with pytest.raises(ValueError):
        WeightedGraph(g, np.zeros(g.m))
    with pytest.raises(ValueError):
        WeightedGraph(g, np.ones(g.m + 1))


def test_sparsifier_shape_and_weights():
    n = 300
    p = 12 * math.log(n) / n
    h = gnp_graph(n, p, seed=5)
    assert h.is_connected()
    wg = sparsify_gnp(h, p, seed=6)
    assert wg.graph.m <= 2 * (n - 1)
    assert np.allclose(wg.weights, p * n)
    assert wg.graph.is_connected()
    # Any cut weight is exactly p*n times the support cut size.
    subset = list(range(40))
    assert wg.weights[cut_edges(wg.graph, subset)].sum() == pytest.approx(
        p * n * len(cut_edges(wg.graph, subset))
    )
    total = wg.weights.sum()
    assert total <= 2 * (n - 1) * p * n


def test_splice_gnp_is_the_sparsifier_support():
    n = 300
    p = 12 * math.log(n) / n
    h = gnp_graph(n, p, seed=5)
    spl = splice_gnp(h, p, seed=6)
    spl.validate()
    assert spl.k == 2
    assert int(spl.multiplicity.sum()) == 2 * (n - 1)
    assert spl.support == sparsify_gnp(h, p, seed=6).graph


def test_sparsifier_failure_is_sampling_error():
    # Way below the workable density: every attempt strands the walk.
    h = gnp_graph(200, 0.05, seed=1)
    with pytest.raises(SamplingError, match=str(SPARSIFY_RETRY_CAP)):
        sparsify_gnp(h, 0.05, seed=2)


def test_sparsifier_rejects_bad_p():
    h = gnp_graph(50, 0.5, seed=1)
    with pytest.raises(ValueError):
        sparsify_gnp(h, 0.0, seed=1)


def test_splicer_cut_dominates_each_tree_cut():
    g = complete_graph(24)
    spl = splice(g, 3, seed=9)
    for subset in ([0], [1, 2, 3], list(range(12))):
        union_cut = len(cut_edges(spl.support, subset))
        for tree in spl.source_trees:
            from treesplice.splice import union_trees as _ut

            tree_cut = len(cut_edges(_ut([tree]).support, subset))
            assert union_cut >= tree_cut >= 1
