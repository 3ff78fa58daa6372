import math
import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplice.cuts import spectral_lower_bounds
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
)
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
    assert spl.m == g.n - 1
    assert sorted(spl.iter_edges()) == sorted(tree.edges())


def test_union_identical_trees_doubles_multiplicity():
    g = complete_graph(3)
    tree = sample_trees(g, 1, seed=2)[0]
    spl = union_trees([tree, tree])
    # A tree counted twice adds no edge: the support is that tree, once.
    assert spl.m == 2
    assert spl == union_trees([tree])


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
    assert union_trees(trees) == Graph(graph.n, [ends[e] for e in eids])
    if graph.m < 3 * (graph.n - 1):
        assert max(counts.values()) > 1  # the three trees share edges


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
    assert union_trees([path_tree, zigzag_tree]).m == 2 * (k5.n - 1)


def test_union_rejects_mismatched_sizes():
    a = sample_trees(complete_graph(5), 1, seed=1)[0]
    b = sample_trees(complete_graph(6), 1, seed=1)[0]
    with pytest.raises(ValueError):
        union_trees([a, b])


def test_splice_of_tree_is_that_tree():
    g = path_graph(9)
    for k in (1, 2, 4):
        assert splice(g, k, seed=3) == g


def _assert_same(got, want):
    """Equal field by field, arrays in dtype and bytes, down to the trees."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    elif is_dataclass(want):
        for f in fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want


@pytest.mark.parametrize("n", [2, 3, 17, 129, 1024])
def test_splice_of_n_equals_splice_of_complete_graph(n):
    kn = complete_graph(n)
    for k in (1, 2, 3):
        for seed in (1, 7, 2**64 - 1):
            _assert_same(sample_trees(n, k, seed), sample_trees(kn, k, seed))
            _assert_same(splice(n, k, seed), splice(kn, k, seed))


def test_splices_of_k_n_by_n_are_memory_bounded():
    splice(8, 2, seed=0)
    tracemalloc.start()
    try:
        lams = spectral_lower_bounds([splice(1024, 2, seed=s) for s in range(12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Building complete_graph(1024) alone traced over 32 MiB.
    assert peak < 12 << 20
    assert (lams > 0.15).all()


def test_splice_covers_a_cycle():
    # At these seeds a walk on the 1024-cycle needed more steps than the
    # expander cap of 64 n ln(n), and splice raised SamplingError.
    g = cycle_graph(1024)
    for seed in (2, 3, 4):
        spl = splice(g, 2, seed)
        assert spl.is_connected() and spl.m in (g.n - 1, g.n)
        assert all(g.edge_id(u, v) is not None for u, v in spl.iter_edges())


def test_splice_support_bounds_and_connectivity():
    g = complete_graph(128)
    base = set(g.iter_edges())
    for s in range(5):
        spl = splice(g, 2, seed=s)
        assert g.n <= spl.m <= 2 * (g.n - 1)
        assert spl.is_connected()
        # Support is a subgraph of the base graph.
        assert all(e in base for e in spl.iter_edges())


def test_splice_max_degree_logarithmic():
    n = 512
    g = complete_graph(n)
    cap = 6 * math.log(n)
    for s in range(50):
        spl = splice(g, 2, seed=100 + s)
        assert spl.degrees.max() <= cap


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_multiplicity_accounting(seed, k):
    g = complete_graph(12)
    spl = splice(g, k, seed=seed)
    # k trees of n - 1 edges each, every base edge counted once however many trees hold it.
    assert g.n - 1 <= spl.m <= k * (g.n - 1)
    edges = set(spl.iter_edges())
    for tree in sample_trees(g, k, seed=seed):
        assert set(tree.edges()) <= edges


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
    assert n <= spl.m <= 2 * (n - 1) and spl.is_connected()
    assert spl == sparsify_gnp(h, p, seed=6).graph


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
        union_cut = len(cut_edges(spl, subset))
        for tree in sample_trees(g, 3, seed=9):
            tree_cut = len(cut_edges(union_trees([tree]), subset))
            assert union_cut >= tree_cut >= 1
