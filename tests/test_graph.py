import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplice.generators import (
    complete_graph,
    cycle_graph,
    direct_edges_dp,
    gnp_graph,
    hamiltonian_regular_graph,
    orientation_probabilities,
    arc_probability,
    random_regular_graph,
    star_graph,
)
from treesplice.graph import Graph, SamplingError, cut_edges


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="range"):
        Graph(3, [(0, 5)])


def test_adjacency_is_symmetric_and_degree_consistent():
    g = gnp_graph(40, 0.2, seed=11)
    for v in range(g.n):
        assert len(g.neighbors(v)) == g.degree(v)
        for w, eid in g.neighbors(v):
            assert (min(v, w), max(v, w)) == g.edge(eid)
            assert (v, eid) in [(x, e) for x, e in g.neighbors(w)] or any(
                x == v and e == eid for x, e in g.neighbors(w)
            )


def test_complete_graph_counts():
    assert complete_graph(2).m == 1
    g = complete_graph(4)
    assert g.m == 6
    assert set(g.degrees.tolist()) == {3}
    assert complete_graph(100).m == 4950
    with pytest.raises(ValueError):
        complete_graph(1)


def test_gnp_extremes():
    assert gnp_graph(50, 0.0, seed=1).m == 0
    g = gnp_graph(50, 1.0, seed=1)
    assert g.m == 50 * 49 // 2
    with pytest.raises(ValueError):
        gnp_graph(10, -0.1, seed=0)
    with pytest.raises(ValueError):
        gnp_graph(10, 1.5, seed=0)


def test_gnp_mean_edge_count_matches_binomial():
    n = 2000
    p = 10 * math.log(n) / n
    m_pairs = n * (n - 1) // 2
    counts = [gnp_graph(n, p, seed=s).m for s in range(100)]
    expect = m_pairs * p
    se_of_mean = math.sqrt(m_pairs * p * (1 - p) / len(counts))
    assert abs(np.mean(counts) - expect) <= 3 * se_of_mean


def test_random_regular_small_cases():
    g = random_regular_graph(4, 3, seed=7)
    assert g.m == 6  # K_4 is the only 3-regular graph on 4 vertices
    g2 = random_regular_graph(6, 2, seed=3)
    assert set(g2.degrees.tolist()) == {2}
    with pytest.raises(ValueError):
        random_regular_graph(5, 3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, seed=0)


def test_random_regular_connectivity_frequency():
    hits = sum(
        random_regular_graph(100, 3, seed=s).is_connected() for s in range(200)
    )
    assert hits >= 0.98 * 200


def test_generators_are_seed_deterministic():
    a = gnp_graph(60, 0.3, seed=42)
    b = gnp_graph(60, 0.3, seed=42)
    assert a == b
    assert gnp_graph(60, 0.3, seed=43) != a
    r1 = random_regular_graph(30, 3, seed=9)
    r2 = random_regular_graph(30, 3, seed=9)
    assert r1 == r2


def test_cut_edges_examples():
    k4 = complete_graph(4)
    assert len(cut_edges(k4, [1])) == 3
    c6 = cycle_graph(6)
    assert len(cut_edges(c6, [0, 1, 2])) == 2
    with pytest.raises(ValueError):
        cut_edges(k4, [])
    with pytest.raises(ValueError):
        cut_edges(k4, [0, 1, 2, 3])


def test_cut_edges_complement_symmetric():
    g = gnp_graph(24, 0.3, seed=5)
    subset = [0, 3, 7, 9]
    comp = [v for v in range(g.n) if v not in subset]
    assert cut_edges(g, subset).tolist() == cut_edges(g, comp).tolist()


def test_tree_cut_at_least_one():
    from treesplice.sampler import sample_trees
    from treesplice.splice import union_trees

    g = complete_graph(12)
    tree = sample_trees(g, 1, seed=3)[0]
    support = union_trees([tree]).support
    for subset in ([0], [1, 5], list(range(6))):
        assert len(cut_edges(support, subset)) >= 1


def test_orientation_probabilities_exact_values():
    both, fwd, bwd = orientation_probabilities(1.0)
    assert both == 1.0 and fwd == 0.0 and bwd == 0.0
    both, fwd, bwd = orientation_probabilities(0.75)
    assert abs(both - 1 / 3) < 1e-15
    assert abs(fwd - 1 / 3) < 1e-15
    assert fwd == bwd
    assert abs(arc_probability(0.75) - 0.5) < 1e-15
    p = 0.75
    q = arc_probability(p)
    assert p / 2 <= q <= p
    with pytest.raises(ValueError):
        orientation_probabilities(0.0)


def test_direct_edges_marginal_arc_frequency():
    # Arc frequency over G(n,p) orientations should match 1 - sqrt(1-p).
    n, p = 40, 0.6
    total_arcs = 0
    total_pairs = 0
    for s in range(150):
        h = gnp_graph(n, p, seed=1000 + s)
        d = direct_edges_dp(h, p, seed=2000 + s)
        total_arcs += d.n_arcs
        total_pairs += n * (n - 1)
    q = arc_probability(p)
    se = math.sqrt(q * (1 - q) / total_pairs)
    assert abs(total_arcs / total_pairs - q) <= 4 * se


def test_direct_edges_p1_is_both_directions():
    h = gnp_graph(12, 1.0, seed=0)
    d = direct_edges_dp(h, 1.0, seed=5)
    assert d.n_arcs == 2 * h.m
    assert set(d.out_degrees.tolist()) == {11}


def test_hamiltonian_regular_contains_cycle():
    g = hamiltonian_regular_graph(50, 3, seed=4)
    assert set(g.degrees.tolist()) == {3}
    for i in range(50):
        assert g.has_edge(i, (i + 1) % 50)


def test_star_graph_shape():
    g = star_graph(4)
    assert g.n == 5 and g.m == 4
    assert g.degree(0) == 4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(2, 30))
def test_gnp_edges_sorted_and_valid(seed, n):
    g = gnp_graph(n, 0.4, seed=seed)
    eu, ev = g.edge_u, g.edge_v
    assert (eu < ev).all()
    codes = eu.astype(np.int64) * n + ev
    assert len(np.unique(codes)) == g.m


def test_walk_step_cap_scales():
    g = complete_graph(16)
    cap = g.walk_step_cap()
    assert cap >= 64 * 16 * math.log(16)


def _union_find_components(n, edges):
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in range(n)})


def test_is_connected_matches_union_find_near_the_threshold():
    rng = np.random.default_rng(11)
    seen = set()
    for t in range(100):
        n = int(rng.integers(2, 60))
        # Mean degree around ln n: both outcomes are common.
        g = gnp_graph(n, float(rng.uniform(0.5, 1.5)) * math.log(n) / n, seed=t)
        parts = _union_find_components(n, g.iter_edges())
        assert g.is_connected() == (parts == 1)
        seen.add((parts == 1, bool((g.degrees == 0).any()), g.m >= n - 1))
    # Connected graphs, graphs with an isolated vertex, and disconnected
    # graphs with enough edges to span all occur.
    assert {(True, False, True), (False, True, True), (False, False, True)} <= seen
    # Two triangles: m = n, yet disconnected.
    assert not Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).is_connected()


def test_masked_adjacency_drops_failed_edges():
    from scipy.sparse.csgraph import connected_components

    g = gnp_graph(30, 0.3, seed=2)
    assert g.is_connected()
    few = np.random.default_rng(3).random(g.m) < 0.1
    kept = [e for e, k in zip(g.iter_edges(), few) if k]
    cases = [
        (np.ones(g.m, bool), 1),
        (np.zeros(g.m, bool), g.n),
        (few, _union_find_components(g.n, kept)),
    ]
    before = [a.tobytes() for a in g._csr]
    for keep, parts in cases:
        adj = g._adjacency(keep)
        assert adj.nnz == 2 * int(keep.sum())
        assert connected_components(adj, directed=False)[0] == parts
    assert connected_components(g._adjacency(), directed=False)[0] == 1
    assert [a.tobytes() for a in g._csr] == before


def test_isolated_vertex_walks_fail():
    from treesplice.sampler import aldous_broder

    g = Graph(3, [(0, 1)])
    with pytest.raises(SamplingError):
        aldous_broder(g, seed=1)
