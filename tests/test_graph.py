import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplice import generators
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    direct_edges_dp,
    gnp_graph,
    hamiltonian_regular_graph,
    orientation_probabilities,
    path_graph,
    random_regular_graph,
)
from treesplice.graph import Graph, Orientation, SamplingError, _packed_rows, cut_edges
from treesplice.seeds import substream


def neighbors(g, v):
    """(neighbour, edge id) pairs of v, in ``_csr`` row order."""
    indptr, nbr, eid = g._csr
    lo, hi = indptr[v], indptr[v + 1]
    return list(zip(nbr[lo:hi].tolist(), eid[lo:hi].tolist()))


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="range"):
        Graph(3, [(0, 5)])
    for edges in ([(0, 1.5), (1, 2)], [(0, None)]):
        with pytest.raises(ValueError, match="edges must be pairs of vertex ids"):
            Graph(3, edges)


def test_graph_rejects_endpoints_beyond_its_int32_edge_arrays():
    # Cast to int32 unchecked, the edge (0, 2^32 + 1) would read back as (0, 1).
    for n, edge in ((2**33, (0, 2**32 + 1)), (2**40, (5, 2**33)), (2**31 + 1, (0, 2**31))):
        with pytest.raises(ValueError, match=r"below 2\^31"):
            Graph(n, [edge])
    assert Graph(2**31, [(0, 2**31 - 1)]).edge(0) == (0, 2**31 - 1)


def test_adjacency_is_symmetric_and_degree_consistent():
    g = gnp_graph(40, 0.2, seed=11)
    for v in range(g.n):
        assert len(neighbors(g, v)) == g.degrees[v]
        for w, eid in neighbors(g, v):
            assert (min(v, w), max(v, w)) == g.edge(eid)
            assert (v, eid) in [(x, e) for x, e in neighbors(g, w)] or any(
                x == v and e == eid for x, e in neighbors(g, w)
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


def test_resolve_edge_reads_ids_and_pairs():
    k4 = complete_graph(4)
    assert k4.resolve_edge(2) == 2
    assert k4.resolve_edge((0, 1)) == k4.resolve_edge([1, 0]) == k4.edge_id(0, 1)
    with pytest.raises(ValueError, match="out of range"):
        k4.resolve_edge(6)
    with pytest.raises(ValueError, match="not an edge"):
        k4.resolve_edge((0, 9))
    with pytest.raises(ValueError, match="not an edge"):
        path_graph(4).resolve_edge((0, 2))


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
    support = union_trees([tree])
    for subset in ([0], [1, 5], list(range(6))):
        assert len(cut_edges(support, subset)) >= 1


def test_orientation_probabilities_exact_values():
    both, fwd, bwd = orientation_probabilities(1.0)
    assert both == 1.0 and fwd == 0.0 and bwd == 0.0
    both, fwd, bwd = orientation_probabilities(0.75)
    assert abs(both - 1 / 3) < 1e-15
    assert abs(fwd - 1 / 3) < 1e-15
    assert fwd == bwd
    # Over H ~ G(n, p), a fixed arc is present with q = 1 - sqrt(1 - p).
    assert abs(0.75 * (both + fwd) - (1 - math.sqrt(1 - 0.75))) < 1e-15
    with pytest.raises(ValueError):
        orientation_probabilities(0.0)


@pytest.mark.parametrize("p", [1e-12, 1e-8, 1e-4, 0.069, 0.5, 0.75, 1.0])
def test_orientation_probabilities_are_accurate_at_every_p(p):
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        P = Decimal(p)
        s = (1 - P).sqrt()
        want_both = float((2 - P - 2 * s) / P)
        want_single = float((P + s - 1) / P)
        want_arc = float(1 - s)
    both, fwd, bwd = orientation_probabilities(p)
    assert fwd == bwd
    assert both == pytest.approx(want_both, rel=1e-14, abs=0)
    assert fwd == pytest.approx(want_single, rel=1e-14, abs=0)
    assert p * (both + fwd) == pytest.approx(want_arc, rel=1e-14, abs=0)


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
    q = 1 - math.sqrt(1 - p)
    se = math.sqrt(q * (1 - q) / total_pairs)
    assert abs(total_arcs / total_pairs - q) <= 4 * se


def test_direct_edges_p1_is_both_directions():
    h = gnp_graph(12, 1.0, seed=0)
    d = direct_edges_dp(h, 1.0, seed=5)
    assert d.n_arcs == 2 * h.m
    assert set(d.out_degrees.tolist()) == {11}


@pytest.mark.parametrize("p", [0.3, 0.8])
def test_orientation_rows_are_the_base_rows_filtered_in_order(p):
    g = gnp_graph(30, 0.4, seed=3)
    d = direct_edges_dp(g, p, seed=4)
    indptr, heads, eids = d._csr
    rows = [
        list(zip(heads[lo:hi].tolist(), eids[lo:hi].tolist()))
        for lo, hi in zip(indptr[:-1], indptr[1:])
    ]
    fwd, bwd = d.forward.tolist(), d.backward.tolist()
    want = [
        [(w, e) for w, e in neighbors(g, v) if (fwd[e] if w > v else bwd[e])]
        for v in range(g.n)
    ]
    assert rows == want
    assert d.out_degrees.tolist() == [len(r) for r in want]
    assert d.n_arcs == sum(fwd) + sum(bwd) == heads.size
    assert 0 < sum(fwd) < g.m and 0 < sum(bwd) < g.m


def test_orientation_at_p1_keeps_every_base_row_whole():
    g = gnp_graph(25, 0.5, seed=6)
    d = direct_edges_dp(g, 1.0, seed=7)
    for got, base in zip(d._csr, g._csr):
        assert np.array_equal(got, base)


def test_orientation_rejects_masks_of_the_wrong_length():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="one entry per edge"):
        Orientation(g, [True], [True, False])
    with pytest.raises(ValueError, match="one entry per edge"):
        Orientation(g, [True, True], [True, False, False])
    with pytest.raises(ValueError, match="one entry per edge"):
        Orientation(g, [[True, True]], [[True, False]])


def test_hamiltonian_regular_contains_cycle():
    g = hamiltonian_regular_graph(50, 3, seed=4)
    assert set(g.degrees.tolist()) == {3}
    for i in range(50):
        assert g.edge_id(i, (i + 1) % 50) is not None


def _gnp_all_pairs(n, p, seed):
    """G(n, p) as built before the chunked draws: every pair of
    ``triu_indices`` and one double per pair, all at once."""
    iu, iv = np.triu_indices(n, k=1)
    if p >= 1.0:
        keep = np.ones(iu.shape, dtype=bool)
    elif p <= 0.0:
        keep = np.zeros(iu.shape, dtype=bool)
    else:
        keep = substream(seed, "gnp").random(iu.shape[0]) < p
    return Graph(n, np.column_stack([iu[keep], iv[keep]]))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 3001])
def test_gnp_equals_the_all_pairs_construction(n, p):
    # n = 3001 has 4.5M pairs, so its draws span nine chunks of 2^19.
    for seed in (1,) if n > 1000 else (1, 2, 2**64 - 1):
        assert gnp_graph(n, p, seed) == _gnp_all_pairs(n, p, seed)


def test_gnp_chunk_seams(monkeypatch):
    # An odd chunk puts seams everywhere in a row; 45 vertices have 990
    # pairs, one chunk, and 46 have 1035, two.
    monkeypatch.setattr(generators, "_BLOCK_BYTES", 8 * 1001)
    for n in (2, 45, 46, 64, 1000):
        for p in (0.0, 0.05, 0.5, 1.0):
            for seed in (1, 7):
                assert gnp_graph(n, p, seed) == _gnp_all_pairs(n, p, seed)


def test_gnp_draws_are_memory_bounded():
    n = 4096
    tracemalloc.start()
    try:
        g = gnp_graph(n, 10 * math.log(n) / n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One chunk of 2^19 doubles is 4 MiB; all pairs at once traced 200 MiB.
    assert peak < 24 << 20
    assert 0.9 < g.m / (10 * math.log(n) * (n - 1) / 2) < 1.1


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


@pytest.mark.parametrize("n", [6, 1024])
def test_oriented_walk_cap_is_derived_and_clamped(n):
    # At least the old 64 n bit_length(n), so a walk that stopped before
    # stops at the same step; 40 n_arcs (n - 1) from the new-arc bound.
    # G(6, 1) is K_6.
    p = 1.0 if n == 6 else 20 * math.log(n) / n
    o = generators.direct_edges_dp(generators.gnp_graph(n, p, seed=3), p, seed=4)
    cap = o.walk_step_cap()
    assert 64 * n * n.bit_length() <= cap < 1 << 62
    assert cap == max(64 * n * n.bit_length(), 40 * o.n_arcs * (n - 1))


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


def test_packed_rows_hold_each_neighbour_once():
    for g in (gnp_graph(65, 0.3, seed=65), complete_graph(129), cycle_graph(200)):
        rows = _packed_rows(g)
        assert rows.shape == (g.n, 8 * -(-g.n // 64))
        bits = np.unpackbits(rows, axis=1, bitorder="little")[:, : g.n]
        want = np.zeros((g.n, g.n), dtype=np.uint8)
        want[g.edge_u, g.edge_v] = want[g.edge_v, g.edge_u] = 1
        assert np.array_equal(bits, want)
        words = rows.view("<u8")
        assert words.shape == (g.n, -(-g.n // 64))
        assert np.array_equal(np.bitwise_count(words).sum(axis=1), g.degrees)


@pytest.mark.parametrize("n", [256, 257, 65536, 65537])
def test_csr_rows_equal_the_int32_stable_argsort(n):
    # A path through the vertices in random order, its edges listed in
    # random order, so that equal keys meet in an order a sort could lose.
    # n - 1 takes 8 bits at 256, 16 bits at 257 and 65536, 32 bits at 65537.
    rng = np.random.default_rng(n)
    walk = rng.permutation(n)
    g = Graph(n, np.column_stack([walk[:-1], walk[1:]])[rng.permutation(n - 1)])
    ends = np.concatenate([g.edge_u, g.edge_v]).astype(np.int32)
    order = np.argsort(ends, kind="stable")
    indptr, nbr, eid = g._csr
    assert np.array_equal(indptr[1:], np.cumsum(np.bincount(ends, minlength=n)))
    assert np.array_equal(nbr, np.concatenate([g.edge_v, g.edge_u])[order])
    assert np.array_equal(eid, np.tile(np.arange(g.m, dtype=np.int32), 2)[order])
    assert (nbr.dtype, eid.dtype) == (np.int32, np.int32)
