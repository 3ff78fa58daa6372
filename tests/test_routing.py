import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from treesplice import routing
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from treesplice.graph import Graph
from treesplice.routing import (
    _bfs_pairs,
    build_routing,
    reliability_experiment,
    route,
    stretch_stats,
)
from treesplice.sampler import sample_trees
from treesplice.seeds import substream
from treesplice.splice import splice


def test_path_tree_next_hops():
    g = path_graph(6)
    state = build_routing(sample_trees(g, 1, seed=1))
    for dst in range(6):
        for v in range(6):
            if v != dst:
                nh = state.next_hop(0, v, dst)
                assert nh == (v + 1 if v < dst else v - 1)


def test_star_tree_next_hop_is_center():
    g = star_graph(5)
    state = build_routing(sample_trees(g, 1, seed=2))
    for dst in range(1, 6):
        for leaf in range(1, 6):
            if leaf != dst:
                assert state.next_hop(0, leaf, dst) == 0


def _bfs_rows(adj: list[list[int]]) -> list[list[int]]:
    """All-pairs hop distances by plain BFS; -1 marks an unreachable vertex."""
    dist = []
    for a in range(len(adj)):
        row = [-1] * len(adj)
        row[a] = 0
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if row[w] < 0:
                    row[w] = row[x] + 1
                    queue.append(w)
        dist.append(row)
    return dist


def test_next_hop_is_a_tree_neighbour_one_step_closer():
    g = complete_graph(9)
    for k in (1, 2, 3):
        trees = sample_trees(g, k, seed=3)
        state = build_routing(trees)
        assert (state.k, state.n) == (k, g.n)
        for t, tree in enumerate(trees):
            adj = tree.adjacency()
            dist = _bfs_rows(adj)
            for dst in range(g.n):
                for v in range(g.n):
                    if v != dst:
                        nh = state.next_hop(t, v, dst)
                        assert nh in adj[v]
                        assert dist[nh][dst] == dist[v][dst] - 1


def test_route_without_failures_hits_tree_distance():
    g = complete_graph(20)
    trees = sample_trees(g, 1, seed=4)
    state = build_routing(trees)
    dist = _bfs_rows(trees[0].adjacency())
    for src, dst in ((0, 19), (3, 7), (11, 2)):
        r = route(state, src, dst)
        assert r.delivered
        assert r.hops == dist[src][dst]
        assert r.hops <= g.n - 1
        assert r.switches == 0


def test_route_fails_over_to_second_tree():
    g = complete_graph(32)
    spl = splice(g, 2, seed=5)
    state = build_routing(spl.source_trees)
    # Kill tree 0 while leaving tree 1 intact (shared edges stay alive).
    dead = frozenset(
        set(spl.source_trees[0].edges()) - set(spl.source_trees[1].edges())
    )
    hits = 0
    for dst in range(1, 12):
        r = route(state, 0, dst, failed=dead, seed=dst)
        assert r.delivered
        for a, b in zip(r.path[:-1], r.path[1:]):
            assert (min(a, b), max(a, b)) not in dead
        hits += r.switches >= 1
    assert hits >= 1


def test_failed_edges_block_in_either_orientation_and_container():
    state = build_routing(sample_trees(path_graph(4), 1, seed=1))
    for failed in ({(3, 2)}, [(3, 2)], frozenset({(2, 3)}), ((2, 3),)):
        r = route(state, 0, 3, failed=failed)
        assert not r.delivered and r.path == (0, 1, 2), failed
    assert route(state, 0, 3, failed={(1, 3)}).delivered


def test_route_blocked_at_source_fails_isolated():
    g = complete_graph(8)
    spl = splice(g, 2, seed=6)
    state = build_routing(spl.source_trees)
    dead = frozenset(
        (min(0, w), max(0, w)) for w in range(1, 8)
    )  # every edge at vertex 0
    r = route(state, 0, 5, failed=dead, seed=1)
    assert not r.delivered
    assert r.hops == 0


def test_route_rejects_bad_inputs():
    g = complete_graph(6)
    state = build_routing(sample_trees(g, 1, seed=7))
    with pytest.raises(ValueError):
        route(state, 2, 2)
    with pytest.raises(ValueError):
        route(state, 0, 3, hop_cap=0)
    with pytest.raises(ValueError):
        route(state, 0, 3, policy="bogus")


def test_round_robin_policy_also_delivers():
    g = complete_graph(16)
    spl = splice(g, 2, seed=8)
    state = build_routing(spl.source_trees)
    r = route(state, 0, 9, policy="round-robin")
    assert r.delivered


def test_route_hop_cap_aborts():
    g = complete_graph(16)
    state = build_routing(sample_trees(g, 1, seed=20))
    far = max(range(1, 16), key=lambda d: route(state, 0, d).hops)
    full = route(state, 0, far)
    capped = route(state, 0, far, hop_cap=full.hops - 1)
    assert not capped.delivered
    assert capped.hops == full.hops - 1


def test_reliability_extremes():
    g = complete_graph(24)
    s0 = reliability_experiment(g, 2, 0.0, pairs=30, trials=3, seed=9)
    assert s0.delivered_fraction == 1.0
    s1 = reliability_experiment(g, 2, 1.0, pairs=30, trials=3, seed=10)
    assert s1.delivered_fraction == 0.0
    assert s1.ceiling_fraction == 0.0


def test_reliability_delivery_below_ceiling_per_trial():
    g = complete_graph(48)
    summary = reliability_experiment(g, 2, 0.2, pairs=60, trials=8, seed=11)
    for t in summary.trials:
        assert t.delivered_fraction <= t.ceiling_fraction + 1e-12
    rows = summary.csv_rows(seed=11)
    assert len(rows) == 8
    assert {"seed", "trial", "failure_prob", "delivered_fraction"} <= set(rows[0])


def test_stretch_identity_is_exactly_one():
    g = gnp_graph(40, 0.3, seed=12)
    assert g.is_connected()
    mean, dia = stretch_stats(g, g, pairs=200, seed=13)
    assert mean == 1.0
    assert dia is not None and dia >= 1


def test_stretch_of_single_tree_exceeds_one():
    g = complete_graph(64)
    spl = splice(g, 1, seed=14)
    mean, dia = stretch_stats(g, spl, pairs=500, seed=15)
    assert mean > 2.0
    assert dia >= 2


def test_stretch_requires_matching_vertex_sets():
    with pytest.raises(ValueError):
        stretch_stats(complete_graph(10), complete_graph(12), pairs=5, seed=0)


def _graph_adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.iter_edges():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _stretch_reference(g: Graph, support: Graph, pairs: int, seed: int):
    """stretch_stats by plain BFS per pair: same pair draws, ratios in pair order."""
    rng = substream(seed, "stretch-pairs")
    srcs = rng.integers(0, g.n, size=pairs)
    dsts = (srcs + rng.integers(1, g.n, size=pairs)) % g.n
    d_base = _bfs_rows(_graph_adjacency(g))
    d_sup = _bfs_rows(_graph_adjacency(support))
    ratios = []
    for s, d in zip(srcs.tolist(), dsts.tolist()):
        if d_base[s][d] < 0:
            continue
        u = d_sup[s][d]
        ratios.append(u / d_base[s][d] if u >= 0 else math.inf)
    mean = float(np.mean(ratios)) if ratios else math.nan
    flat = [x for row in d_sup for x in row]
    return mean, (None if min(flat) < 0 else max(flat))


def _two_components() -> Graph:
    """K_6 on 0..5 beside a 7-cycle on 6..12: pairs across are disconnected."""
    edges = list(complete_graph(6).iter_edges())
    edges += [(u + 6, v + 6) for u, v in cycle_graph(7).iter_edges()]
    return Graph(13, edges)


@pytest.mark.parametrize(
    "base",
    [gnp_graph(60, 0.1, seed=3), random_regular_graph(50, 3, seed=4), cycle_graph(40)],
    ids=["gnp", "regular", "cycle"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_stretch_matches_plain_bfs_reference(base, k):
    assert base.is_connected()
    spl = splice(base, k, seed=21 + k)
    for seed, pairs in ((0, 1), (1, 7), (2, 600)):
        got = stretch_stats(base, spl, pairs, seed)
        assert got == _stretch_reference(base, spl.support, pairs, seed)


def test_stretch_reference_on_disconnected_base():
    g = _two_components()
    paths = [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 12)]
    forest = Graph(13, paths)
    for support in (g, forest):
        for seed, pairs in ((0, 5), (1, 400)):
            got = stretch_stats(g, support, pairs, seed)
            assert got == _stretch_reference(g, support, pairs, seed)
            assert got[1] is None


def test_stretch_reference_above_diameter_cap(monkeypatch):
    g = gnp_graph(60, 0.1, seed=3)
    two = _two_components()
    cases = [(g, splice(g, 2, seed=24).support), (two, two)]
    expected = [_stretch_reference(b, s, 500, 5)[0] for b, s in cases]
    monkeypatch.setattr(routing, "DIAMETER_MAX_N", 12)
    for (base, support), mean in zip(cases, expected):
        assert stretch_stats(base, support, 500, 5) == (mean, None)


def test_stretch_on_complete_graph_runs_one_bfs(monkeypatch):
    calls = []
    real = routing.csgraph.shortest_path

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(routing.csgraph, "shortest_path", counted)
    g = complete_graph(64)
    stretch_stats(g, splice(g, 2, seed=25), pairs=2000, seed=26)
    assert calls == [None]


def test_disconnected_support_has_infinite_stretch():
    mean, dia = stretch_stats(complete_graph(6), Graph(6, [(0, 1)]), pairs=50, seed=0)
    assert mean == math.inf
    assert dia is None


def test_pair_bfs_runs_sources_in_memory_bounded_blocks():
    n = 6000
    g = cycle_graph(n)
    tracemalloc.start()
    try:
        assert stretch_stats(g, g, 1500, 0) == (1.0, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20  # a dense row per distinct source peaked at 61 MiB
    rng = np.random.default_rng(7)
    srcs, dsts = rng.integers(0, n, size=(2, 1500))
    gap = np.abs(srcs - dsts)
    assert np.array_equal(_bfs_pairs(g._adjacency(), srcs, dsts), np.minimum(gap, n - gap))
