import dataclasses
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from treesplice import routing
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
)
from treesplice.graph import Graph
from treesplice.routing import (
    ReliabilitySummary,
    build_routing,
    reliability_experiment,
    route,
    stretch_stats,
)
from treesplice.sampler import sample_trees
from treesplice.seeds import below, child_seed, substream, word_stream
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
    g = Graph(6, [(0, i) for i in range(1, 6)])
    state = build_routing(sample_trees(g, 1, seed=2))
    for dst in range(1, 6):
        for leaf in range(1, 6):
            if leaf != dst:
                assert state.next_hop(0, leaf, dst) == 0


def _tree_adjacency(tree) -> list[list[int]]:
    """Per vertex, its neighbours in the tree."""
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    return adj


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
            adj = _tree_adjacency(tree)
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
    dist = _bfs_rows(_tree_adjacency(trees[0]))
    for src, dst in ((0, 19), (3, 7), (11, 2)):
        r = route(state, src, dst)
        assert r.delivered
        assert r.hops == dist[src][dst]
        assert r.hops <= g.n - 1
        assert r.switches == 0


def test_route_fails_over_to_second_tree():
    g = complete_graph(32)
    trees = sample_trees(g, 2, seed=5)
    # Kill tree 0 while leaving tree 1 intact (shared edges stay alive).
    dead = frozenset(set(trees[0].edges()) - set(trees[1].edges()))
    state = build_routing(trees, dead)
    hits = 0
    for dst in range(1, 12):
        r = route(state, 0, dst, seed=dst)
        assert r.delivered
        for a, b in zip(r.path[:-1], r.path[1:]):
            assert (min(a, b), max(a, b)) not in dead
        hits += r.switches >= 1
    assert hits >= 1


def test_failed_edges_block_in_either_orientation_and_container():
    trees = sample_trees(path_graph(4), 1, seed=1)
    for failed in (
        {(3, 2)},
        [(3, 2)],
        frozenset({(2, 3)}),
        ((2, 3),),
        [[2, 3]],
        [[3, 2]],
        np.array([[2, 3]]),
        np.array([[3, 2]], dtype=np.int32),
        [np.array([3, 2])],
        [(np.int64(2), 3)],
        [(2, 3), (3, 2), (2, 3)],
    ):
        r = route(build_routing(trees, failed), 0, 3)
        assert not r.delivered and r.path == (0, 1, 2), failed
    assert route(build_routing(trees, {(1, 3)}), 0, 3).delivered
    assert route(build_routing(trees, np.array([[1, 3]])), 0, 3).delivered


@pytest.mark.parametrize(
    "entry",
    [(1,), (1, 2, 3), 2, 1.5, "ab", (1.0, 2.0), (None, 2), (0, 4), (-1, 0), np.array([1, 2, 3])],
)
def test_malformed_failed_edge_raises_value_error(entry):
    trees = sample_trees(path_graph(4), 1, seed=1)
    with pytest.raises(ValueError, match="failed edge"):
        build_routing(trees, [(0, 1), entry])


@pytest.mark.parametrize(
    "graph", [complete_graph(24), gnp_graph(40, 0.3, seed=28)], ids=["k24", "gnp40"]
)
def test_failed_pairs_flag_the_tree_edges_of_failed_edge_ids(graph):
    trees = sample_trees(graph, 3, seed=38)
    for failure_prob in (0.0, 0.3, 1.0):
        mask = substream(39, "failures").random(graph.m) < failure_prob
        failed = np.column_stack((graph.edge_u[mask], graph.edge_v[mask]))
        # A root's parent edge id -1 reads the appended alive entry.
        want = tuple(np.append(mask, False)[tree.parent_edge].tolist() for tree in trees)
        for pairs in (failed, failed[:, ::-1], np.concatenate([failed, failed[::-1, ::-1]])):
            assert build_routing(trees, pairs).up_dead == want


def test_route_blocked_at_source_fails_isolated():
    g = complete_graph(8)
    dead = frozenset(
        (min(0, w), max(0, w)) for w in range(1, 8)
    )  # every edge at vertex 0
    r = route(build_routing(sample_trees(g, 2, seed=6), dead), 0, 5, seed=1)
    assert not r.delivered
    assert r.hops == 0


def test_route_rejects_bad_inputs():
    g = complete_graph(6)
    state = build_routing(sample_trees(g, 1, seed=7))
    with pytest.raises(ValueError):
        route(state, 2, 2)
    with pytest.raises(ValueError):
        route(state, 0, 3, hop_cap=0)


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
    (s0,) = reliability_experiment(g, (2,), 0.0, pairs=30, trials=3, seed=9)
    assert s0.delivered_fraction == 1.0
    (s1,) = reliability_experiment(g, (2,), 1.0, pairs=30, trials=3, seed=10)
    assert s1.delivered_fraction == 0.0
    assert s1.ceiling_fraction == 0.0


def test_reliability_delivery_below_ceiling_per_trial():
    g = complete_graph(48)
    (summary,) = reliability_experiment(g, (2,), 0.2, pairs=60, trials=8, seed=11)
    assert summary.delivered.shape == summary.ceiling.shape == (8,)
    assert (summary.delivered <= summary.ceiling + 1e-12).all()
    rows = summary.csv_rows(seed=11)
    assert len(rows) == 8
    assert {"seed", "trial", "failure_prob", "delivered_fraction"} <= set(rows[0])


def _route_reference(state, src, dst, dead, seed):
    """``route`` as it stood with an eager route stream: (delivered, hops, switches)."""
    word = word_stream(substream(seed, "route"), size=16)
    cur, tree, hops, switches = src, 0, 0, 0
    visited = {(src, 0)}
    while cur != dst:
        if hops >= 4 * state.n:
            return False, hops, switches
        rest = [t for t in range(state.k) if t != tree]
        for i in range(len(rest) - 1, 0, -1):
            j = below(word, i + 1)
            rest[i], rest[j] = rest[j], rest[i]
        for t in [tree] + rest:
            nh = state.next_hop(t, cur, dst)
            if (cur, nh) in dead or (nh, cur) in dead or (nh, t) in visited:
                continue
            switches += t != tree
            tree = t
            visited.add((nh, t))
            cur = nh
            hops += 1
            break
        else:
            return False, hops, switches
    return True, hops, switches


def _reliability_reference(graph, k, failure_prob, pairs, trials, seed):
    """The trial loop with every failed base edge, eager route streams and
    undirected components."""
    n = graph.n
    results = np.zeros((4, trials))
    for t in range(trials):
        state = build_routing(sample_trees(graph, k, child_seed(seed, "splice", t)))
        fail_mask = substream(seed, "failures", t).random(graph.m) < failure_prob
        dead = frozenset(
            (int(u), int(v)) for u, v in zip(graph.edge_u[fail_mask], graph.edge_v[fail_mask])
        )
        p_rng = substream(seed, "pairs", t)
        srcs = p_rng.integers(0, n, size=pairs)
        dsts = (srcs + p_rng.integers(1, n, size=pairs)) % n
        labels = csgraph.connected_components(graph._adjacency(~fail_mask), directed=False)[1]
        delivered = hop_total = switch_total = connected = 0
        for i in range(pairs):
            s, d = int(srcs[i]), int(dsts[i])
            connected += labels[s] == labels[d]
            ok, hops, switches = _route_reference(
                state, s, d, dead, child_seed(seed, "route", t, i)
            )
            if ok:
                delivered += 1
                hop_total += hops
                switch_total += switches
        results[:, t] = (
            delivered / pairs,
            float(connected) / pairs,
            hop_total / max(delivered, 1),
            switch_total / max(delivered, 1),
        )
    return ReliabilitySummary(failure_prob, *results)


def _same_summary(a, b) -> bool:
    """Equal failure probability and bit-equal trial arrays."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(ReliabilitySummary)
    )


@pytest.mark.parametrize(
    "graph", [complete_graph(24), gnp_graph(40, 0.3, seed=28)], ids=["k24", "gnp40"]
)
@pytest.mark.parametrize("failure_prob", [0.0, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reliability_matches_reference_trial_loop(graph, k, failure_prob):
    assert graph.is_connected()
    args = (failure_prob, 40, 3, 29)
    (got,) = reliability_experiment(graph, (k,), *args)
    assert _same_summary(got, _reliability_reference(graph, k, *args))


@pytest.mark.parametrize(
    "graph", [complete_graph(24), gnp_graph(40, 0.3, seed=28)], ids=["k24", "gnp40"]
)
@pytest.mark.parametrize("failure_prob", [0.2, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_route_matches_reference_on_every_pair(graph, k, failure_prob):
    n = graph.n
    fail_mask = substream(41, "failures", k).random(graph.m) < failure_prob
    dead = {
        (int(u), int(v)) for u, v in zip(graph.edge_u[fail_mask], graph.edge_v[fail_mask])
    }
    state = build_routing(sample_trees(graph, k, seed=40 + k), dead)
    longest = None
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            r = route(state, s, d, seed=s * n + d)
            ref = _route_reference(state, s, d, dead, s * n + d)
            assert (r.delivered, r.hops, r.switches) == ref, (s, d)
            assert len(r.path) == r.hops + 1 and r.path[0] == s
            assert r.path[-1] == d or not r.delivered
            if r.delivered and (longest is None or r.hops > longest[2].hops):
                longest = (s, d, r)
    s, d, full = longest
    assert full.hops >= 2
    capped = route(state, s, d, hop_cap=full.hops - 1, seed=s * n + d)
    assert not capped.delivered
    assert capped.hops == full.hops - 1
    assert capped.path == full.path[:-1]


@pytest.mark.parametrize("ks", [(1, 2), (1, 3)])
def test_shared_trial_loop_matches_separate_calls(ks):
    g = gnp_graph(40, 0.3, seed=28)
    args = (0.3, 30, 4, 33)
    shared = reliability_experiment(g, ks, *args)
    assert len(shared) == len(ks)
    for k, summary in zip(ks, shared):
        (alone,) = reliability_experiment(g, (k,), *args)
        assert _same_summary(summary, alone)
    # A shared trial routes every k over the same failures, pairs and ceiling.
    assert np.array_equal(shared[0].ceiling, shared[1].ceiling)


def test_reliability_routes_through_the_public_kernel(monkeypatch):
    routes, states = [], []
    real_route, real_build = routing.route, routing.build_routing

    def counted_route(state, *args, **kwargs):
        # Each k routes over a prefix of the trial's one built state.
        built = states[-1]
        for name in ("parent", "tin", "tout", "children", "up_dead"):
            assert getattr(state, name) == getattr(built, name)[: state.k], name
        routes.append(state.k)
        return real_route(state, *args, **kwargs)

    def counted_build(*args, **kwargs):
        states.append(real_build(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(routing, "route", counted_route)
    monkeypatch.setattr(routing, "build_routing", counted_build)
    ks, pairs, trials = (1, 3), 15, 2
    reliability_experiment(gnp_graph(30, 0.3, seed=28), ks, 0.2, pairs, trials, seed=37)
    assert [s.k for s in states] == [max(ks)] * trials
    assert routes == [k for _ in range(trials) for k in ks for _ in range(pairs)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_route_seeds_are_derived_only_when_failover_shuffles(monkeypatch, k):
    derived = []

    def counting(fn, kind):
        def wrapped(seed, *path):
            if path and path[0] == "route":
                derived.append(kind)
            return fn(seed, *path)

        return wrapped

    monkeypatch.setattr(routing, "child_seed", counting(routing.child_seed, "seed"))
    monkeypatch.setattr(routing, "substream", counting(routing.substream, "stream"))
    pairs, trials = 25, 3
    reliability_experiment(complete_graph(20), (k,), 0.2, pairs, trials, seed=34)
    per_pair = 1 if k == 3 else 0
    assert derived.count("seed") == derived.count("stream") == per_pair * pairs * trials
    derived.clear()
    state = build_routing(sample_trees(complete_graph(20), k, seed=35), [(0, 1)])
    route(state, 0, 7, seed=36)
    assert derived == ["stream"] * per_pair


def test_three_tree_route_is_pinned():
    # k = 3 is the smallest k whose failover shuffles, so the only one that
    # reads the route stream.
    g = complete_graph(24)
    failed = [(u, v) for u, v in g.iter_edges() if (u + 2 * v) % 3 == 0]
    state = build_routing(sample_trees(g, 3, seed=30), failed)
    r = route(state, 0, 4, seed=32)
    assert (r.delivered, r.hops, r.switches) == (True, 9, 4)
    assert r.path == (0, 20, 13, 12, 22, 23, 1, 18, 23, 4)
    assert not route(state, 0, 4, seed=31).delivered


def test_stretch_identity_is_exactly_one():
    # K_n as its own support: every pair is an edge, at distance 1.
    assert stretch_stats(40, complete_graph(40), pairs=200, seed=13) == (1.0, 1)


def test_stretch_of_single_tree_exceeds_one():
    mean, dia = stretch_stats(64, splice(64, 1, seed=14), pairs=500, seed=15)
    assert mean > 2.0
    assert dia >= 2


def test_stretch_requires_matching_vertex_sets():
    with pytest.raises(ValueError, match="vertex sets differ"):
        stretch_stats(10, complete_graph(12), pairs=5, seed=0)


def _graph_adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.iter_edges():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _stretch_reference(n: int, support: Graph, pairs: int, seed: int):
    """stretch_stats by plain BFS per pair in the support: same pair draws,
    distances in pair order; every pair of K_n is at distance 1."""
    rng = substream(seed, "stretch-pairs")
    srcs = rng.integers(0, n, size=pairs)
    dsts = (srcs + rng.integers(1, n, size=pairs)) % n
    d_sup = _bfs_rows(_graph_adjacency(support))
    ratios = [float(d_sup[s][d]) if d_sup[s][d] >= 0 else math.inf
              for s, d in zip(srcs.tolist(), dsts.tolist())]
    flat = [x for row in d_sup for x in row]
    return float(np.mean(ratios)), (None if min(flat) < 0 else max(flat))


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
        got = stretch_stats(base.n, spl, pairs, seed)
        assert got == _stretch_reference(base.n, spl, pairs, seed)
        assert stretch_stats(np.int64(base.n), spl, pairs, seed) == got


def test_stretch_above_diameter_cap_is_refused(monkeypatch):
    g = gnp_graph(60, 0.1, seed=3)
    monkeypatch.setattr(routing, "DIAMETER_MAX_N", 12)
    for support in (g, path_graph(13)):
        with pytest.raises(ValueError, match="up to n = 12"):
            stretch_stats(support.n, support, 500, 5)


@pytest.mark.parametrize(
    "support",
    [path_graph(50), Graph(12, [(0, i) for i in range(1, 12)]), path_graph(2)],
    ids=["path", "star", "n2"],
)
def test_stretch_reference_on_deep_and_shallow_trees(support):
    # A path rooted at one end has depth n - 1, six lifting levels deep.
    for seed, pairs in ((0, 1), (1, 300)):
        assert stretch_stats(support.n, support, pairs, seed) == _stretch_reference(
            support.n, support, pairs, seed
        )


def test_stretch_on_complete_graph_runs_no_bfs(monkeypatch):
    calls = []
    real = routing.csgraph.shortest_path

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(routing.csgraph, "shortest_path", counted)
    for k in (1, 2):
        stretch_stats(64, splice(64, k, seed=25), pairs=2000, seed=26)
    assert calls == []


def test_ball_growth_matches_all_sources_bfs_across_gather_blocks():
    g = gnp_graph(600, 0.5, seed=27)
    rows = g.n + 2 * g.m
    assert rows * 8 * -(-g.n // 64) > 2 * (4 << 20)  # at least 3 gather blocks
    # cycle(130): bits span three words; two components: unreached pairs read inf.
    for g, diameter in ((g, 2), (cycle_graph(130), 65), (_two_components(), None)):
        full = csgraph.shortest_path(g._adjacency(), method="D", unweighted=True)
        srcs, dsts = np.nonzero(~np.eye(g.n, dtype=bool))
        dist, got = routing._ball_pairs(g, srcs, dsts)
        assert np.array_equal(dist, full[srcs, dsts])
        assert got == diameter
        assert diameter is None or full.max() == diameter


def test_stretch_on_dense_support_is_memory_bounded():
    g = gnp_graph(1024, 0.5, seed=1)
    tracemalloc.start()
    try:
        assert stretch_stats(1024, g, 2000, 1)[1] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14.1 MiB with blocked ball growth; all-sources BFS on the support
    # peaked at 22.1 MiB, and unblocked growth gathers about 78 MiB of rows.
    assert peak < 18 << 20


def test_disconnected_support_has_infinite_stretch():
    mean, dia = stretch_stats(6, Graph(6, [(0, 1)]), pairs=50, seed=0)
    assert mean == math.inf
    assert dia is None
    # K_6 beside a 7-cycle, and a forest of two paths on the same vertex sets.
    g = _two_components()
    paths = [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 12)]
    for support in (g, Graph(13, paths)):
        for seed, pairs in ((0, 5), (1, 400)):
            got = stretch_stats(13, support, pairs, seed)
            assert got == _stretch_reference(13, support, pairs, seed)
            assert got[1] is None
