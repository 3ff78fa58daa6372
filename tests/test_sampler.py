import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplice.generators import (
    complete_graph,
    cycle_graph,
    direct_edges_dp,
    gnp_graph,
    path_graph,
    petersen_graph,
    wheel_graph,
)
from treesplice import sampler
from treesplice.graph import DirectedGraph, Graph, SamplingError
from treesplice.sampler import (
    _OrientedWalk,
    _batch_cover_walks,
    aldous_broder,
    edge_inclusion_probability,
    process_bp,
    process_bp_on,
    sample_trees,
    sequential_two_trees_bp,
    tree_edge_frequencies,
)
from treesplice.seeds import child_seed, substream


def test_tree_invariants_on_random_graphs():
    for s in range(6):
        g = gnp_graph(25, 0.25, seed=700 + s)
        if not g.is_connected():
            continue
        tree, trace = aldous_broder(g, seed=s)
        tree.validate(g)
        assert trace.covered()
        # First-visit parents are consistent with the trace.
        verts = trace.vertices
        for v in range(g.n):
            fv = int(trace.first_visit[v])
            assert verts[fv] == v
            if v != tree.root:
                assert verts[fv - 1] == tree.parent[v]
        # Consecutive trace vertices are adjacent.
        for a, b in zip(verts[:-1], verts[1:]):
            assert g.has_edge(int(a), int(b))


def test_walking_a_tree_returns_it():
    g = path_graph(8)
    tree, _ = aldous_broder(g, seed=9)
    assert sorted(tree.edges()) == sorted(g.iter_edges())


def _descendants_by_parent_chains(tree) -> list[set[int]]:
    out = [set() for _ in range(tree.n)]
    for w in range(tree.n):
        v = w
        while v >= 0:
            out[v].add(w)
            v = int(tree.parent[v])
    return out


def test_dfs_intervals_slice_out_each_subtree():
    trees = [aldous_broder(path_graph(9), seed=1, start=4)[0]]
    trees += sample_trees(gnp_graph(30, 0.2, seed=5), 3, seed=6)
    trees += sample_trees(petersen_graph(), 2, seed=7)
    for tree in trees:
        order, tin, tout = tree.dfs_intervals()
        assert sorted(order.tolist()) == list(range(tree.n))
        assert (order[tin] == np.arange(tree.n)).all()
        for v, below in enumerate(_descendants_by_parent_chains(tree)):
            members = order[tin[v] : tout[v]]
            assert len(members) == len(below) and set(members.tolist()) == below
    # A parent chain that never reaches the root is rejected.
    looped = sampler.SpanningTree(0, np.array([-1, 2, 1]), np.array([-1, 0, 0]))
    with pytest.raises(ValueError, match="cycle"):
        looped.dfs_intervals()


def test_start_vertex_is_root_and_respected():
    g = complete_graph(6)
    tree, trace = aldous_broder(g, seed=2, start=4)
    assert tree.root == 4
    assert trace.vertices[0] == 4
    with pytest.raises(ValueError):
        aldous_broder(g, seed=2, start=6)


def test_k3_tree_frequencies_uniform():
    g = complete_graph(3)
    trials = 100_000
    res = _batch_cover_walks(
        g, trials, substream(5, "k3"), watch_edge_ids=np.arange(3)
    )
    _, counts = np.unique(res["masks"], return_counts=True)
    assert len(counts) == 3
    for c in counts:
        assert abs(c / trials - 1 / 3) <= 0.01


def test_edge_inclusion_probability_examples():
    assert edge_inclusion_probability(complete_graph(10), (0, 1), 100_000, seed=3) == pytest.approx(0.2, abs=0.01)
    assert edge_inclusion_probability(cycle_graph(5), 0, 100_000, seed=4) == pytest.approx(0.8, abs=0.01)
    # A bridge is in every spanning tree.
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert edge_inclusion_probability(g, (2, 3), 2_000, seed=5) == 1.0


def test_sample_trees_independent_streams_and_order():
    g = complete_graph(30)
    trees = sample_trees(g, 3, seed=42)
    again = sample_trees(g, 3, seed=42)
    for a, b in zip(trees, again):
        assert np.array_equal(a.parent, b.parent)
    assert not np.array_equal(trees[0].parent, trees[1].parent)
    one = sample_trees(g, 1, seed=42)[0]
    assert np.array_equal(one.parent, trees[0].parent)  # k=1 is the prefix


def test_two_independent_trees_differ_on_k64():
    g = complete_graph(64)
    differ = 0
    for s in range(1000):
        a, b = sample_trees(g, 2, seed=s)
        differ += sorted(a.edges()) != sorted(b.edges())
    assert differ / 1000 >= 0.999


def test_batch_walker_matches_marginals_of_single_walker():
    g = cycle_graph(6)
    trials = 60_000
    batch = tree_edge_frequencies(g, trials, seed=8)
    # Every cycle edge has inclusion probability (n-1)/n = 5/6.
    assert np.allclose(batch, 5 / 6, atol=0.01)


def test_cover_time_sanity_on_complete_graph():
    n = 64
    g = complete_graph(n)
    rng = substream(12, "cover-test")
    res = _batch_cover_walks(g, 400, rng, track_cover_steps=True)
    mean = float(res["cover_steps"].mean())
    target = n * sum(1 / i for i in range(1, n))
    assert target / 2 <= mean <= target * 2


def test_process_step_distribution_sums_to_one():
    g = gnp_graph(12, 0.7, seed=3)
    d = direct_edges_dp(g, 0.7, seed=4)
    walk = _OrientedWalk(d, seed=5, start=0)
    for _ in range(200):
        dist = walk.step_distribution()
        if not dist:
            break
        assert sum(dist) == Fraction(1)
        walk.step()


def test_process_step_probability_example():
    # d(v)=3 with one traversed arc on 5 vertices: old 1/4, new 3/8 each.
    d = direct_edges_dp(complete_graph(5), 1.0, seed=0)
    walk = _OrientedWalk(d, seed=1, start=0)
    walk.d1[0] = 1
    walk.targets[0] = walk.targets[0][:3]
    walk.srcs[0] = walk.srcs[0][:3]
    dist = walk.step_distribution()
    assert dist == [Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)]
    assert sum(dist) == 1


def test_process_bp_on_complete_graph_p1_succeeds():
    g = complete_graph(8)
    res = process_bp(g, 1.0, seed=7)
    assert res.success
    res.tree.validate(g)
    assert res.trace.covered()
    assert res.oriented.n_arcs == 2 * g.m


def test_process_bp_failure_reports_stuck_vertex():
    # Tiny host with sparse orientation: hunt a seed that strands the walk.
    g = path_graph(4)
    failed = None
    for s in range(200):
        res = process_bp(g, 0.4, seed=s)
        if not res.success:
            failed = res
            break
    assert failed is not None
    assert failed.tree is None
    assert failed.stuck_vertex is not None
    assert failed.steps_taken >= 0


def test_process_bp_rejects_bad_arguments():
    g = complete_graph(6)
    with pytest.raises(ValueError):
        process_bp(g, 0.0, seed=1)
    with pytest.raises(ValueError):
        process_bp(g, 0.5, seed=1, start=17)


def test_sequential_two_trees_both_span():
    g = complete_graph(32)
    res = sequential_two_trees_bp(g, 1.0, seed=11)
    assert res.success
    t1, t2 = res.trees
    t1.validate(g)
    t2.validate(g)
    assert res.steps_taken >= 2 * (g.n - 1)


def test_sequential_two_trees_success_rate_at_scale():
    import math

    n = 512
    p = 20 * math.log(n) / n
    ok = 0
    for s in range(100):
        host = gnp_graph(n, p, seed=6000 + s)
        ok += sequential_two_trees_bp(host, p, seed=7000 + s).success
    assert ok / 100 >= 0.85


def test_sequential_two_trees_failure_reports_phase():
    g = path_graph(5)
    seen_phase = None
    for s in range(300):
        res = sequential_two_trees_bp(g, 0.4, seed=s)
        if not res.success:
            seen_phase = res.failed_phase
            break
    assert seen_phase in (1, 2)


def test_disconnected_graph_trips_step_cap():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(SamplingError, match="cover"):
        aldous_broder(g, seed=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(8, 20))
def test_aldous_broder_always_yields_valid_tree(seed, n):
    g = complete_graph(n)
    tree, _ = aldous_broder(g, seed=seed)
    tree.validate(g)
    assert len(tree.edges()) == n - 1


def test_exchangeable_tree_indices_chi_square():
    import scipy.stats as stats
    from treesplice.verify import tree_mask_in_complete

    g = complete_graph(4)
    first, second = [], []
    for s in range(3000):
        a, b = sample_trees(g, 2, seed=s)
        first.append(tree_mask_in_complete(4, a))
        second.append(tree_mask_in_complete(4, b))
    cells = sorted(set(first) | set(second))
    idx = {c: i for i, c in enumerate(cells)}
    table = np.zeros((2, len(cells)))
    for m in first:
        table[0, idx[m]] += 1
    for m in second:
        table[1, idx[m]] += 1
    _, pval, _, _ = stats.chi2_contingency(table)
    assert pval > 0.01


def _batch_digest(res: dict) -> str:
    h = hashlib.sha256()
    for key in ("edge_counts", "masks", "cut_counts", "cover_steps"):
        h.update(np.ascontiguousarray(res[key]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "graph, digest",
    [
        (petersen_graph(), "69b8d16fe3d5b2e31e14bc22547e59111d4580f4fcab770ce779e4cefa24faf7"),
        (wheel_graph(8), "670466b3c26bcb4e68b90614d342d0ea88740d8597a67be1950bb18bc4438887"),
    ],
)
def test_uniform_rule_output_is_unchanged_below_one_chunk(graph, digest):
    # Digests from the engine as it was with a fixed 2^18-walk chunk.
    res = _batch_cover_walks(
        graph, 5000, substream(7, "batch-identity"), start=1, edge_counts=True,
        watch_edge_ids=np.arange(graph.m), cut_edge_ids=[0, 3, 5],
        track_cover_steps=True,
    )
    assert _batch_digest(res) == digest


def test_small_budget_splits_walks_into_chunks(monkeypatch):
    # Room for about a hundred walks per chunk.
    monkeypatch.setattr(sampler, "_BATCH_BYTES", 20_000)
    uniform = petersen_graph()
    oriented = direct_edges_dp(complete_graph(5), 1.0, seed=2)
    for graph in (uniform, oriented):
        res = _batch_cover_walks(
            graph, 1000, substream(3, "chunks"), track_cover_steps=True
        )
        steps = res["cover_steps"]
        assert steps.shape == (1000,)
        covered = ~res.get("stuck", np.zeros(1000, dtype=bool))
        assert (steps[covered] >= graph.n - 1).all()


def _oriented_outcomes(oriented, trials, seed):
    """Scalar, then 10x as many batched, walk outcomes: tree mask, or -1 if stuck."""
    scalar = []
    for t in range(trials):
        res = process_bp_on(oriented, child_seed(seed, "scalar", t))
        ids = res.tree.edge_ids().tolist() if res.success else None
        scalar.append(sum(1 << e for e in ids) if ids is not None else -1)
    m = int(oriented.source_eids.max()) + 1
    batch = _batch_cover_walks(
        oriented, 10 * trials, substream(seed, "batch"), watch_edge_ids=np.arange(m)
    )
    keys = batch["masks"].astype(np.int64)
    keys[batch["stuck"]] = -1
    return np.array(scalar), keys


@pytest.mark.parametrize("p", [1.0, 0.6])
def test_oriented_rule_tree_law_matches_scalar_walk_on_k4(p):
    # At p=1 every arc is present, so each step is uniform over n-1 arcs and
    # all 16 trees occur.  At p=0.6 every out-degree is 2 < n-1, so the
    # 1/(n-1) weight of traversed arcs shapes the law, stuck walks included.
    oriented = direct_edges_dp(complete_graph(4), p, seed=21)
    assert oriented.n_arcs == (12 if p == 1.0 else 8)
    scalar, batch = _oriented_outcomes(oriented, 3000, seed=22)
    cells = np.union1d(scalar, batch)
    if p == 1.0:
        assert np.setdiff1d(cells, [-1]).size == 16
    table = np.array([[np.count_nonzero(x == c) for c in cells] for x in (scalar, batch)])
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 1e-3


def test_oriented_rule_stuck_rate_matches_scalar_walk():
    # Arcs 0->1, 1->2, 2->3, 1->0, 2->1: walks that turn back strand at 0.
    oriented = direct_edges_dp(path_graph(4), 0.4, seed=25)
    assert oriented.n_arcs == 5
    scalar, batch = _oriented_outcomes(oriented, 2000, seed=26)
    p1 = float(np.mean(scalar == -1))
    p2 = float(np.mean(batch == -1))
    pooled = (p1 * scalar.size + p2 * batch.size) / (scalar.size + batch.size)
    se = math.sqrt(pooled * (1 - pooled) * (1 / scalar.size + 1 / batch.size))
    assert 0.2 < p2 < 0.9
    assert abs(p1 - p2) <= 4 * se


def test_oriented_rule_reports_a_start_without_arcs_as_stuck():
    oriented = DirectedGraph(3, [1], [2], [0])
    res = _batch_cover_walks(
        oriented, 5, substream(1, "sink"), track_cover_steps=True
    )
    assert res["stuck"].all()
    assert (res["cover_steps"] == 0).all()


def test_oriented_rule_iteration_cap_raises(monkeypatch):
    oriented = direct_edges_dp(complete_graph(6), 1.0, seed=3)
    monkeypatch.setattr(DirectedGraph, "walk_step_cap", lambda self: 2)
    with pytest.raises(SamplingError, match="did not cover"):
        _batch_cover_walks(oriented, 10, substream(1, "cap"))
