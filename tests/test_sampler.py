import hashlib
import math
import time
import tracemalloc

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
    random_regular_graph,
    wheel_graph,
)
from treesplice import sampler
from treesplice.graph import Graph, Orientation, SamplingError
from treesplice.sampler import (
    SpanningTree,
    _cover_walk_trees,
    _tree_edge_counts,
    _tree_masks,
    aldous_broder,
    process_bp,
    process_bp_on,
    sample_trees,
    tree_edge_frequencies,
)
from treesplice.lowerbound import lower_bound_family
from treesplice.seeds import WORDS, child_seed, substream, word_stream


def test_tree_invariants_on_random_graphs():
    for s in range(6):
        g = gnp_graph(25, 0.25, seed=700 + s)
        if not g.is_connected():
            continue
        tree, trace = aldous_broder(g, seed=s)
        tree.validate(g)
        assert (trace.first_visit >= 0).all()
        # First-visit parents are consistent with the trace.
        verts = trace.vertices
        for v in range(g.n):
            fv = int(trace.first_visit[v])
            assert verts[fv] == v
            if v != tree.root:
                assert verts[fv - 1] == tree.parent[v]
        # Consecutive trace vertices are adjacent.
        for a, b in zip(verts[:-1], verts[1:]):
            assert g.edge_id(int(a), int(b)) is not None


@pytest.mark.parametrize(
    "root, parent, parent_edge, n, message",
    [
        (0, [-1, 0, 1, 2], [-1, 0, 1, 2], 5, "vertex count mismatch"),
        (4, [-1, 0, 1, 2], [-1, 0, 1, 2], 4, "root out of range"),
        (1, [-1, 0, 1, 2], [-1, 0, 1, 2], 4, "root must have no parent"),
        (0, [-1, 0, 1, 2], [-1, 1, 1, 2], 4, "parent edge of 1 does not join it to 0"),
        (0, [-1, 0, 1, 2], [-1, 0, 3, 2], 4, "parent edge of 2 is not an edge id"),
        # Edge -1 would read the last edge, which does join 0 and 1 here.
        (0, [-1, 0], [-1, -1], 2, "parent edge of 1 is not an edge id"),
        (0, [-1, -1, 1, 2], [-1, -1, 1, 2], 4, "exactly one root expected"),
        (0, [-1, 2, 1, 2], [-1, 1, 1, 2], 4, "contains a cycle"),
    ],
    ids=[
        "vertex-count", "root-range", "root-parent", "parent-edge", "edge-range",
        "edge-minus-one", "two-roots", "cycle",
    ],
)
def test_tree_validate_rejects_each_broken_invariant(root, parent, parent_edge, n, message):
    # Edge i of path_graph(n) joins i and i + 1.
    tree = SpanningTree(root, np.array(parent), np.array(parent_edge))
    with pytest.raises(ValueError, match=message):
        tree.validate(path_graph(n))


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


def test_single_vertex_walk_takes_no_step():
    tree, trace = aldous_broder(Graph(1, []), seed=2)
    assert tree.root == 0 and trace.steps == 0
    for a, dtype in [(tree.parent, np.int32), (tree.parent_edge, np.int32),
                     (trace.vertices, np.int32), (trace.first_visit, np.int64)]:
        assert a.dtype == dtype
    assert tree.parent.tolist() == tree.parent_edge.tolist() == [-1]
    assert trace.vertices.tolist() == trace.first_visit.tolist() == [0]


def test_k3_tree_frequencies_uniform():
    g = complete_graph(3)
    trials = 100_000
    masks, _ = _tree_masks(g, trials, substream(5, "k3"), np.arange(3))
    _, counts = np.unique(masks, return_counts=True)
    assert len(counts) == 3
    for c in counts:
        assert abs(c / trials - 1 / 3) <= 0.01


def test_tree_masks_reject_ids_outside_the_edge_range():
    g = complete_graph(4)
    for graph in (g, direct_edges_dp(g, 0.5, seed=1)):
        for ids in ([-1], [0, g.m]):
            with pytest.raises(ValueError, match="edge ids"):
                _tree_masks(graph, 10, substream(1, "ids"), ids)


def test_edge_inclusion_probability_examples():
    g = complete_graph(10)
    assert tree_edge_frequencies(g, 100_000, seed=3)[g.resolve_edge((0, 1))] == pytest.approx(0.2, abs=0.01)
    g = cycle_graph(5)
    assert tree_edge_frequencies(g, 100_000, seed=4)[g.resolve_edge(0)] == pytest.approx(0.8, abs=0.01)
    # A bridge is in every spanning tree.
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert tree_edge_frequencies(g, 2_000, seed=5)[g.resolve_edge((2, 3))] == 1.0


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


def test_process_bp_on_complete_graph_p1_succeeds():
    g = complete_graph(8)
    assert direct_edges_dp(g, 1.0, seed=7).n_arcs == 2 * g.m
    res = process_bp(g, 1.0, seed=7)
    assert res.success
    (tree,) = res.trees
    tree.validate(g)
    assert res.steps_taken >= g.n - 1


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
    assert failed.trees == ()
    assert failed.stuck_vertex is not None
    assert failed.steps_taken >= 0


def test_oriented_walks_raise_at_the_orientation_step_cap(monkeypatch):
    # K_6 needs 5 steps to cover, and no vertex runs out of its 5 out-arcs
    # within 3 steps, so a cap of 2 is what stops the walk.
    monkeypatch.setattr(Orientation, "walk_step_cap", lambda self: 2)
    g = complete_graph(6)
    with pytest.raises(SamplingError, match="without cover"):
        process_bp(g, 1.0, seed=1)
    with pytest.raises(SamplingError, match="without cover"):
        process_bp_on(direct_edges_dp(g, 1.0, seed=3), seed=1)


def test_process_bp_on_leaves_the_orientation_unchanged():
    # Each call permutes its own copy of the out-arc rows, so a second walk
    # with the same seed repeats the first one exactly.
    oriented = direct_edges_dp(complete_graph(30), 0.6, seed=1)
    before = [a.tobytes() for a in oriented._csr]
    runs = [process_bp_on(oriented, seed=2, phases=2) for _ in range(2)]
    assert [a.tobytes() for a in oriented._csr] == before
    first, second = runs
    assert first.success and len(first.trees) == 2
    assert (second.success, second.stuck_vertex, second.steps_taken) == (
        first.success, first.stuck_vertex, first.steps_taken
    )
    for a, b in zip(first.trees, second.trees):
        assert a.root == b.root
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.parent_edge, b.parent_edge)


def test_process_bp_rejects_bad_arguments():
    g = complete_graph(6)
    with pytest.raises(ValueError):
        process_bp(g, 0.0, seed=1)
    for phases in (0, -1):
        with pytest.raises(ValueError, match="phases"):
            process_bp(g, 0.5, seed=1, phases=phases)


def test_sequential_two_trees_both_span():
    g = complete_graph(32)
    res = process_bp(g, 1.0, seed=11, phases=2)
    assert res.success
    t1, t2 = res.trees
    t1.validate(g)
    t2.validate(g)
    assert res.steps_taken >= 2 * (g.n - 1)


def test_sequential_two_trees_success_rate_at_scale():
    n = 512
    p = 20 * math.log(n) / n
    ok = 0
    for s in range(100):
        host = gnp_graph(n, p, seed=6000 + s)
        ok += process_bp(host, p, seed=7000 + s, phases=2).success
    assert ok / 100 >= 0.85


def test_sequential_two_trees_failure_reports_phase():
    g = path_graph(5)
    seen_phase = None
    for s in range(300):
        res = process_bp(g, 0.4, seed=s, phases=2)
        if not res.success:
            seen_phase = len(res.trees) + 1
            break
    assert seen_phase in (1, 2)


@pytest.mark.parametrize(
    "graph, p",
    [(complete_graph(7), 0.7), (gnp_graph(40, 0.2, seed=5), 1.0)],
    ids=["k7", "gnp40"],
)
def test_two_phase_walk_extends_the_one_phase_walk(graph, p):
    # The second phase continues the same walk, so its first phase is the
    # one-phase run: the same tree, or the same failure at the same vertex.
    # On G(40, 0.2) the walk rarely covers below p = 1; at p = 1 both
    # outcomes of phase 1 occur.
    outcomes = set()
    for s in range(40):
        one = process_bp(graph, p, seed=s)
        two = process_bp(graph, p, seed=s, phases=2)
        if one.success:
            first = two.trees[0]
            assert first.root == one.trees[0].root
            assert np.array_equal(first.parent, one.trees[0].parent)
            assert np.array_equal(first.parent_edge, one.trees[0].parent_edge)
            assert two.steps_taken >= one.steps_taken
            outcomes.add("covered" if two.success else "phase 2 stuck")
        else:
            assert not two.success and two.trees == ()
            assert two.stuck_vertex == one.stuck_vertex
            assert two.steps_taken == one.steps_taken
            outcomes.add("phase 1 stuck")
    assert "phase 1 stuck" in outcomes and len(outcomes) >= 2


class _WordList:
    """A generator stand-in whose raw 64-bit words are ``words``, in order."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def _reference_walk(graph, seed, start=0):
    """Aldous-Broder one step at a time: per step one word from the walk's
    substream, the exact rejection rule inline, first visits as it goes.
    Kept as the reference the block walk must reproduce byte for byte."""
    n = graph.n
    word = word_stream(sampler.substream(seed, "aldous-broder"))
    safe = WORDS - int(graph.degrees.max())
    nbrs = graph._neighbor_lists
    # slot[v]: position, in its parent's row, of the edge that first entered v.
    parent, slot, first_visit = [-1] * n, [-1] * n, [-1] * n
    first_visit[start] = 0
    trace = [start]
    unvisited = n - 1
    cap = graph.walk_step_cap()
    cur = start
    for step in range(1, cap):
        lst = nbrs[cur]
        d = len(lst)
        w = word()
        while w >= safe and w >= WORDS - WORDS % d:
            w = word()
        j = w % d
        nxt = lst[j]
        trace.append(nxt)
        if first_visit[nxt] < 0:
            first_visit[nxt] = step
            parent[nxt] = cur
            slot[nxt] = j
            unvisited -= 1
            if not unvisited:
                break
        cur = nxt
    else:
        raise SamplingError(f"walk did not cover within {cap} steps")
    indptr, _, eid = graph._csr
    parent_edge = eid[indptr[parent] + slot]
    parent_edge[start] = -1
    return start, [
        np.array(parent, np.int32),
        parent_edge,
        np.array(trace, np.int32),
        np.array(first_visit, np.int64),
    ]


def _walk_arrays(graph, seed, start):
    tree, trace = aldous_broder(graph, seed, start)
    return tree.root, [tree.parent, tree.parent_edge, trace.vertices, trace.first_visit]


def _assert_same_walk(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1], strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_TOP = WORDS - 1
# Where the top word goes into each walk's words: all of them are read
# before cover.  Petersen rejects it at every vertex (3 does not divide
# 2^64), the 4-regular graph accepts it everywhere, and the lower-bound
# family, with degrees 3, 4 and 5, rejects it at some vertices only.
_MIXED = lower_bound_family(300, 3, 2, 1)
_TOP_WORD_WALKS = {
    "petersen": (petersen_graph(), 0, [3, 4, 15]),
    "4-regular": (random_regular_graph(64, 4, seed=1), 0, [99, 100, 180]),
    "mixed-degree": (_MIXED.graph, _MIXED.start_vertex(), list(range(3, 700, 7))),
}


@pytest.mark.parametrize(
    "kernel", ["aldous-broder", "walk", "petersen", "4-regular", "mixed-degree"]
)
def test_kernels_reject_the_top_word_inline(monkeypatch, kernel):
    # Neither 3 (K_4's degree) nor a multiple of 5 (n - 1 on 6 vertices)
    # divides 2^64, so the word 2^64 - 1 is rejected and the walk must be
    # the one its remaining words give.  On the other graphs the block walk
    # must match the step loop on the same words, top words included.
    name = kernel if kernel == "walk" else "aldous-broder"
    words = substream(3, name).integers(0, 1 << 64, size=50_000, dtype=np.uint64)
    words = words.tolist()

    def feed(head):
        monkeypatch.setattr(sampler, "substream", lambda seed, name: _WordList(head))

    def run(head):
        feed(head + words)
        if kernel == "walk":
            res = process_bp_on(direct_edges_dp(complete_graph(6), 1.0, seed=2), 3, phases=2)
            return [t.parent_edge.tolist() for t in res.trees], res.steps_taken
        tree, trace = aldous_broder(complete_graph(4), 3)
        return tree.parent_edge.tolist(), trace.vertices.tolist()

    if kernel in ("aldous-broder", "walk"):
        assert run([_TOP]) == run([])
        return
    graph, start, at = _TOP_WORD_WALKS[kernel]
    topped = list(words)
    for i in at:
        topped[i] = _TOP
    feed(topped)
    got = _walk_arrays(graph, 3, start)
    feed(topped)
    want = _reference_walk(graph, 3, start)
    _assert_same_walk(got, want)
    assert len(want[1][2]) - 1 > max(at)
    feed([w for w in topped if w != _TOP])
    plain = _walk_arrays(graph, 3, start)
    # Every top word was dropped on Petersen and kept on the 4-regular graph.
    if kernel == "petersen":
        _assert_same_walk(got, plain)
    elif kernel == "4-regular":
        assert got[1][2].tobytes() != plain[1][2].tobytes()


def _disjoint_cycles(n: int) -> Graph:
    edges = list(cycle_graph(n).iter_edges())
    return Graph(2 * n, edges + [(u + n, v + n) for u, v in edges])


def test_disconnected_graph_walk_fails_fast():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(SamplingError, match="disconnected"):
        aldous_broder(g, seed=0)
    # Two disjoint 8000-cycles: walking to the step cap took 12.3 s.
    g = _disjoint_cycles(8000)
    t0 = time.perf_counter()
    with pytest.raises(SamplingError, match="disconnected"):
        aldous_broder(g, seed=0)
    assert time.perf_counter() - t0 < 1.0


def test_walks_cover_paths_and_cycles_within_the_cover_time_cap():
    # Each seed needs at least 64 n ln(n) (max / min degree) steps, the cap
    # that assumed an expander's cover time and made these walks raise.
    for g, seeds in ((path_graph(1024), (0, 6, 7)), (cycle_graph(1024), (0, 1, 5, 6, 7))):
        assert g.walk_step_cap() == 80 * g.m * (g.n - 1)
        ratio = int(g.degrees.max()) / int(g.degrees.min())
        for seed in seeds:
            tree, trace = aldous_broder(g, seed)
            tree.validate(g)
            assert trace.steps >= math.ceil(64 * g.n * math.log(g.n) * ratio)


def test_cover_step_caps_stay_below_2_to_the_62():
    # first_visit marks unentered vertices with the cap in int64.
    assert sampler._cover_step_cap(1024) == 80 * (1024 * 1023 // 2) * 1023
    assert sampler._cover_step_cap(1 << 20) == (1 << 62) - 1


def test_parent_edges_name_each_tree_edge():
    # Edge ids in shuffled order, so that no id follows from a row position,
    # and a G(n, p); trees from both scalar walks.
    g = gnp_graph(60, 0.15, seed=5)
    assert g.is_connected()
    edges = np.array(list(g.iter_edges()))[:, ::-1]
    shuffled = Graph(g.n, edges[np.random.default_rng(3).permutation(g.m)])
    for graph in (g, shuffled):
        trees = [aldous_broder(graph, s, start=s)[0] for s in range(4)]
        trees += process_bp_on(Orientation(graph, np.ones(graph.m), np.ones(graph.m)), 1, 2).trees
        for tree in trees:
            got = sampler._parent_edges(graph, tree.parent)
            want = [-1 if p < 0 else graph.edge_id(v, p) for v, p in enumerate(tree.parent.tolist())]
            assert got.dtype == np.int32 and got[tree.root] == -1
            assert got.tolist() == tree.parent_edge.tolist() == want


def test_walk_holds_about_nine_bytes_a_step():
    # The int32 trace until cover and its concatenation; a log of the used
    # words beside an int64 trace took the peak to 33 bytes a step.
    g = cycle_graph(1024)
    aldous_broder(g, 2)  # builds the graph's cached rows outside the trace
    tracemalloc.start()
    try:
        _, trace = aldous_broder(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps > 200_000
    assert peak <= 12 * trace.steps


def test_batch_walks_on_disconnected_graph_fail_fast():
    # Two disjoint 100-cycles: no vertex is isolated, yet no walk can cover.
    g = _disjoint_cycles(100)
    t0 = time.perf_counter()
    with pytest.raises(SamplingError, match="disconnected"):
        tree_edge_frequencies(g, 10_000, 1)
    assert time.perf_counter() - t0 < 1.0  # walking to the step cap takes ~40 s


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(8, 20))
def test_aldous_broder_always_yields_valid_tree(seed, n):
    g = complete_graph(n)
    tree, _ = aldous_broder(g, seed=seed)
    tree.validate(g)
    assert len(tree.edges()) == n - 1


def test_exchangeable_tree_indices_chi_square():
    import scipy.stats as stats

    g = complete_graph(4)
    first, second = [], []
    for s in range(3000):
        a, b = sample_trees(g, 2, seed=s)
        first.append(tuple(np.sort(a.parent_edge[a.parent >= 0])))
        second.append(tuple(np.sort(b.parent_edge[b.parent >= 0])))
    cells = sorted(set(first) | set(second))
    idx = {c: i for i, c in enumerate(cells)}
    table = np.zeros((2, len(cells)))
    for m in first:
        table[0, idx[m]] += 1
    for m in second:
        table[1, idx[m]] += 1
    _, pval, _, _ = stats.chi2_contingency(table)
    assert pval > 0.01


def _rows(graph, trials, rng) -> np.ndarray:
    return np.concatenate(list(_cover_walk_trees(graph, trials, rng)))


@pytest.mark.parametrize(
    "graph, digest",
    [
        (petersen_graph(), "e95bcb41942bf6736cd55d27a56ccc2f11bd2d1d7c10392aba5fb666a49a8739"),
        (wheel_graph(8), "af44a9f9626ed0a9a063b2450b4e9d6c27818cd7486528c14cf6b386ed403169"),
    ],
    ids=["petersen", "wheel8"],
)
def test_uniform_rule_output_is_unchanged_below_one_chunk(graph, digest):
    # Digests of the per-edge counts, the masks over all edges and the counts
    # over edges {0, 3, 5}, pinned from the engine when it still took a start
    # vertex, at start 0; each reduction re-walks one stream.
    def rng():
        return substream(7, "batch-identity")

    in_cut = np.zeros(graph.m + 2, dtype=bool)
    in_cut[[0, 3, 5]] = True
    h = hashlib.sha256()
    h.update(_tree_edge_counts(graph, 5000, rng()).tobytes())
    h.update(_tree_masks(graph, 5000, rng(), np.arange(graph.m))[0].tobytes())
    h.update(in_cut[_rows(graph, 5000, rng())].sum(axis=1, dtype=np.int32).tobytes())
    assert h.hexdigest() == digest


def _assert_uniform_rows_are_trees(graph, rows):
    assert (rows[:, 0] == -2).all()
    assert ((rows >= 0).sum(axis=1) == graph.n - 1).all()
    assert ((rows == -2).sum(axis=1) == 1).all()
    for row in rows:
        eid = np.where(row >= 0, row, 0)
        parent = graph.edge_u[eid] + graph.edge_v[eid] - np.arange(graph.n)
        parent[0] = -1
        SpanningTree(0, parent, row.clip(-1)).validate(graph)


@pytest.mark.parametrize("budget", [None, 20_000])
def test_uniform_rows_are_spanning_trees(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(sampler, "_BATCH_BYTES", budget)
    for graph in (petersen_graph(), gnp_graph(30, 0.2, seed=5)):
        assert graph.is_connected()
        chunks = list(_cover_walk_trees(graph, 400, substream(4, "rows")))
        assert (len(chunks) > 1) == (budget is not None)
        _assert_uniform_rows_are_trees(graph, np.concatenate(chunks))


def test_no_trials_is_rejected():
    with pytest.raises(ValueError, match="trials"):
        tree_edge_frequencies(complete_graph(5), 0, 1)


def test_small_budget_splits_walks_into_chunks(monkeypatch):
    # Room for about a hundred walks per chunk.
    monkeypatch.setattr(sampler, "_BATCH_BYTES", 20_000)
    uniform = petersen_graph()
    oriented = direct_edges_dp(complete_graph(5), 1.0, seed=2)
    for graph in (uniform, oriented):
        chunks = list(_cover_walk_trees(graph, 1000, substream(3, "chunks")))
        assert len(chunks) > 5
        rows = np.concatenate(chunks)
        assert rows.shape == (1000, graph.n)
        covered = (rows != -1).all(axis=1)
        assert (rows[covered] >= 0).sum(axis=1).tolist() == [graph.n - 1] * covered.sum()
    assert covered.any()


def _oriented_outcomes(oriented, trials, seed):
    """Scalar, then 10x as many batched, walk outcomes: tree mask, or -1 if stuck."""
    scalar = []
    for t in range(trials):
        res = process_bp_on(oriented, child_seed(seed, "scalar", t))
        ids = res.trees[0].parent_edge.tolist() if res.success else None
        scalar.append(sum(1 << e for e in ids if e >= 0) if ids is not None else -1)
    masks, stuck = _tree_masks(
        oriented, 10 * trials, substream(seed, "batch"), np.arange(oriented.m)
    )
    keys = masks.astype(np.int64)
    keys[stuck] = -1
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
    # Exact rate.  Old arcs weigh 1/3, and a lone new arc takes the other 2/3.
    # After 0->1 the walk covers only through 1->2, then 2->3 (1/2 each).
    # Once 2->1 and 1->2 are both used, the cover chance x from 2 solves
    # x = 2/3 + (1/3)(1/3) x, so x = 3/4 and P(cover) = (1/2)(1/2 + (1/2)(1/3) x)
    # = 5/16.
    exact = 11 / 16
    for rate, size in ((p1, scalar.size), (p2, batch.size)):
        assert abs(rate - exact) <= 4 * math.sqrt(exact * (1 - exact) / size)


def test_oriented_rule_reports_a_start_without_arcs_as_stuck():
    oriented = Orientation(Graph(3, [(1, 2)]), [True], [False])
    rows = _rows(oriented, 5, substream(1, "sink"))
    assert rows.tolist() == [[-2, -1, -1]] * 5


def test_oriented_rule_iteration_cap_raises(monkeypatch):
    oriented = direct_edges_dp(complete_graph(6), 1.0, seed=3)
    monkeypatch.setattr(Orientation, "walk_step_cap", lambda self: 2)
    with pytest.raises(SamplingError, match="did not cover"):
        _rows(oriented, 10, substream(1, "cap"))


def test_uniform_rule_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(Graph, "walk_step_cap", lambda self: 2)
    with pytest.raises(SamplingError, match="did not cover"):
        _rows(petersen_graph(), 10, substream(1, "cap"))


def _reference_chunk(graph, w, rng):
    """The engine's step loop before it compacted its walk state: per step it
    gathers every active walk's state by index and re-filters the active set.
    Kept as the reference the compacted loop must reproduce row for row."""
    n = graph.n
    oriented = isinstance(graph, Orientation)
    indptr, heads, arc_eids = graph._csr
    deg = np.diff(indptr)
    first_t = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > graph.m)
    cur = np.zeros(w, dtype=np.int32)
    first = np.full((w, n), -1, dtype=first_t)
    first[:, 0] = -2
    nvis = np.ones(w, dtype=np.int32)
    act = np.arange(w, dtype=np.int64)
    if oriented:
        slot_t = np.min_scalar_type(max(int(deg.max()), 1))
        local = (np.arange(heads.size) - np.repeat(indptr[:-1], deg)).astype(slot_t)
        perm = np.tile(local, (w, 1))
        d1 = np.zeros((w, n), dtype=slot_t)
    while act.size:
        c = cur[act]
        if not oriented:
            arc = indptr[c] + rng.integers(0, deg[c])
        else:
            k = d1[act, c].astype(np.int64)
            span = deg[c] - k
            if not span.all():
                act = act[span > 0]
                continue
            r = rng.integers(0, span * (n - 1)) - k * span
            new = r >= 0
            slot = k + r // np.where(new, n - 1 - k, span)
            base = indptr[c]
            j = perm[act, base + slot]
            if new.any():
                an, bn = act[new], base[new]
                perm[an, bn + slot[new]] = perm[an, bn + k[new]]
                perm[an, bn + k[new]] = j[new]
                d1[an, c[new]] += 1
            arc = base + j
        nxt = heads[arc]
        fresh = first[act, nxt] == -1
        if fresh.any():
            aw = act[fresh]
            first[aw, nxt[fresh]] = arc_eids[arc[fresh]]
            nvis[aw] += 1
        cur[act] = nxt
        act = act[nvis[act] < n]
    return first


@pytest.mark.parametrize(
    "graph",
    [petersen_graph(), wheel_graph(8), direct_edges_dp(complete_graph(5), 0.7, seed=4)],
    ids=["petersen", "wheel8", "oriented-k5"],
)
def test_rows_match_reference_loop_across_chunks(monkeypatch, graph):
    monkeypatch.setattr(sampler, "_BATCH_BYTES", 20_000)
    trials = 1200
    chunks = list(_cover_walk_trees(graph, trials, substream(9, "reference")))
    assert len(chunks) >= 5
    rng = substream(9, "reference")
    size = len(chunks[0])
    expected = [
        _reference_chunk(graph, min(size, trials - done), rng)
        for done in range(0, trials, size)
    ]
    assert [c.shape for c in chunks] == [e.shape for e in expected]
    for got, want in zip(chunks, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 1023])
def test_scalar_bound_draw_equals_array_bound_draw(d):
    a, b = substream(11, "draw", d), substream(11, "draw", d)
    for k in (1, 7, 1000, 3):
        x = a.integers(0, d, size=k)
        y = b.integers(0, np.full(k, d))
        assert np.array_equal(x, y), (
            "on regular graphs the lockstep walk draws rng.integers(0, d, size=k) "
            "in place of rng.integers(0, deg[cur]); this numpy gives different "
            "values, so regular-graph trees would change"
        )
    # The two paths also leave the generator in the same state.
    assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


_FAMILY = lower_bound_family(300, 3, 1, 5)


@pytest.mark.parametrize(
    "graph, start, reduced",
    [
        (_FAMILY.graph, _FAMILY.start_vertex(), True),
        (random_regular_graph(60, 3, seed=2), 0, True),
        # The walk reduces its words mod the lcm of the distinct degrees
        # when that is below 2^64, as for degrees 10-31, and keeps them raw
        # otherwise, as for degrees 44-81.
        (gnp_graph(200, 0.1, seed=4), 0, True),
        (gnp_graph(200, 0.3, seed=4), 0, False),
        (path_graph(9), 4, True),
        (petersen_graph(), 0, True),
    ],
    ids=["lower-bound", "3-regular", "gnp-reduced", "gnp-raw", "path", "petersen"],
)
def test_block_walk_equals_the_step_loop(graph, start, reduced):
    assert (math.lcm(*set(graph.degrees.tolist())) < WORDS) == reduced
    for seed in range(4):
        _assert_same_walk(_walk_arrays(graph, seed, start), _reference_walk(graph, seed, start))


def test_block_walk_keeps_the_exact_step_cap(monkeypatch):
    graph = gnp_graph(80, 0.1, seed=3)
    _, want = _reference_walk(graph, 4)
    steps = len(want[2]) - 1
    monkeypatch.setattr(Graph, "walk_step_cap", lambda self: steps + 1)
    _assert_same_walk(_walk_arrays(graph, 4, 0), (0, want))
    monkeypatch.setattr(Graph, "walk_step_cap", lambda self: steps)
    for walk in (_walk_arrays, _reference_walk):
        with pytest.raises(SamplingError) as err:
            walk(graph, 4, 0)
        assert str(err.value) == f"walk did not cover within {steps} steps"


@pytest.mark.parametrize("n", [2, 3, 17, 65, 129, 200, 1024])
def test_complete_graph_closed_form_equals_the_loop(monkeypatch, n):
    # n - 1 = 1, 16, 64, 128 divide 2^64, so no word is rejected there.
    fast, loop = complete_graph(n), complete_graph(n)
    monkeypatch.setattr(loop, "_complete_in_order", False)
    for seed in (1, 2) if n == 1024 else (1, 2, 3):
        for start in sorted({0, n - 1, n // 2}):
            want = _reference_walk(loop, seed, start)
            _assert_same_walk(_walk_arrays(fast, seed, start), want)
            _assert_same_walk(_walk_arrays(loop, seed, start), want)
    assert "_neighbor_lists" not in fast.__dict__
    assert "_neighbor_lists" in loop.__dict__


def test_complete_graph_out_of_order_takes_the_loop():
    n = 40
    edges = np.array(list(complete_graph(n).iter_edges()))
    shuffled = Graph(n, edges[np.random.default_rng(4).permutation(len(edges))])
    assert complete_graph(n)._complete_in_order
    assert not shuffled._complete_in_order
    assert not Graph(n, edges[:-1])._complete_in_order
    for seed in range(3):
        tree, trace = aldous_broder(shuffled, seed, start=7)
        tree.validate(shuffled)
        assert trace.vertices[0] == 7 and (trace.first_visit >= 0).all()
    assert "_neighbor_lists" in shuffled.__dict__


def test_complete_graph_closed_form_keeps_the_step_cap(monkeypatch):
    monkeypatch.setattr(Graph, "walk_step_cap", lambda self: 150)
    fast, loop = complete_graph(200), complete_graph(200)
    monkeypatch.setattr(loop, "_complete_in_order", False)
    messages = []
    for g in (fast, loop):
        with pytest.raises(SamplingError) as err:
            aldous_broder(g, seed=5)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "walk did not cover within 150 steps"


@pytest.mark.parametrize("n", [1, 2, 3, 17, 129, 1024])
def test_complete_walk_from_n_equals_the_graph_walk(n):
    kn = complete_graph(n) if n > 1 else Graph(1, [])
    if n > 1:
        assert sampler._cover_step_cap(n) == kn.walk_step_cap()
    for seed in (1, 2, 3):
        for start in sorted({0, n - 1, n // 2, n // 3}):
            want = _walk_arrays(kn, seed, start)
            _assert_same_walk(_walk_arrays(n, seed, start), want)
            _assert_same_walk(_walk_arrays(np.int64(n), seed, start), want)


def test_complete_walk_from_n_checks_its_input():
    for n, start in ((0, 0), (5, 5), (5, -1)):
        with pytest.raises(ValueError):
            aldous_broder(n, 1, start)
    with pytest.raises(TypeError):
        aldous_broder(5.0, 1)
