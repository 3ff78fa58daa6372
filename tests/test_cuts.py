import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from treesplice import cuts
from treesplice import graph as graph_module
from treesplice.cuts import (
    CUT_FAMILIES,
    _cut_values,
    edge_expansion_exact,
    sample_cut_subsets,
    sampled_cut_ratios,
    sparsifier_quality,
    spectral_lower_bounds,
    vertex_expansion_exact,
)
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    prism_graph,
    random_regular_graph,
    wheel_graph,
)
from treesplice.graph import ConvergenceError, Graph, _closed_rows, _packed_rows, cut_edges
from treesplice.linalg import laplacian_sparse
from treesplice.sampler import aldous_broder
from treesplice.splice import WeightedGraph, sparsify_gnp, splice, splice_gnp
from treesplice.seeds import child_seed, substream


def evaluate_subset(graph, subset, kind: str) -> float:
    """Recompute a witness ratio directly from the edge list."""
    subset = sorted(subset)
    if kind == "edge":
        return len(cut_edges(graph, subset)) / len(subset)
    inside = set(subset)
    out: set[int] = set()
    for v in subset:
        out.update(graph._neighbor_lists[v])
    return len(out - inside) / len(subset)


def test_edge_expansion_known_values():
    assert edge_expansion_exact(complete_graph(4))["value"] == 2.0
    assert edge_expansion_exact(cycle_graph(6))["value"] == pytest.approx(2 / 3)
    assert edge_expansion_exact(Graph(5, [(0, i) for i in range(1, 5)]))["value"] == 1.0


def test_vertex_expansion_known_values():
    assert vertex_expansion_exact(complete_graph(4))["value"] == 1.0
    assert vertex_expansion_exact(path_graph(4))["value"] == 0.5
    assert vertex_expansion_exact(cycle_graph(6))["value"] == pytest.approx(2 / 3)


def brute_scan(g, kind):
    """The scan's contract by brute force: (value, witness bitmask) of the first
    minimum over A = {0} | (t << 1) in t order and, separately, over the
    complements of those A; A wins a tie between the two."""
    universe = (1 << g.n) - 1
    best = [(math.inf, 0), (math.inf, 0)]
    for t in range(1 << (g.n - 1)):
        a = (t << 1) | 1
        for side, mask in enumerate((a, universe ^ a)):
            members = [v for v in range(g.n) if mask >> v & 1]
            if 1 <= len(members) <= g.n // 2:
                ratio = evaluate_subset(g, members, kind)
                if ratio < best[side][0]:
                    best[side] = (ratio, mask)
    return best[0] if best[0][0] <= best[1][0] else best[1]


def small_blocks(monkeypatch, low_bits):
    """Make the subset scan run in blocks of 2**low_bits subsets."""
    monkeypatch.setattr(cuts, "_BLOCK_BYTES", cuts._SCAN_BYTES_PER_SUBSET << low_bits)


def connected_gnp(n, p, seed):
    while True:
        g = gnp_graph(n, p, seed=seed)
        if g.is_connected():
            return g
        seed += 1000


def cube_graph() -> Graph:
    return Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])


@pytest.mark.parametrize("kind", ["edge", "vertex"])
def test_scan_matches_brute_force_on_random_graphs(kind, monkeypatch):
    graphs = [gnp_graph(10, 0.4, seed=900 + s) for s in range(6)]
    graphs = [g for g in graphs if g.is_connected()]
    small = [connected_gnp(n, p, seed=n) for n, p in ((12, 0.3), (13, 0.5), (14, 0.25))]
    # Symmetric graphs tie many cuts at the minimum, across many blocks.
    star = Graph(10, [(0, i) for i in range(1, 10)])
    ties = [cycle_graph(12), path_graph(11), star, petersen_graph(), cube_graph()]

    def check(g):
        rep = (edge_expansion_exact if kind == "edge" else vertex_expansion_exact)(g)
        value, mask = brute_scan(g, kind)
        assert rep["value"] == value
        assert rep["witness"] == [v for v in range(g.n) if mask >> v & 1]
        assert evaluate_subset(g, rep["witness"], kind) == rep["value"]
        assert 1 <= len(rep["witness"]) <= g.n // 2

    for g in graphs + ties:
        check(g)
    small_blocks(monkeypatch, 2)
    for g in graphs[:2] + small + ties:
        check(g)


def test_ratio_keys_order_like_float_ratios():
    """Over every (count, size) pair a side can form, key order is the order
    of the float ratio count / size, equalities included; A's keys are even,
    its complement's odd, and a side out of range gets no key."""
    for n in range(2, cuts.EXACT_SCAN_MAX_N + 1):
        _, sides = cuts._ratio_keys(n)
        keys, ratios = [], []
        for parity, (mult, off) in enumerate(sides):
            for size_a in range(n + 1):
                size = n - size_a if parity else size_a
                if not 1 <= size <= n // 2:
                    assert (mult[size_a], off[size_a]) == (0, -1)
                    continue
                count = np.arange(size * (n - size) + 1)  # a cut has at most this many edges
                key = count * mult[size_a] + off[size_a]
                assert (key % 2 == parity).all() and key.max() < 1 << 21
                keys.append(key // 2)
                ratios.append(count / size)
        keys, ratios = np.concatenate(keys), np.concatenate(ratios)
        order = np.argsort(ratios, kind="stable")
        step = np.diff(keys[order])
        assert (step >= 0).all()
        assert ((step == 0) == (np.diff(ratios[order]) == 0)).all()


def test_blocked_scan_matches_one_block(monkeypatch):
    rng = np.random.default_rng(31)
    for i in range(100):
        n = int(rng.integers(2, 17))
        g = connected_gnp(n, float(rng.uniform(0.15, 0.9)), seed=i)
        for kind in ("edge", "vertex"):
            want = cuts._subset_scan(g, kind)
            small_blocks(monkeypatch, 1 + i % 3 if n < 14 else 3)
            assert cuts._subset_scan(g, kind) == want
            monkeypatch.undo()


@pytest.mark.parametrize("kind", ["edge", "vertex"])
def test_scan_at_its_cap_is_memory_bounded(kind):
    g = random_regular_graph(cuts.EXACT_SCAN_MAX_N, 3, seed=2)
    tracemalloc.start()
    try:
        rep = (edge_expansion_exact if kind == "edge" else vertex_expansion_exact)(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20       # a block of 2^16 subsets peaks near 3.4 MiB
    assert evaluate_subset(g, rep["witness"], kind) == rep["value"]
    assert 1 <= len(rep["witness"]) <= g.n // 2


def test_scan_rejects_large_or_disconnected():
    with pytest.raises(ValueError, match="spectral"):
        edge_expansion_exact(complete_graph(25))
    with pytest.raises(ValueError, match="connected"):
        edge_expansion_exact(Graph(4, [(0, 1), (2, 3)]))


def test_spectral_closed_forms():
    assert spectral_lower_bounds([complete_graph(30)])[0] == pytest.approx(30, rel=1e-9)
    for n in (24, 128):
        got = spectral_lower_bounds([cycle_graph(n)])[0]
        assert got == pytest.approx(2 - 2 * math.cos(2 * math.pi / n), rel=1e-6)
    with pytest.raises(ValueError):
        spectral_lower_bounds([Graph(4, [(0, 1), (2, 3)])])


def test_spectral_is_a_valid_certificate_on_small_graphs():
    for s in range(6):
        g = gnp_graph(12, 0.4, seed=300 + s)
        if not g.is_connected():
            continue
        lam = spectral_lower_bounds([g])[0]
        assert edge_expansion_exact(g)["value"] >= lam / 2 - 1e-9


def test_splicer_expansion_bounded_by_base():
    g = gnp_graph(14, 0.5, seed=17)
    assert g.is_connected()
    spl = splice(g, 2, seed=4)
    assert (
        edge_expansion_exact(spl)["value"]
        <= edge_expansion_exact(g)["value"] + 1e-12
    )


def test_mean_expansion_monotone_in_k():
    g = complete_graph(12)
    means = []
    for k in (1, 2, 3, 4):
        vals = [
            edge_expansion_exact(splice(g, k, child_seed(7, "k", k, s)))["value"]
            for s in range(50)
        ]
        means.append(np.mean(vals))
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


def test_cut_families_cover_requested_kinds():
    g = gnp_graph(60, 0.2, seed=21)
    assert g.is_connected()
    family, indptr, members = sample_cut_subsets(g, 60, seed=2)
    assert family.dtype == np.int8 and indptr.size == family.size + 1
    assert indptr[0] == 0 and indptr[-1] == members.size
    kinds = {CUT_FAMILIES[f] for f in family}
    assert kinds >= {
        "min-degree-singleton",
        "random-size-class",
        "tree-component",
        "bfs-ball",
    }
    # Families come in order, and each cut is a proper vertex set: ascending,
    # but for tree cuts, which keep the DFS order.
    assert (np.diff(family) >= 0).all()
    sizes = np.diff(indptr)
    assert ((1 <= sizes) & (sizes < g.n)).all()
    for i in range(family.size):
        cut = members[indptr[i] : indptr[i + 1]]
        assert np.unique(cut).size == cut.size and 0 <= cut.min() and cut.max() < g.n
        if CUT_FAMILIES[family[i]] != "tree-component":
            assert (np.diff(cut) > 0).all()


def test_sampled_ratios_identity_is_one():
    g = gnp_graph(40, 0.3, seed=23)
    assert g.is_connected()
    ratios = sampled_cut_ratios(g, g, 40, seed=3)
    assert ratios.dtype == np.float64 and (ratios == 1.0).all()


def test_sampled_ratios_of_splicer_at_most_one():
    g = complete_graph(48)
    spl = splice(g, 2, seed=5)
    ratios = sampled_cut_ratios(g, spl, 60, seed=6)
    # Each spanning splicer keeps at least one edge of every cut.
    assert ((0 < ratios) & (ratios <= 1.0 + 1e-12)).all()


def _csr(subsets):
    indptr = np.cumsum([0] + [len(a) for a in subsets])
    return indptr, np.concatenate([np.asarray(a, dtype=np.int64) for a in subsets])


def _random_subsets(n, count, seed):
    rng = np.random.default_rng(seed)
    return [
        np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "g",
    [
        gnp_graph(60, 0.2, seed=21),
        random_regular_graph(40, 3, seed=5),
        # Dense graphs at the 64-bit word boundaries, and K_n over three words.
        gnp_graph(64, 0.3, seed=64),
        gnp_graph(65, 0.3, seed=65),
        gnp_graph(127, 0.2, seed=127),
        complete_graph(129),
        # One graph on each side of the density rule: ceil(256 / 64) = 4 words
        # against an average degree of 4 (dense, with equality) and of 3.
        random_regular_graph(256, 4, seed=7),
        random_regular_graph(256, 3, seed=7),
    ],
)
def test_cut_values_count_cut_edges_exactly(g, monkeypatch):
    # A few sets a crossing-count block (n + 2m bytes a set, 16 a member) or
    # a popcount block.  Either way blocks split and the last one is short.
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 7 * (17 * g.n + 2 * g.m))
    subsets = _random_subsets(g.n, 300, seed=g.m)
    (got,) = _cut_values([g], *_csr(subsets))
    want = [len(cut_edges(g, a)) for a in subsets]
    assert got.tolist() == want


def test_popcount_cut_values_stay_within_the_block_budget(monkeypatch):
    # A random graph's 400 sets: one block would hold ~1.3e5 members'
    # gathered words, about 27 MiB.  And thm-sparsifier's first two hosts at
    # seed 1 with their 10 000 sampled sets, 245 and 532 of them flipped:
    # when a flipped set's full-size index arrays and unpacked bits went
    # uncounted, the 4 MiB budget peaked at 6.8 and 8.6 MiB.
    # Their values are checked against cut_edges and crossing counts.
    default = graph_module._BLOCK_BYTES
    g = gnp_graph(640, 0.05, seed=2)
    subsets = _random_subsets(g.n, 400, seed=3)
    cases = [(g, *_csr(subsets), [len(cut_edges(g, a)) for a in subsets])]
    n = 1000
    for s in (0, 1):
        host = gnp_graph(n, 10 * math.log(n) / n, child_seed(1, "host", s))
        _, indptr, members = sample_cut_subsets(host, 10_000, child_seed(1, "cuts", s))
        want = np.empty(indptr.size - 1)
        cuts._crossing_cut_values([(host, None, want)], indptr, members)
        cases.append((host, indptr, members, want.tolist()))
    for g, indptr, members, want in cases:
        assert cuts._is_dense(g)
        rows = _packed_rows(g).view("<u8")
        for budget in (default, 1 << 20):
            monkeypatch.setattr(graph_module, "_BLOCK_BYTES", budget)
            tracemalloc.start()
            try:
                got = cuts._popcount_cut_values(rows, indptr, members)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget + got.nbytes
            assert got.tolist() == want


@pytest.mark.parametrize("budget", [1 << 12, 1 << 24])
def test_popcount_counts_large_sets_by_their_complement(monkeypatch, budget):
    # n = 130 leaves padding bits in each row's last word.  Sets run from one
    # vertex to n - 1, both sides of n/2, in unsorted order;
    # a small budget puts flipped and unflipped sets in separate blocks.
    g = gnp_graph(130, 0.3, seed=8)
    n = g.n
    rng = np.random.default_rng(9)
    sizes = [1, 2, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1]
    sizes += rng.integers(1, n, size=120).tolist()
    subsets = [rng.permutation(n)[:k] for k in sizes]
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", budget)
    got = cuts._popcount_cut_values(_packed_rows(g).view("<u8"), *_csr(subsets))
    assert got.tolist() == [len(cut_edges(g, a)) for a in subsets]


def test_density_rule_splits_the_regular_graphs():
    assert cuts._is_dense(random_regular_graph(256, 4, seed=7))
    assert not cuts._is_dense(random_regular_graph(256, 3, seed=7))
    assert cuts._is_dense(gnp_graph(60, 0.2, seed=21))


def reference_ball(g, center, radius):
    """Sorted vertices within ``radius`` of ``center`` by set BFS; None if
    that is every vertex."""
    ball = {center}
    frontier = {center}
    for _ in range(radius):
        frontier = {w for v in frontier for w in g._neighbor_lists[v]} - ball
        ball |= frontier
    return None if len(ball) == g.n else sorted(ball)


@pytest.mark.parametrize(
    "g",
    [
        gnp_graph(150, 0.05, seed=3),
        random_regular_graph(300, 3, seed=11),
        gnp_graph(150, 0.3, seed=5),
        complete_graph(12),
    ],
)
def test_balls_match_a_set_bfs(g, monkeypatch):
    # Both growths on every graph: sparse products, and packed rows, whose
    # blocks hold one or two balls at the small budget.
    assert g.is_connected()
    step = cuts._closed_adjacency(g)
    closed = _closed_rows(g)
    centers = np.arange(0, g.n, 7)
    for radius, budget in itertools.product((1, 2, 3, 4), (1 << 10, 1 << 22)):
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", budget)
        balls = cuts._grow_balls(step, centers, radius)
        balls.sort_indices()
        packed = cuts._grow_packed_balls(closed, centers, radius)
        size = cuts._popcounts(packed)
        assert np.array_equal(size, np.diff(balls.indptr))
        assert np.array_equal(cuts._packed_members(packed, size), balls.indices)
        for i, center in enumerate(centers):
            want = reference_ball(g, int(center), radius)
            got = balls.indices[balls.indptr[i] : balls.indptr[i + 1]].tolist()
            assert got == (list(range(g.n)) if want is None else want)


@pytest.mark.parametrize(
    "g", [gnp_graph(150, 0.05, seed=3), random_regular_graph(300, 3, seed=11)]
)
def test_dense_and_sparse_paths_give_the_same_cuts(g, monkeypatch):
    spl = splice(g, 2, seed=1)
    dense = cuts._is_dense(g)
    got = (*sample_cut_subsets(g, 300, seed=5), sampled_cut_ratios(g, spl, 300, seed=5))
    monkeypatch.setattr(cuts, "_is_dense", lambda graph: not dense)
    other = (*sample_cut_subsets(g, 300, seed=5), sampled_cut_ratios(g, spl, 300, seed=5))
    for a, b in zip(got, other):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "radius, centers", [(1, np.arange(1000).repeat(4)), (3, np.arange(0, 1000, 5))]
)
def test_packed_balls_stay_within_the_block_budget(radius, centers, monkeypatch):
    # A dense n = 1000 host: 4000 radius-1 balls unpack to 4 MB of bits, and
    # 200 radius-3 balls of ~1000 members gather 25 MB of rows in one block.
    n = 1000
    closed = _closed_rows(gnp_graph(n, 10 * math.log(n) / n, seed=7))
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        ball = cuts._grow_packed_balls(closed, centers, radius)
        grow_peak = tracemalloc.get_traced_memory()[1]
        size = cuts._popcounts(ball)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        members = cuts._packed_members(ball, size)
        unpack_peak = tracemalloc.get_traced_memory()[1] - held - members.nbytes
    finally:
        tracemalloc.stop()
    assert members.size == size.sum()
    assert grow_peak < 1.2 * (1 << 20)
    assert unpack_peak < 1.2 * (1 << 20)


def test_ball_loop_stops_once_every_radius_is_retired(monkeypatch):
    # On K_n every ball swallows the graph: each radius fails three times in
    # the first nine attempts, and then no radius is left to try.  K_n is
    # dense, so its balls grow on packed rows.
    real = cuts._grow_packed_balls
    grown = []

    def counting(closed, centers, radius):
        grown.append(centers.size)
        return real(closed, centers, radius)

    monkeypatch.setattr(cuts, "_grow_packed_balls", counting)
    g = complete_graph(12)
    family, _, _ = sample_cut_subsets(g, 60, seed=3)
    assert sum(grown) == 9
    assert CUT_FAMILIES.index("bfs-ball") not in family
    # 60 samples leave 16 balls wanted, so 144 centers are drawn.  A first
    # chunk of 30 attempts is cut to the 18 that 16 balls need; all 18 balls
    # are grown, and the replay still stops after the ninth attempt and keeps
    # no ball.
    monkeypatch.setattr(cuts, "_BALL_PROBE", 30)
    grown.clear()
    centers = np.random.default_rng(3).integers(0, g.n, size=8 * 16 + 16)
    sizes, members, used = cuts._bfs_balls(g, centers, 16)
    assert used == 9 and sum(grown) == 18
    assert sizes.size == members.size == 0


def test_floyd_subsets_are_uniform():
    # All 20 three-subsets of six vertices, each within 4 standard errors of
    # 1/20, from one lockstep draw over 2e4 rows.
    out = np.empty((20_000, 3), dtype=np.int64)
    cuts._floyd_subsets(np.random.default_rng(11), 6, out)
    codes = (np.left_shift(1, out)).sum(axis=1)
    counts = np.bincount(codes, minlength=64)[np.bitwise_count(np.arange(64)) == 3]
    p = 1 / 20
    se = math.sqrt(p * (1 - p) / out.shape[0])
    assert counts.size == 20
    assert (np.abs(counts / out.shape[0] - p) <= 4 * se).all()


@pytest.mark.parametrize("n, s", [(2, 1), (37, 1), (37, 16), (100, 50), (256, 128)])
def test_floyd_rows_hold_distinct_ascending_members(n, s, monkeypatch):
    # A budget of about three rows splits 50 rows into blocks, the last short.
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 3 * (n + 8 * s) + 1)
    out = np.full((50, s), -1, dtype=np.int64)
    cuts._floyd_subsets(np.random.default_rng(n + s), n, out)
    assert (np.diff(out, axis=1) > 0).all()
    assert out.min() >= 0 and out.max() < n


def test_floyd_blocks_stay_within_the_budget(monkeypatch):
    # 400 rows of 2048 from 4096 vertices: unblocked, the boolean matrix and
    # its nonzeros would take about 8 MiB.
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 1 << 20)
    out = np.empty((400, 2048), dtype=np.int64)
    tracemalloc.start()
    try:
        cuts._floyd_subsets(np.random.default_rng(5), 4096, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block's matrix and nonzeros, plus a few row-length index arrays.
    assert peak < 1.05 * (1 << 20)
    assert (np.diff(out, axis=1) > 0).all()


def reference_tree_cuts(graph, seed, want):
    """The vertex loop that cut tree components one subtree at a time."""
    out = []
    j = 0
    while len(out) < want:
        tree, _ = aldous_broder(graph, child_seed(seed, "cut-tree", j))
        j += 1
        order, tin, tout = tree.dfs_intervals()
        for v in range(graph.n):
            if int(tree.parent[v]) < 0:
                continue
            members = order[tin[v] : tout[v]]
            if 1 <= members.size < graph.n:
                out.append(members.tolist())
            if len(out) >= want:
                break
    return out


def reference_ball_loop(graph, rng, want):
    """The sequential ball loop: one center drawn per attempt, radius
    attempt % 3 + 1, a radius retired after three balls that fill the graph."""
    out, attempt, failures = [], 0, [0, 0, 0]
    while len(out) < want and attempt < 8 * want + 16 and min(failures) < 3:
        center = int(rng.integers(0, graph.n))
        radius = attempt % 3 + 1
        attempt += 1
        if failures[radius - 1] >= 3:
            continue
        ball = reference_ball(graph, center, radius)
        if ball is None:
            failures[radius - 1] += 1
        else:
            out.append(ball)
    return out, failures


def family_cuts(family, indptr, members, name):
    code = CUT_FAMILIES.index(name)
    return [members[indptr[i] : indptr[i + 1]].tolist() for i in np.flatnonzero(family == code)]


@pytest.mark.parametrize(
    "g, samples",
    [
        (complete_graph(12), 60),
        (gnp_graph(60, 0.2, seed=21), 300),
        (random_regular_graph(300, 3, seed=11), 2000),
        (cycle_graph(40), 300),
        (gnp_graph(1000, 10 * math.log(1000) / 1000, seed=7), 10_000),
    ],
    ids=["K12", "gnp60", "rr300", "cycle40", "host1000"],
)
def test_tree_and_ball_families_match_the_sequential_loops(g, samples):
    seed = 8
    family, indptr, members = sample_cut_subsets(g, samples, seed)
    singles = int((family == 0).sum())
    quota = (samples - singles) // 3
    assert family_cuts(family, indptr, members, "tree-component") == reference_tree_cuts(
        g, child_seed(seed, "trees"), quota
    )
    # The ball loop starts from the generator state the size classes leave.
    rng = substream(seed, "cut-subsets")
    cuts._size_class_subsets(rng, g.n, samples - singles - 2 * quota)
    balls, failures = reference_ball_loop(g, rng, quota)
    assert family_cuts(family, indptr, members, "bfs-ball") == balls
    if g.n == 1000:
        # Radii 2 and 3 retire mid-run; radius 1 makes the rest.
        assert failures[1:] == [3, 3] and len(balls) == quota


def test_sampled_cuts_keep_temporaries_within_a_block():
    # Sparse n = 4096, 1968 cuts in each random family.  Beyond the families
    # and their concatenation, each the size of the result, the sampler's
    # working arrays stay within one block.
    g = random_regular_graph(4096, 3, seed=5)
    tracemalloc.start()
    try:
        family, indptr, members = sample_cut_subsets(g, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = family.nbytes + indptr.nbytes + members.nbytes
    assert result > 6 << 20
    assert peak < 2 * result + graph_module._BLOCK_BYTES


def test_sampled_cuts_reject_tiny_or_disconnected_graphs():
    tiny = Graph(1, [])
    split = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for call in (sample_cut_subsets, lambda g, s, seed: sampled_cut_ratios(g, g, s, seed)):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            call(tiny, 10, 0)
        with pytest.raises(ValueError, match="needs a connected graph"):
            call(split, 10, 0)


def test_cut_values_match_weighted_cut_weight(monkeypatch):
    # Every weight distinct; 40 weights of about 450 edges each; and
    # sparsify_gnp's one weight p n.  About 7 sets a block.
    rng = np.random.default_rng(8)
    g = gnp_graph(60, 0.2, seed=21)
    dense = gnp_graph(200, 0.9, seed=4)
    p = 10 * math.log(300) / 300
    for wg in (
        WeightedGraph(g, rng.uniform(0.05, 20.0, g.m)),
        WeightedGraph(dense, rng.choice(rng.uniform(0.05, 20.0, 40), dense.m)),
        sparsify_gnp(gnp_graph(300, p, seed=6), p, seed=7),
    ):
        n, m = wg.graph.n, wg.graph.m
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 7 * (17 * n + 14 * m))
        subsets = _random_subsets(n, 300, seed=9)
        (got,) = _cut_values([wg], *_csr(subsets))
        want = np.array([wg.weights[cut_edges(wg.graph, a)].sum() for a in subsets])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "g", [random_regular_graph(300, 3, seed=11), gnp_graph(150, 0.05, seed=3)]
)
def test_crossing_counts_match_cut_edges_on_sampled_sets(g, monkeypatch):
    # Every sampled set, with blocks of a few sets each, and the host, its
    # splicer and a weighted copy sharing one membership block give the
    # values each gets alone.
    spl = splice(g, 2, seed=1)
    wg = WeightedGraph(spl, np.random.default_rng(2).uniform(0.5, 2.0, spl.m))
    _, indptr, members = sample_cut_subsets(g, 600, seed=4)
    monkeypatch.setattr(cuts, "_is_dense", lambda graph: False)
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 5 * (17 * g.n + 14 * g.m))
    shared = _cut_values([g, spl, wg], indptr, members)
    alone = [_cut_values([obj], indptr, members)[0] for obj in (g, spl, wg)]
    for a, b in zip(shared, alone):
        assert np.array_equal(a, b)
    sets = [members[indptr[i] : indptr[i + 1]] for i in range(indptr.size - 1)]
    assert shared[0].tolist() == [len(cut_edges(g, a)) for a in sets]
    assert shared[1].tolist() == [len(cut_edges(spl, a)) for a in sets]
    want = np.array([wg.weights[cut_edges(spl, a)].sum() for a in sets])
    np.testing.assert_allclose(shared[2], want, rtol=1e-12, atol=0)


def test_crossing_counts_stay_within_the_block_budget(monkeypatch):
    # A sparse host and its splicer share each membership block; one block
    # for all 400 sets would take about 9 MiB.
    g = random_regular_graph(2048, 3, seed=5)
    spl = splice(g, 2, seed=1)
    subsets = _random_subsets(g.n, 400, seed=3)
    indptr, members = _csr(subsets)
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        base, derived = _cut_values([g, spl], indptr, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * (1 << 20)
    assert base.tolist() == [len(cut_edges(g, a)) for a in subsets]
    assert derived.tolist() == [len(cut_edges(spl, a)) for a in subsets]


def test_sampled_cut_ratios_on_a_sparsifier_host_are_memory_bounded():
    # thm-sparsifier's first host and cuts at seed 1.  The peak was 14.3 MiB
    # while cut values came from Laplacian products and balls from sparse
    # products; it is 14.4 MiB with crossing-edge counts and packed balls,
    # and 55 MiB if one crossing-count block held all 10 000 sets.
    n = 1000
    p = 10 * math.log(n) / n
    host = gnp_graph(n, p, child_seed(1, "host", 0))
    wg = sparsify_gnp(host, p, child_seed(1, "sparsify", 0))
    tracemalloc.start()
    try:
        ratios = sampled_cut_ratios(host, wg, 10_000, child_seed(1, "cuts", 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ratios) == 10_000
    assert peak < 16 << 20


def test_cut_ratios_line_up_with_sampled_subsets():
    g = gnp_graph(60, 0.2, seed=21)
    spl = splice(g, 2, seed=3)
    family, indptr, members = sample_cut_subsets(g, 90, seed=4)
    ratios = sampled_cut_ratios(g, spl, 90, seed=4)
    assert ratios.dtype == np.float64 and ratios.shape == family.shape
    for i in range(family.size):
        cut = members[indptr[i] : indptr[i + 1]]
        assert ratios[i] == len(cut_edges(spl, cut)) / len(cut_edges(g, cut))


def test_sparsifier_quality_identity_weights():
    g = gnp_graph(50, 0.3, seed=31)
    assert g.is_connected()
    unit = WeightedGraph(g, np.ones(g.m))
    c_low, c_high = sparsifier_quality(g, unit, 50, seed=7)
    assert c_low == pytest.approx(1.0)
    assert c_high == pytest.approx(1 / math.log(g.n))


def test_report_serialization():
    rep = edge_expansion_exact(complete_graph(6))
    assert list(rep) == ["kind", "value", "witness", "method"]  # the CSV column order
    assert rep["kind"] == "edge" and rep["method"] == "exact"
    assert rep["witness"] == sorted(rep["witness"])


def _arpack_lambda2(g) -> float:
    """lambda_2 by ARPACK on the same shifted operator, as a test oracle."""
    import scipy.sparse.linalg as spla

    lap = laplacian_sparse(g)
    n = lap.shape[0]
    shift = 2.0 * float(lap.diagonal().max()) + 2.0
    op = spla.LinearOperator(
        (n, n), matvec=lambda x: lap @ x + shift * x.mean(), dtype=np.float64
    )
    v0 = np.cos(np.arange(n, dtype=np.float64) + 1.0)
    return float(spla.eigsh(op, k=1, which="SA", tol=1e-8, v0=v0, return_eigenvectors=False)[0])


@pytest.mark.parametrize(
    "batch, size",
    [
        (lambda: [splice(complete_graph(128), 2, child_seed(5, "k", s)) for s in range(6)], 6),
        (lambda: [splice(complete_graph(512), 2, child_seed(6, "k", s)) for s in range(3)], 3),
        (lambda: [
            splice_gnp(gnp_graph(256, 0.25, child_seed(7, "host", s)), 0.25, child_seed(7, "walk", s))
            for s in range(6)
        ], 6),
        (lambda: [cycle_graph(n) for n in (65, 128, 250, 400)], 4),
    ],
    ids=["K128-splicers", "K512-splicers", "gnp-unions", "cycles"],
)
def test_lockstep_lanczos_matches_arpack_and_dense(batch, size):
    graphs = batch()
    assert len(graphs) == size
    by_n = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    for group in by_n.values():
        got = spectral_lower_bounds(group)
        assert got.shape == (len(group),)
        for g, lam in zip(group, got):
            dense = np.linalg.eigvalsh(laplacian_sparse(g).toarray())[1]
            assert lam == pytest.approx(dense, rel=1e-9)
            assert lam == pytest.approx(_arpack_lambda2(g), rel=1e-9)
            # A graph's value does not depend on its batchmates.
            assert lam == spectral_lower_bounds([g])[0]


def test_spectral_bounds_batch_of_one_and_small_splicers():
    u = splice(complete_graph(300), 2, seed=3)
    assert spectral_lower_bounds([u])[0] == pytest.approx(_arpack_lambda2(u), rel=1e-9)
    small = [splice(complete_graph(40), 2, seed=s) for s in range(3)]
    want = [np.linalg.eigvalsh(laplacian_sparse(x).toarray())[1] for x in small]
    assert spectral_lower_bounds(small) == pytest.approx(want, rel=1e-9)


def _small_spectral_cases():
    """Paths, complete graphs, stars, cycles and wheels on 2..64 vertices, the
    Petersen graph, the prism and a G(40, 0.2), each with one of its 2-splicers."""
    bases = [petersen_graph(), prism_graph(), gnp_graph(40, 0.2, seed=3)]
    for n in range(2, 65):
        bases += [path_graph(n), complete_graph(n), Graph(n, [(0, i) for i in range(1, n)])]
        bases += [cycle_graph(n)] if n >= 3 else []
        bases += [wheel_graph(n)] if n >= 4 else []
    for i, g in enumerate(bases):
        yield from (g, splice(g, 2, seed=i))


def test_lanczos_matches_dense_eigvalsh_at_small_n():
    # Lanczos is the one lambda_2 path at every n; below 65 vertices dense
    # eigvalsh is the oracle.
    by_n = {}
    for g in _small_spectral_cases():
        by_n.setdefault(g.n, []).append(g)
    assert sorted(by_n) == list(range(2, 65))
    for group in by_n.values():
        for g, lam in zip(group, spectral_lower_bounds(group)):
            dense = np.linalg.eigvalsh(laplacian_sparse(g).toarray())[1]
            assert lam == pytest.approx(dense, rel=1e-9)


def test_spectral_bounds_reject_empty_or_mixed_batches():
    with pytest.raises(ValueError, match="at least one"):
        spectral_lower_bounds([])
    with pytest.raises(ValueError, match="one vertex count"):
        spectral_lower_bounds([cycle_graph(100), cycle_graph(101)])
    with pytest.raises(ValueError, match="connected"):
        spectral_lower_bounds([cycle_graph(100), Graph(100, [(0, 1)])])


def test_smallest_ritz_matches_eigh_tridiagonal():
    rng = np.random.default_rng(17)
    for size in range(2, 201):
        alpha = rng.normal(size=size) * 3.0
        beta = rng.uniform(1e-3, 2.0, size=size - 1)
        theta, s = sla.eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
        assert cuts._smallest_ritz(alpha, beta) == (theta[0], s[-1, 0])


def test_lanczos_iteration_cap_raises(monkeypatch):
    # cycle_graph(400) needs about 210 iterations; the cap allows 100.
    monkeypatch.setattr(cuts, "_LANCZOS_ITERS", 0.25)
    with pytest.raises(ConvergenceError, match="within 100 Lanczos iterations"):
        spectral_lower_bounds([cycle_graph(400)])
    # The Krylov space of K_80's operator has dimension 2: beta vanishes at
    # the second iteration, which stops the graph inside a cap of 4.
    monkeypatch.setattr(cuts, "_LANCZOS_ITERS", 0.05)
    assert spectral_lower_bounds([complete_graph(80)])[0] == pytest.approx(80, rel=1e-12)
