import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as stats

from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    petersen_graph,
    prism_graph,
    random_regular_graph,
    wheel_graph,
)
from treesplice.graph import Graph, cut_edges
from treesplice.linalg import (
    effective_resistance_exact,
    effective_resistances,
    spanning_tree_count,
)
from treesplice.sampler import _tree_masks, process_bp, tree_edge_frequencies
from treesplice.seeds import child_seed, substream
from treesplice.verify import (
    bernoulli_se,
    chernoff_tail_check,
    coupling_distance_estimate,
    enumerate_trees,
    exact_tree_law,
    min_tree_edge_probability,
    negative_correlation_check,
)


def chord_cycle():
    """C_5 plus one chord."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])


CORPUS = {
    "K4": complete_graph(4),
    "C5": cycle_graph(5),
    "C5+chord": chord_cycle(),
    "W5": wheel_graph(5),
    "prism": prism_graph(),
}


ENUMERATION_CASES = dict(
    CORPUS,
    K1=Graph(1, []),
    disconnected=Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    K6=complete_graph(6),
    W11=wheel_graph(11),  # m = 20, the cap
)


def _contains(trees: np.ndarray, m: int) -> np.ndarray:
    """One row per tree: which of the m edges it holds."""
    contains = np.zeros((len(trees), m), dtype=bool)
    contains[np.arange(len(trees))[:, None], trees] = True
    return contains


def test_enumeration_matches_matrix_tree_everywhere():
    # n-1 distinct edges that connect the graph form a spanning tree, so
    # unique rows numbering tau are exactly the spanning trees.
    for name, g in ENUMERATION_CASES.items():
        trees = enumerate_trees(g)
        assert trees.dtype == np.int64, name
        assert trees.shape == (spanning_tree_count(g), g.n - 1), name
        assert (np.diff(trees, axis=1) > 0).all(), name
        for row in trees.tolist():
            assert Graph(g.n, [g.edge(e) for e in row]).is_connected(), (name, row)
        rows = [tuple(r) for r in trees.tolist()]
        assert rows == sorted(set(rows)), name


def test_enumeration_matches_on_random_graphs():
    for s in range(5):
        g = gnp_graph(7, 0.55, seed=40 + s)
        if g.m > 20 or not g.is_connected():
            continue
        assert len(enumerate_trees(g)) == spanning_tree_count(g)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="20"):
        enumerate_trees(complete_graph(7))


def test_exact_marginals_match_effective_resistance():
    for name, g in CORPUS.items():
        trees = enumerate_trees(g)
        marginals = _contains(trees, g.m).mean(axis=0)
        assert marginals == pytest.approx(effective_resistances(g), abs=1e-9), name


def test_exact_tree_law_matches_enumeration_counts():
    for name, g in CORPUS.items():
        contains = _contains(enumerate_trees(g), g.m)
        total = len(contains)
        for k in range(1, 5):
            # With replacement: a repeated edge must count as one event.
            for ids in itertools.combinations_with_replacement(range(g.m), k):
                tau, joint, absent, marg = exact_tree_law(g, ids)
                sub = contains[:, list(ids)]
                assert tau == total, name
                assert joint == Fraction(int(sub.all(axis=1).sum()), total), (name, ids)
                assert absent == Fraction(int((~sub).all(axis=1).sum()), total), (name, ids)
                assert marg == tuple(Fraction(int(c), total) for c in sub.sum(axis=0)), (name, ids)


def test_single_resistance_is_bitwise_the_batched_value():
    graphs = dict(CORPUS, petersen=petersen_graph(), rr40=random_regular_graph(40, 3, seed=4))
    for name, g in graphs.items():
        batch = effective_resistances(g)
        for eid in range(g.m):
            assert effective_resistances(g, [eid])[0] == batch[eid], (name, eid)
    for n in (64, 70):
        g = random_regular_graph(n, 3, seed=5)
        assert g.is_connected()
        batch = effective_resistances(g)
        for eid in (0, g.m // 2, g.m - 1):
            assert effective_resistances(g, [eid])[0] == batch[eid], (n, eid)


def test_float_resistances_match_exact_at_every_n():
    rr70 = random_regular_graph(70, 3, seed=6)
    ground_edge = next(e for e in range(rr70.m) if rr70.n - 1 in rr70.edge(e))
    cases = [(g, range(g.m)) for g in CORPUS.values()]
    cases += [(complete_graph(2), [0]), (rr70, (0, ground_edge, rr70.m // 2, rr70.m - 1))]
    for g, eids in cases:
        assert g.is_connected()
        floats = effective_resistances(g)
        for eid in eids:
            exact = effective_resistance_exact(g, *g.edge(eid))
            assert abs(floats[eid] - exact) <= 1e-12 * exact, (g.n, eid)


def test_exact_oracles_reject_a_graph_without_spanning_tree():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(ValueError):
        effective_resistance_exact(g, 0, 1)
    with pytest.raises(ValueError, match="no spanning tree"):
        negative_correlation_check(g, [0, 3], 0, 0)


def test_negative_correlation_exact_on_all_pairs():
    for name, g in CORPUS.items():
        for e1, e2 in itertools.combinations(range(g.m), 2):
            rep = negative_correlation_check(g, [e1, e2], 0, 0)
            assert rep.exact
            assert rep.inclusion_ok, f"{name} ({e1},{e2})"
            assert rep.exclusion_ok, f"{name} ({e1},{e2})"


def test_negative_correlation_k4_disjoint_pair_values():
    g = complete_graph(4)
    rep = negative_correlation_check(g, [(0, 1), (2, 3)], 0, 0)
    assert rep.joint == pytest.approx(4 / 16)
    assert rep.marginals == (0.5, 0.5)
    assert rep.joint == pytest.approx(rep.product)  # equality at this pair


def test_negative_correlation_single_edge_degenerate():
    rep = negative_correlation_check(complete_graph(4), [0], 0, 0)
    assert rep.joint == rep.product
    assert rep.inclusion_ok and rep.exclusion_ok


def test_negative_correlation_monte_carlo_on_larger_graph():
    g = random_regular_graph(70, 3, seed=3)  # above EXACT_LAW_MAX_N
    rep = negative_correlation_check(g, [0, 10], 200_000, seed=5)
    assert not rep.exact
    assert rep.trials == 200_000
    assert rep.inclusion_ok and rep.exclusion_ok
    assert rep.margin > 0


def test_negative_correlation_is_exact_up_to_64_vertices():
    g = random_regular_graph(64, 3, seed=3)
    assert g.m > 20
    rep = negative_correlation_check(g, [0, 10], 1000, seed=5)
    assert rep.exact and rep.trials == spanning_tree_count(g)
    assert rep.inclusion_ok and rep.exclusion_ok


def test_sampled_tree_masks_match_the_exact_law_beyond_the_enumeration_cap():
    g = random_regular_graph(30, 3, seed=3)
    assert g.m > 20 and g.is_connected()
    ids = [0, 10, 20, 30]
    _, joint, absent, marg = exact_tree_law(g, ids)
    trials = 100_000
    masks, _ = _tree_masks(g, trials, substream(7, "exact-law"), ids)
    sampled = [np.count_nonzero(masks == 15), np.count_nonzero(masks == 0)]
    sampled += [np.count_nonzero(masks & (1 << j)) for j in range(len(ids))]
    for count, exact in zip(sampled, [joint, absent, *marg]):
        p = float(exact)
        assert abs(count / trials - p) <= 4 * bernoulli_se(p, trials), (count, exact)


@pytest.mark.parametrize(
    "graph", [complete_graph(4), random_regular_graph(70, 3, seed=3)], ids=["exact", "mc"]
)
def test_negative_correlation_rejects_a_repeated_edge(graph):
    # A repeated edge would count twice in the product of marginals, and the
    # Monte Carlo watch bitmask would give both copies one bit.
    u, v = graph.edge(0)
    for edges in ([0, 0], [0, (u, v)], [(v, u), 0, 1]):
        with pytest.raises(ValueError, match="distinct"):
            negative_correlation_check(graph, edges, 1000, 0)


def test_negative_correlation_input_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        negative_correlation_check(g, [], 10, 0)
    with pytest.raises(ValueError):
        negative_correlation_check(g, [0, 1, 2, 3, 4], 10, 0)


def test_chernoff_tail_small_regular_graph():
    g = random_regular_graph(64, 3, seed=11)
    assert g.is_connected()
    pick = substream(1, "cut")
    subset = np.sort(pick.choice(64, size=32, replace=False)).tolist()
    rep = chernoff_tail_check(g, [subset], 50_000, seed=2)
    assert rep.passed
    assert rep.lambdas.shape == (1, 4)
    assert (rep.bounds <= 1.0).all()
    assert rep.trials == 50_000


def test_chernoff_mean_inclusion_on_k16():
    g = complete_graph(16)
    rep = chernoff_tail_check(g, [list(range(8))], 50_000, seed=3)
    se = bernoulli_se(rep.p_bar[0], 50_000 * rep.cut_sizes[0])
    assert abs(rep.p_bar[0] - 2 / 16) <= 4 * se


def test_chernoff_tail_counts_the_trees_that_the_masks_see():
    # Re-walking the check's own stream, each tree's cut count is the popcount
    # of its mask over the cut edges.
    g = petersen_graph()
    subset = [0, 1, 2, 3, 4]
    trials = 10_000
    rep = chernoff_tail_check(g, [subset], trials, seed=5)
    ids = cut_edges(g, subset)
    masks, _ = _tree_masks(g, trials, substream(5, "chernoff-tail"), ids)
    sums = np.bitwise_count(masks)
    assert rep.p_bar[0] == float(sums.sum()) / (trials * ids.size)
    mean = rep.p_bar[0] * ids.size
    assert list(rep.empirical[0]) == [
        float(np.count_nonzero(sums < mean - lam)) / trials for lam in rep.lambdas[0]
    ]


def test_chernoff_tail_batch_equals_each_cut_alone():
    # Every cut reads the same trees, so a batched row equals a one-cut call.
    g = random_regular_graph(40, 3, seed=12)
    pick = substream(2, "cuts")
    subsets = [pick.choice(40, size=size, replace=False).tolist() for size in (20, 20, 7, 1)]
    rep = chernoff_tail_check(g, subsets, 10_000, seed=6)
    assert len(rep.subsets) == 4 and rep.trials == 10_000
    assert rep.cut_sizes.shape == rep.p_bar.shape == (4,)
    for arr in (rep.lambdas, rep.empirical, rep.bounds, rep.std_errors):
        assert arr.shape == (4, 4)
    passed = []
    for i, subset in enumerate(subsets):
        one = chernoff_tail_check(g, [subset], 10_000, seed=6)
        assert one.subsets == (tuple(sorted(subset)),) == rep.subsets[i : i + 1]
        for field in ("cut_sizes", "p_bar", "lambdas", "empirical", "bounds", "std_errors"):
            assert np.array_equal(getattr(one, field)[0], getattr(rep, field)[i]), field
        passed.append(one.passed)
    assert rep.passed == all(passed)


def test_chernoff_requires_enough_trials():
    with pytest.raises(ValueError):
        chernoff_tail_check(complete_graph(8), [[0, 1]], 100, seed=0)


def test_chernoff_rejects_no_cuts_and_invalid_cuts():
    for subsets in ([], [[0, 1], []], [[0, 8]], [list(range(8))]):
        with pytest.raises(ValueError):
            chernoff_tail_check(complete_graph(8), subsets, 10_000, seed=0)


def test_min_edge_probability_regular_graph_bound():
    g = random_regular_graph(50, 3, seed=6)
    assert g.is_connected()
    val = min_tree_edge_probability(g, 100_000, seed=7)
    assert val >= 1 / 3 - 0.02


def test_every_edge_beats_inverse_degree_bound():
    g = random_regular_graph(40, 4, seed=8)
    assert g.is_connected()
    trials = 60_000
    freqs = tree_edge_frequencies(g, trials, seed=9)
    for f in freqs:
        assert f >= 1 / 4 - 4 * bernoulli_se(float(f), trials)


def test_bridge_edge_probability_is_one():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    freqs = tree_edge_frequencies(g, 5_000, seed=10)
    bridge = g.edge_id(2, 3)
    assert freqs[bridge] == 1.0
    assert float(freqs.min()) < 1.0


def test_coupling_estimate_p1_collapses():
    tv = coupling_distance_estimate(6, 1.0, 60_000, seed=12)
    # Expected multinomial noise floor is ~sqrt(1296/(2*pi*N)) ~ 0.06.
    assert tv <= 0.09


def test_coupling_estimate_below_p1_equals_failure_fraction():
    # Below p = 1 the estimate is the share of trials whose walk strands;
    # replay the per-trial seeds.  At n <= 8 this is the branch beside p = 1's
    # exact TV.  The pins were read when gnp_graph drew all pairs at once, so
    # they also hold the chunked generator's hosts fixed.
    p = 0.6
    for n, trials, seed, pinned in ((4, 2000, 3, 0.857), (6, 400, 11, 0.8675)):
        hosts = (gnp_graph(n, p, child_seed(seed, "host", t)) for t in range(trials))
        failures = sum(
            not process_bp(host, p, child_seed(seed, "trial", t)).success
            for t, host in enumerate(hosts)
        )
        assert 0 < failures < trials
        est = coupling_distance_estimate(n, p, trials, seed)
        assert est == failures / trials == pinned


def test_coupling_estimate_failure_rate_regime():
    est = coupling_distance_estimate(64, 10 * math.log(64) / 64, 60, seed=13)
    assert 0.0 <= est <= 1.0


def test_coupling_estimate_trend_in_p():
    n = 48
    rates = []
    for c in (1.5, 4.0, 12.0):
        p = min(c * math.log(n) / n, 1.0)
        rates.append(coupling_distance_estimate(n, p, 100, seed=14))
    # Average trend: denser hosts strand the walk less often.
    assert rates[-1] <= rates[0]
    assert min(rates) == rates[-1] or rates[-1] <= rates[1]


def test_uniformity_chi_square_on_enumerable_corpus():
    trials = 120_000
    for name in ("K4", "C5", "C5+chord"):
        g = CORPUS[name]
        count = spanning_tree_count(g)
        assert count <= 30
        masks, _ = _tree_masks(g, trials, substream(15, "chisq", name), np.arange(g.m))
        _, counts = np.unique(masks, return_counts=True)
        assert len(counts) == count
        chi2 = ((counts - trials / count) ** 2 / (trials / count)).sum()
        crit = stats.chi2.ppf(1 - 0.001, df=count - 1)
        assert chi2 <= crit, f"{name}: chi2={chi2:.1f} crit={crit:.1f}"
