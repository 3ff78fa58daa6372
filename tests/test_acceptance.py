"""Acceptance suite: one test per headline criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible under pytest -s or on
failure) including its runtime against the declared budget.  Statistical
checks use frozen seeds and 4-standard-error margins throughout.
"""

import itertools
import math
import time

import numpy as np

from treesplice.cuts import (
    sampled_cut_ratios,
    sparsifier_quality,
    spectral_lower_bound,
    spectral_lower_bounds,
    vertex_expansion_exact,
)
from treesplice.experiments import (
    ExperimentConfig,
    PRESETS,
    run_preset,
    strip_meta,
)
from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    petersen_graph,
    prism_graph,
    random_regular_graph,
    wheel_graph,
)
from treesplice.graph import Graph
from treesplice.linalg import effective_resistances, spanning_tree_count
from treesplice.lowerbound import (
    forced_cut_events,
    forced_cut_probability_bound,
    lower_bound_family,
    validate_family,
)
from treesplice.routing import reliability_experiment, stretch_stats
from treesplice.sampler import (
    _tree_masks,
    aldous_broder,
    process_bp,
    tree_edge_frequencies,
)
from treesplice.seeds import child_seed, substream
from treesplice.splice import sparsify_gnp, splice, splice_gnp
from treesplice.verify import (
    bernoulli_se,
    chernoff_tail_check,
    coupling_distance_estimate,
    enumerate_trees,
    negative_correlation_check,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.time()

    def finish(self, passed: bool, detail: str) -> None:
        took = time.time() - self.start
        status = "PASS" if passed and took < self.seconds else "FAIL"
        print(
            f"ACCEPTANCE {self.name}: {status} "
            f"({took:.1f}s / budget {self.seconds:.0f}s) {detail}"
        )
        assert passed, f"{self.name}: {detail}"
        assert took < self.seconds, f"{self.name}: runtime {took:.1f}s over budget"


def chord_cycle():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])


def test_c01_uniformity_oracle_k4():
    budget = Budget("1 uniformity on K_4", 30)
    g = complete_graph(4)
    n_trees = spanning_tree_count(g)
    assert n_trees == 16
    assert len(enumerate_trees(g)) == 16
    trials = 1_600_000
    masks, _ = _tree_masks(g, trials, substream(101, "uniformity"), np.arange(g.m))
    _, counts = np.unique(masks, return_counts=True)
    tv = 0.5 * (
        float(np.abs(counts / trials - 1 / 16).sum()) + (16 - len(counts)) / 16
    )
    budget.finish(tv <= 0.01, f"TV={tv:.5f} <= 0.01 over {len(counts)}/16 trees")


def test_c02_effective_resistance_law():
    budget = Budget("2 effective-resistance law", 120)
    trials = 100_000
    graphs = {
        "K10": complete_graph(10),
        "C5": cycle_graph(5),
        "petersen": petersen_graph(),
        "3reg20": random_regular_graph(20, 3, seed=202),
    }
    assert graphs["3reg20"].is_connected()
    worst = 0.0
    for name, g in graphs.items():
        freqs = tree_edge_frequencies(g, trials, seed=child_seed(102, name))
        worst = max(worst, float(np.abs(freqs - effective_resistances(g)).max()))
    exact_worst = 0.0
    for g in (complete_graph(4), cycle_graph(5)):
        trees = enumerate_trees(g)
        marginals = np.bincount(trees.ravel(), minlength=g.m) / len(trees)
        exact_worst = max(exact_worst, float(np.abs(marginals - effective_resistances(g)).max()))
    budget.finish(
        worst <= 0.01 and exact_worst <= 1e-9,
        f"max MC deviation {worst:.4f} <= 0.01, max exact gap {exact_worst:.2e} <= 1e-9",
    )


def test_c03_negative_correlation():
    budget = Budget("3 negative correlation", 180)
    corpus = {
        "K4": complete_graph(4),
        "W5": wheel_graph(5),
        "prism": prism_graph(),
        "C5+chord": chord_cycle(),
    }
    exact_checked = 0
    for name, g in corpus.items():
        for e1, e2 in itertools.combinations(range(g.m), 2):
            rep = negative_correlation_check(g, [e1, e2], 0, 0)
            assert rep.exact and rep.inclusion_ok and rep.exclusion_ok, (name, e1, e2)
            exact_checked += 1
    trials = 1_000_000
    mc_checked = 0
    for name, g in (
        ("petersen", petersen_graph()),
        ("3reg30", random_regular_graph(30, 3, seed=303)),
    ):
        assert g.is_connected()
        masks, _ = _tree_masks(g, trials, substream(103, "mc", name), np.arange(g.m))
        pick = substream(103, "pairs", name)
        pairs = set()
        while len(pairs) < 50:
            a, b = (int(x) for x in pick.choice(g.m, size=2, replace=False))
            pairs.add((min(a, b), max(a, b)))
        for e1, e2 in sorted(pairs):
            b1 = np.uint64(1 << e1)
            b2 = np.uint64(1 << e2)
            m1 = (masks & b1) != 0
            m2 = (masks & b2) != 0
            joint = float(np.count_nonzero(m1 & m2)) / trials
            p1 = float(np.count_nonzero(m1)) / trials
            p2 = float(np.count_nonzero(m2)) / trials
            var = joint * (1 - joint) + p2**2 * p1 * (1 - p1) + p1**2 * p2 * (1 - p2)
            margin = 4.0 * math.sqrt(var / trials)
            assert joint <= p1 * p2 + margin, (name, e1, e2, joint, p1 * p2)
            mc_checked += 1
    budget.finish(
        True,
        f"{exact_checked} exact pairs, {mc_checked} Monte Carlo pairs at {trials} trials",
    )


def test_c04_tail_bound():
    budget = Budget("4 tail bound", 120)
    g = random_regular_graph(64, 3, seed=404)
    assert g.is_connected()
    trials = 100_000
    pick = substream(104, "cuts")
    subsets = [np.sort(pick.choice(64, size=32, replace=False)).tolist() for _ in range(10)]
    rep = chernoff_tail_check(g, subsets, trials, child_seed(104, "tail", 0))
    budget.finish(rep.passed, f"10 cuts x 4 grid points at {trials} trials")


def test_c05_complete_graph_expansion():
    budget = Budget("5 complete-graph expansion", 300)
    seeds = 100
    good = 0
    k16 = complete_graph(16)
    for s in range(seeds):
        u = splice(k16, 2, child_seed(105, "splice", s))
        good += vertex_expansion_exact(u).value >= 0.5
    rate = good / seeds
    lam_min = math.inf
    means = []
    for size in (128, 256, 512, 1024):
        vals = []
        kn = complete_graph(size)
        for s in range(20):
            u = splice(kn, 2, child_seed(105, "spectral", size, s))
            lam = spectral_lower_bound(u)
            vals.append(lam)
            lam_min = min(lam_min, lam)
        means.append(float(np.mean(vals)))
    trend_ok = means[-1] >= 0.8 * means[0]
    detail = (
        f"vertex-expansion>=1/2 rate {rate:.2f} (need >=0.95), "
        f"lambda2 min {lam_min:.3f} (need >=0.15), "
        f"means {['%.3f' % m for m in means]}, trend ratio {means[-1]/means[0]:.2f}"
    )
    budget.finish(rate >= 0.95 and lam_min >= 0.15 and trend_ok, detail)


def test_c06_bounded_degree_cut_preservation():
    budget = Budget("6 bounded-degree cut preservation", 300)
    n, d, k = 256, 3, 2
    bound = 1.0 / (81.0 * math.log(n))
    worst = math.inf
    for s in range(20):
        g = random_regular_graph(n, d, child_seed(106, "graph", s))
        if not g.is_connected():
            g = random_regular_graph(n, d, child_seed(106, "graph-retry", s))
        u = splice(g, k, child_seed(106, "splice", s))
        ratios = sampled_cut_ratios(g, u, 10_000, child_seed(106, "cuts", s))
        assert len(ratios) >= 10_000
        worst = min(worst, ratios.ratio.min())
    budget.finish(
        worst >= bound, f"min ratio {worst:.5f} >= 1/(81 ln 256) = {bound:.5f}"
    )


def test_c07_process_bp_coupling():
    budget = Budget("7 oriented-walk process coupling", 600)
    n = 1024
    p = 20 * math.log(n) / n
    successes = 0
    for t in range(100):
        host = gnp_graph(n, p, child_seed(107, "host", t))
        successes += process_bp(host, p, child_seed(107, "walk", t)).success
    rate = successes / 100
    tv = coupling_distance_estimate(6, 1.0, 1_000_000, child_seed(107, "tv"))
    unions = [
        splice_gnp(
            gnp_graph(n, p, child_seed(107, "lam-host", s)), p, child_seed(107, "lam-walk", s)
        )
        for s in range(20)
    ]
    lam_min = float(spectral_lower_bounds(unions).min())
    budget.finish(
        rate >= 0.9 and tv <= 0.02 and lam_min >= 0.15,
        f"success rate {rate:.2f} >= 0.9, TV {tv:.4f} <= 0.02, lambda2 min {lam_min:.3f} >= 0.15",
    )


def test_c08_sparsifier_bands():
    budget = Budget("8 sparsifier bands", 300)
    n = 1000
    p = 10 * math.log(n) / n
    c_low_all = math.inf
    c_high_all = 0.0
    sizes_ok = True
    for s in range(20):
        host = gnp_graph(n, p, child_seed(108, "host", s))
        wg = sparsify_gnp(host, p, child_seed(108, "sparsify", s))
        sizes_ok = sizes_ok and wg.graph.m <= 2 * (n - 1)
        c_low, c_high = sparsifier_quality(host, wg, 10_000, child_seed(108, "cuts", s))
        c_low_all = min(c_low_all, c_low)
        c_high_all = max(c_high_all, c_high)
    budget.finish(
        c_low_all >= 0.05 and c_high_all <= 50.0 and sizes_ok,
        f"c_low {c_low_all:.3f} >= 0.05, c_high {c_high_all:.3f} <= 50, sizes ok {sizes_ok}",
    )


def test_c09_lower_bound_machinery():
    budget = Budget("9 lower-bound machinery", 600)
    n, d = 3000, 3
    for ell in (1, 2, 3):
        fam = lower_bound_family(n, d, ell, child_seed(109, "family", ell))
        validate_family(fam)
    fam = lower_bound_family(n, d, 1, child_seed(109, "family", 1))
    start = fam.start_vertex()
    paths = len(fam.paths)
    trees = -(-100_000 // paths)
    hits = 0
    total = 0
    for t in range(trees):
        _, trace = aldous_broder(fam.graph, child_seed(109, "tree", t), start=start)
        hits += int(forced_cut_events(fam, trace).sum())
        total += paths
    rate = hits / total
    bound = forced_cut_probability_bound(d, 1)
    se = bernoulli_se(rate, total)
    budget.finish(
        total >= 100_000 and rate >= bound - 4 * se,
        f"event rate {rate:.5f} >= 1/125 - 4se = {bound - 4 * se:.5f} "
        f"({total} observations, {paths} segments)",
    )


def test_c10_stretch_claims():
    budget = Budget("10 stretch claims", 300)
    pairs = 2000
    big, small = [], []
    dia_max = 0
    # K_1024 and K_256 are given by size: nothing is built for a K_n base.
    for s in range(20):
        one = splice(1024, 1, child_seed(110, "one", 1024, s))
        ms, _ = stretch_stats(1024, one, pairs, child_seed(110, "pairs", 1024, s))
        big.append(ms)
        one_s = splice(256, 1, child_seed(110, "one", 256, s))
        ms_s, _ = stretch_stats(256, one_s, pairs, child_seed(110, "pairs", 256, s))
        small.append(ms_s)
        two = splice(1024, 2, child_seed(110, "two", s))
        _, dia = stretch_stats(1024, two, pairs, child_seed(110, "dia", s))
        dia_max = max(dia_max, int(dia))
    ratio = float(np.mean(big)) / float(np.mean(small))
    budget.finish(
        1.6 <= ratio <= 2.4 and dia_max <= 40,
        f"stretch ratio {ratio:.2f} in [1.6, 2.4], two-splicer diameter max {dia_max} <= 40",
    )


def test_c11_routing_reliability():
    budget = Budget("11 routing reliability", 180)
    g = complete_graph(256)
    base, multi = reliability_experiment(g, (1, 2), 0.05, pairs=200, trials=50, seed=111)
    gain = multi.delivered_fraction - base.delivered_fraction
    ceiling_ok = all(
        t.delivered_fraction <= t.ceiling_fraction + 1e-12
        for summary in (base, multi)
        for t in summary.trials
    )
    budget.finish(
        gain >= 0.05 and ceiling_ok,
        f"delivery k=2 {multi.delivered_fraction:.3f} vs k=1 "
        f"{base.delivered_fraction:.3f} (gain {gain:.3f} >= 0.05), ceiling ok {ceiling_ok}",
    )


DETERMINISM_SCALE = {
    "thm-bounded-degree": dict(n=32, trials=2, samples=200),
    "thm-lower-bound": dict(n=400, trials=10),
    "thm-complete-graph": dict(n=8, trials=5, samples=1),
    "thm-random-graph": dict(n=64, trials=5, samples=5_000),
    "thm-sparsifier": dict(n=150, trials=2, samples=200),
    "thm-tail-bound": dict(n=24, trials=15_000, samples=2),
    "stretch-diameter": dict(n=64, trials=2, samples=200),
    "routing-reliability": dict(n=48, trials=3, samples=40),
}


def test_c12_preset_determinism(tmp_path):
    budget = Budget("12 preset determinism", 300)
    assert set(DETERMINISM_SCALE) == set(PRESETS)
    mismatched = []
    for name, scale in sorted(DETERMINISM_SCALE.items()):
        texts = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}.json"
            cfg = ExperimentConfig(preset=name, seed=1212, out_json=str(out), **scale)
            run_preset(cfg)
            texts.append(strip_meta(out.read_text()))
        if texts[0] != texts[1]:
            mismatched.append(name)
    budget.finish(
        not mismatched,
        f"all {len(DETERMINISM_SCALE)} presets byte-identical"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
