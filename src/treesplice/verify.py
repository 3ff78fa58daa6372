"""Distributional checks: uniformity, negative correlation, tail bounds, coupling.

``uniformity_check``, ``negative_correlation_check`` and
``chernoff_tail_check`` each return the JSON payload that ``treesplice
verify`` prints for its check, less ``check`` and ``seed``: a plain dict,
whose numpy arrays the summary writer turns into lists.  Every Monte Carlo
report carries its trial count, point estimates, and standard errors;
assertions compare against estimate +/- 4 standard errors with frozen
seeds.  They reduce lockstep walk trees with ``sampler``'s ``_tree_masks``
or ``_tree_sums``; the tail check sums a cut-membership table over one tree
batch that all its cuts share.  On graphs with at most ``EXACT_LAW_MAX_N``
vertices the negative-correlation check is exact instead: its joint,
all-absent and marginal laws are determinants of the integer transfer
currents that ``linalg`` reads from one adjugate.  ``enumerate_trees``
lists the trees of graphs with at most ``ENUMERATION_EDGE_CAP`` edges as
one edge-id array, by a combinatorial scan that is an independent reference
for that oracle and for ``uniformity_check``.  ``uniform_tv_distance`` is
the one TV of sampled trees against the uniform law, for that check and the
coupling estimate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .graph import Graph, Orientation, cut_edges
from .linalg import _bareiss_det, _ground_adjugate, _transfer_current, spanning_tree_count
from .generators import complete_graph, direct_edges_dp, gnp_graph
from .sampler import _tree_masks, _tree_sums, process_bp
from .seeds import child_seed, substream

ENUMERATION_EDGE_CAP = 20
EXACT_LAW_MAX_N = 64


def bernoulli_se(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def enumerate_trees(graph: Graph) -> np.ndarray:
    """Every spanning tree once, as a (tau, n-1) int64 array of ascending edge ids.

    Rows come in the lexicographic order of ``itertools.combinations``.  All
    (n-1)-edge subsets form one int8 table, and quick-find runs on every row
    in lockstep, one edge column at a time: an edge whose two ends already
    share a label closes a cycle and drops its row, so the n-1 acyclic edges
    of a surviving row span the graph.  No linear algebra is involved.  Raises
    ValueError above ``ENUMERATION_EDGE_CAP`` edges; at the cap, the 184,756
    subsets of W_11 (m = 20, n = 11) trace a peak of about 10 MiB.  A graph
    with one vertex has one empty tree, one with none has no tree.
    """
    m, n = graph.m, graph.n
    if m > ENUMERATION_EDGE_CAP:
        raise ValueError(f"enumeration is capped at {ENUMERATION_EDGE_CAP} edges")
    if n < 1:
        return np.empty((0, 0), dtype=np.int64)
    rows = math.comb(m, n - 1)
    subsets = chain.from_iterable(combinations(range(m), n - 1))
    sub = np.fromiter(subsets, dtype=np.int8, count=rows * (n - 1)).reshape(rows, n - 1)
    label = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (rows, 1))
    for j in range(n - 1):
        e = sub[:, j]
        a = np.take_along_axis(label, graph.edge_u[e][:, None], axis=1)
        b = np.take_along_axis(label, graph.edge_v[e][:, None], axis=1)
        keep = (a != b)[:, 0]
        sub, label, a, b = sub[keep], label[keep], a[keep], b[keep]
        np.copyto(label, b, where=label == a)
    return sub.astype(np.int64)


def exact_tree_law(
    graph: Graph, edge_ids
) -> tuple[int, Fraction, Fraction, tuple[Fraction, ...]]:
    """tau, P(S in T), P(S and T disjoint) and each P(e in T), T a uniform tree.

    With N = tau * Y the integer transfer currents on the k edges of S
    (Burton & Pemantle), P(S in T) = det(N) / tau^k and
    P(S and T disjoint) = det(tau I - N) / tau^k.  Raises ``ValueError`` when
    the graph has no spanning tree.
    """
    tau, adj = _ground_adjugate(graph)
    distinct = list(dict.fromkeys(edge_ids))  # a repeated edge is the same event
    a, b = graph.edge_u[distinct], graph.edge_v[distinct]
    cur = _transfer_current(adj, (a[:, None], b[:, None]), (a, b))
    k = len(distinct)
    absent = tau * np.identity(k, dtype=object) - cur
    marginal = {e: Fraction(cur[j, j], tau) for j, e in enumerate(distinct)}
    return (
        tau,
        Fraction(_bareiss_det(cur.tolist()), tau**k),
        Fraction(_bareiss_det(absent.tolist()), tau**k),
        tuple(marginal[e] for e in edge_ids),
    )


def negative_correlation_check(graph: Graph, edges, trials: int, seed: int) -> dict:
    """Joint tree-membership of distinct edges versus the product of marginals.

    Exact (``exact_tree_law``, ``trials`` = the tree count) on graphs with at
    most ``EXACT_LAW_MAX_N`` vertices; for four edges at n = 64 that took
    0.05 s on a 3-regular graph, 0.11-0.13 s on G(64, p) for p = 1/2, 3/4
    and 9/10, and 0.14 s on K_64 (one Xeon core).  Otherwise Monte Carlo
    with a 4-standard-error margin.  Checks the complementary (all-absent)
    events too: ``inclusion_ok`` asks joint <= product + margin, and
    ``exclusion_ok`` the same of the all-absent event.
    """
    ids = [graph.resolve_edge(e) for e in edges]
    if not 1 <= len(ids) <= 4:
        raise ValueError("between 1 and 4 edges required")
    if len(set(ids)) < len(ids):
        raise ValueError(f"edges must be distinct, got ids {ids}")
    exact = graph.n <= EXACT_LAW_MAX_N
    if exact:
        trials, joint, joint_c, marg = exact_tree_law(graph, ids)
        joint, joint_c, margin = float(joint), float(joint_c), 0.0
        marg, marg_c = [float(x) for x in marg], [float(1 - x) for x in marg]
    else:
        rng = substream(seed, "negative-correlation")
        masks, _ = _tree_masks(graph, trials, rng, ids)
        all_bits = np.uint64((1 << len(ids)) - 1)
        joint = float(np.count_nonzero(masks == all_bits)) / trials
        joint_c = float(np.count_nonzero(masks == np.uint64(0))) / trials
        marg = [
            float(np.count_nonzero(masks & np.uint64(1 << j))) / trials
            for j in range(len(ids))
        ]
        marg_c = [1.0 - x for x in marg]
        # Delta-method error for joint - product, same-sample correlations
        # ignored in favor of a conservative sum of term variances.
        var = joint * (1 - joint)
        for j, mj in enumerate(marg):
            rest = math.prod(marg[:j] + marg[j + 1 :])
            var += (rest**2) * mj * (1 - mj)
        margin = 4.0 * math.sqrt(var / trials)
    product, product_c = math.prod(marg), math.prod(marg_c)
    return {
        "edge_ids": ids,
        "joint": joint,
        "product": product,
        "joint_complement": joint_c,
        "product_complement": product_c,
        "exact": exact,
        "trials": trials,
        "margin": margin,
        "inclusion_ok": joint <= product + margin,
        "exclusion_ok": joint_c <= product_c + margin,
    }


LAMBDA_GRID = (0.25, 0.5, 1.0, 1.5)


def chernoff_tail_check(graph: Graph, subsets, trials: int, seed: int) -> dict:
    """Lower tail of the tree-edge count across each cut versus exp(-l^2/(2 p m)).

    One batch of ``trials`` uniform trees serves every cut in ``subsets``.
    Per cut, the mean inclusion probability over its edges is estimated from
    the same trees, and the tail is evaluated at
    lambda = {0.25, 0.5, 1, 1.5} * sqrt(p m).

    Per cut i: ``subsets[i]`` (sorted vertices), ``cut_sizes[i]`` and
    ``p_bar[i]``; row i of the (cuts, 4) arrays ``lambdas``, ``empirical``,
    ``bounds`` and ``std_errors`` holds its tail at the ``LAMBDA_GRID``
    points.  ``passed`` asks that every tail lie within 4 standard errors
    of its bound.  The check holds one integer sum per (tree, cut), the
    smallest unsigned type that holds n, and one boolean per (tree, cut,
    grid point) while it counts tails: memory grows as trials x cuts.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a stable tail estimate")
    subsets = [sorted(int(v) for v in s) for s in subsets]
    cuts = [cut_edges(graph, s) for s in subsets]
    if not cuts:
        raise ValueError("need at least one subset")
    member = np.zeros((graph.m + 2, len(cuts)), dtype=np.min_scalar_type(graph.n))
    for i, ids in enumerate(cuts):
        member[ids, i] = 1  # rows -1 and -2 stay zero
    sums = _tree_sums(graph, trials, substream(seed, "chernoff-tail"), member)
    cut_sizes = np.array([ids.size for ids in cuts], dtype=np.int64)
    p_bar = sums.sum(axis=0, dtype=np.int64) / (trials * cut_sizes)
    mean = p_bar * cut_sizes
    lambdas = np.sqrt(np.maximum(mean, 1e-12))[:, None] * LAMBDA_GRID
    tails = np.count_nonzero(sums[:, :, None] < mean[:, None] - lambdas, axis=0) / trials
    # Python floats and math.exp, so that no bound depends on numpy's SIMD dispatch.
    bounds = [
        [math.exp(-(lam**2) / (2.0 * mu)) for lam in row]
        for mu, row in zip(mean.tolist(), lambdas.tolist())
    ]
    bounds = np.array(bounds)
    std_errors = np.sqrt(np.maximum(tails * (1.0 - tails), 0.0) / trials)
    return {
        "subsets": subsets,
        "cut_sizes": cut_sizes,
        "p_bar": p_bar,
        "lambdas": lambdas,
        "empirical": tails,
        "bounds": bounds,
        "std_errors": std_errors,
        "trials": trials,
        "passed": bool(np.all(tails <= bounds + 4.0 * std_errors)),
    }


def uniform_tv_distance(
    graph: Graph | Orientation, trials: int, rng: np.random.Generator, total_trees: int
) -> float:
    """Total variation between sampled trees and the uniform law on ``total_trees``.

    The trees are those of ``trials`` lockstep walks on ``graph``, keyed by
    their masks over all edge ids (at most 64 edges); walks that got stuck
    before cover count as their own outcome.
    """
    masks, stuck = _tree_masks(graph, trials, rng, np.arange(graph.m))
    counts = np.unique(masks[~stuck], return_counts=True)[1].tolist()
    u = 1.0 / total_trees
    seen_mass_gap = sum(abs(c / trials - u) for c in counts)
    unseen = total_trees - len(counts)
    return 0.5 * (seen_mass_gap + unseen * u + int(stuck.sum()) / trials)


def uniformity_check(graph: Graph, trials: int, seed: int) -> dict:
    """TV of ``trials`` sampled trees from the uniform law on an enumerable tree space.

    Needs at most ``ENUMERATION_EDGE_CAP`` edges and at most 4096 trees
    (else ValueError).  Reports the matrix-tree count ``trees``, the number
    of rows of ``enumerate_trees`` (``enumerated``, which equals ``trees``
    while the scan and the determinant agree), the trial count and
    ``tv_distance``.
    """
    if graph.m > ENUMERATION_EDGE_CAP or (tau := spanning_tree_count(graph)) > 4096:
        raise ValueError("uniformity check needs an enumerable tree space")
    enumerated = len(enumerate_trees(graph))
    tv = uniform_tv_distance(graph, trials, substream(seed, "uniformity"), tau)
    return {"trees": tau, "enumerated": enumerated, "trials": trials, "tv_distance": tv}


def coupling_distance_estimate(n: int, p: float, trials: int, seed: int) -> float:
    """Upper bound / estimate of the gap between oriented-walk trees and uniform.

    At p = 1 and n <= 8 the spanning-tree space of K_n is enumerable
    (n^(n-2) cells), so the total variation distance between the empirical
    oriented-walk tree distribution and the exact uniform distribution is
    computed directly.  No walk can strand there, since stranding at v needs
    all n - 1 of v's out-arcs traversed, which visits every vertex, and each
    step is uniform over the n - 1 arcs; the TV is sampling noise alone.
    Otherwise the estimate is the failure fraction over fresh G(n, p) hosts:
    the two walks can be coupled until a failure, so that fraction bounds the
    distance.  The oriented walk never draws a tree above the uniform
    1/n^(n-2), so a TV estimate would read this same fraction.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n <= 8 and p >= 1.0:
        oriented = direct_edges_dp(complete_graph(n), 1.0, child_seed(seed, "orient"))
        rng = substream(seed, "coupling")
        return uniform_tv_distance(oriented, trials, rng, n ** (n - 2))
    failures = 0
    for t in range(trials):
        host = gnp_graph(n, p, child_seed(seed, "host", t))
        res = process_bp(host, p, child_seed(seed, "trial", t))
        failures += not res.success
    return failures / trials
