"""Distributional checks: uniformity, negative correlation, tail bounds, coupling.

Every Monte Carlo report carries its trial count, point estimates, and
standard errors; assertions compare against estimate +/- 4 standard errors
with frozen seeds.  Exact verification switches in whenever the spanning-tree
space is enumerable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graph import Graph, cut_edges
from .generators import complete_graph, direct_edges_dp, gnp_graph
from .sampler import SpanningTree, _batch_cover_walks, process_bp
from .seeds import child_seed, substream

ENUMERATION_EDGE_CAP = 20


def bernoulli_se(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def enumerate_trees(graph: Graph) -> list[SpanningTree]:
    """All spanning trees, each exactly once, for graphs with at most 20 edges.

    Scans every (n-1)-subset of the edges and keeps the acyclic connected
    ones; the count always matches the matrix-tree determinant.
    """
    m = graph.m
    n = graph.n
    if m > ENUMERATION_EDGE_CAP:
        raise ValueError(f"enumeration is capped at {ENUMERATION_EDGE_CAP} edges")
    if n < 1:
        return []
    eu = graph.edge_u.tolist()
    ev = graph.edge_v.tolist()
    out: list[SpanningTree] = []
    for subset in combinations(range(m), n - 1):
        parent_uf = list(range(n))

        def find(x: int) -> int:
            while parent_uf[x] != x:
                parent_uf[x] = parent_uf[parent_uf[x]]
                x = parent_uf[x]
            return x

        acyclic = True
        for e in subset:
            ra, rb = find(eu[e]), find(ev[e])
            if ra == rb:
                acyclic = False
                break
            parent_uf[ra] = rb
        if not acyclic:
            continue
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in subset:
            adj[eu[e]].append((ev[e], e))
            adj[ev[e]].append((eu[e], e))
        parent = np.full(n, -1, dtype=np.int32)
        parent_edge = np.full(n, -1, dtype=np.int32)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w, e in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    parent_edge[w] = e
                    stack.append(w)
        out.append(SpanningTree(0, parent, parent_edge))
    return out


def _resolve_edge_ids(graph: Graph, edges) -> list[int]:
    ids = []
    for e in edges:
        if isinstance(e, (tuple, list)):
            eid = graph.edge_id(int(e[0]), int(e[1]))
            if eid is None:
                raise ValueError(f"({e[0]}, {e[1]}) is not an edge")
            ids.append(eid)
        else:
            eid = int(e)
            if not 0 <= eid < graph.m:
                raise ValueError("edge id out of range")
            ids.append(eid)
    return ids


@dataclass(frozen=True)
class CorrelationReport:
    edge_ids: tuple[int, ...]
    joint: float
    marginals: tuple[float, ...]
    joint_complement: float
    marginals_complement: tuple[float, ...]
    exact: bool
    trials: int
    margin: float

    @property
    def product(self) -> float:
        return math.prod(self.marginals)

    @property
    def product_complement(self) -> float:
        return math.prod(self.marginals_complement)

    @property
    def inclusion_ok(self) -> bool:
        return self.joint <= self.product + self.margin

    @property
    def exclusion_ok(self) -> bool:
        return self.joint_complement <= self.product_complement + self.margin

    def to_dict(self) -> dict:
        return {
            "edge_ids": list(self.edge_ids),
            "joint": self.joint,
            "product": self.product,
            "joint_complement": self.joint_complement,
            "product_complement": self.product_complement,
            "exact": self.exact,
            "trials": self.trials,
            "margin": self.margin,
            "inclusion_ok": self.inclusion_ok,
            "exclusion_ok": self.exclusion_ok,
        }


def negative_correlation_check(
    graph: Graph, edges, trials: int, seed: int
) -> CorrelationReport:
    """Joint tree-membership of an edge set versus the product of marginals.

    Exact by enumeration when feasible; otherwise Monte Carlo with a
    4-standard-error margin.  Checks the complementary (all-absent) events
    too.
    """
    ids = _resolve_edge_ids(graph, edges)
    if not 1 <= len(ids) <= 4:
        raise ValueError("between 1 and 4 edges required")
    if graph.m <= ENUMERATION_EDGE_CAP:
        trees = enumerate_trees(graph)
        total = len(trees)
        if total == 0:
            raise ValueError("graph has no spanning tree")
        contains = np.zeros((total, len(ids)), dtype=bool)
        for t_i, tree in enumerate(trees):
            tree_edges = set(tree.edge_ids().tolist())
            for j, e in enumerate(ids):
                contains[t_i, j] = e in tree_edges
        joint = Fraction(int(contains.all(axis=1).sum()), total)
        joint_c = Fraction(int((~contains).all(axis=1).sum()), total)
        marg = tuple(Fraction(int(c), total) for c in contains.sum(axis=0))
        return CorrelationReport(
            edge_ids=tuple(ids),
            joint=float(joint),
            marginals=tuple(float(x) for x in marg),
            joint_complement=float(joint_c),
            marginals_complement=tuple(float(1 - x) for x in marg),
            exact=True,
            trials=total,
            margin=0.0,
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = substream(seed, "negative-correlation")
    res = _batch_cover_walks(graph, trials, rng, watch_edge_ids=np.array(ids))
    masks = res["masks"]
    all_bits = np.uint64((1 << len(ids)) - 1)
    joint = float(np.count_nonzero(masks == all_bits)) / trials
    joint_c = float(np.count_nonzero(masks == np.uint64(0))) / trials
    marg = tuple(
        float(np.count_nonzero(masks & np.uint64(1 << j))) / trials
        for j in range(len(ids))
    )
    # Delta-method error for joint - product, same-sample correlations ignored
    # in favor of a conservative sum of term variances.
    var = joint * (1 - joint)
    for j, mj in enumerate(marg):
        rest = math.prod(marg[:j] + marg[j + 1 :])
        var += (rest**2) * mj * (1 - mj)
    margin = 4.0 * math.sqrt(var / trials)
    return CorrelationReport(
        edge_ids=tuple(ids),
        joint=joint,
        marginals=marg,
        joint_complement=joint_c,
        marginals_complement=tuple(1.0 - x for x in marg),
        exact=False,
        trials=trials,
        margin=margin,
    )


@dataclass(frozen=True)
class TailCheckReport:
    subset: tuple[int, ...]
    cut_size: int
    p_bar: float
    lambdas: tuple[float, ...]
    empirical: tuple[float, ...]
    bounds: tuple[float, ...]
    std_errors: tuple[float, ...]
    trials: int

    @property
    def passed(self) -> bool:
        return all(
            e <= b + 4.0 * s
            for e, b, s in zip(self.empirical, self.bounds, self.std_errors)
        )

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "cut_size": self.cut_size,
            "p_bar": self.p_bar,
            "lambdas": list(self.lambdas),
            "empirical": list(self.empirical),
            "bounds": list(self.bounds),
            "std_errors": list(self.std_errors),
            "trials": self.trials,
            "passed": self.passed,
        }


LAMBDA_GRID = (0.25, 0.5, 1.0, 1.5)


def chernoff_tail_check(
    graph: Graph, subset, trials: int, seed: int
) -> TailCheckReport:
    """Lower tail of the tree-edge count across a cut versus exp(-l^2/(2 p m)).

    The mean inclusion probability over the cut is estimated from the same
    trials; the tail is evaluated at lambda = {0.25, 0.5, 1, 1.5} * sqrt(p m).
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a stable tail estimate")
    ids = cut_edges(graph, subset)
    rng = substream(seed, "chernoff-tail")
    res = _batch_cover_walks(
        graph, trials, rng, edge_counts=True, cut_edge_ids=ids
    )
    cut_m = int(ids.size)
    p_bar = float(res["edge_counts"][ids].sum()) / (trials * cut_m)
    mean = p_bar * cut_m
    scale = math.sqrt(max(mean, 1e-12))
    sums = res["cut_counts"]
    lambdas, empirical, bounds, ses = [], [], [], []
    for mult in LAMBDA_GRID:
        lam = mult * scale
        tail = float(np.count_nonzero(sums < mean - lam)) / trials
        bound = math.exp(-(lam**2) / (2.0 * mean))
        lambdas.append(lam)
        empirical.append(tail)
        bounds.append(bound)
        ses.append(bernoulli_se(tail, trials))
    return TailCheckReport(
        subset=tuple(int(v) for v in np.atleast_1d(np.asarray(sorted(subset)))),
        cut_size=cut_m,
        p_bar=p_bar,
        lambdas=tuple(lambdas),
        empirical=tuple(empirical),
        bounds=tuple(bounds),
        std_errors=tuple(ses),
        trials=trials,
    )


def min_tree_edge_probability(graph: Graph, trials: int, seed: int) -> float:
    """Smallest empirical tree-membership frequency over all edges."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = substream(seed, "min-edge-probability")
    res = _batch_cover_walks(graph, trials, rng, edge_counts=True)
    return float(res["edge_counts"].min()) / trials


def _kn_edge_id(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def tree_mask_in_complete(n: int, tree: SpanningTree) -> int:
    """Bitmask of the tree's edges under complete-graph edge numbering."""
    mask = 0
    for v in range(n):
        p = int(tree.parent[v])
        if p >= 0:
            mask |= 1 << _kn_edge_id(n, p, v)
    return mask


def uniform_tv_distance(
    counts, trials: int, total_trees: int, failures: int = 0
) -> float:
    """Total variation between sampled trees and the uniform law on ``total_trees``.

    ``counts`` tallies each distinct tree seen in ``trials`` runs; the
    ``failures`` runs that gave no tree count as their own outcome mass.
    """
    u = 1.0 / total_trees
    seen_mass_gap = sum(abs(c / trials - u) for c in counts)
    unseen = total_trees - len(counts)
    return 0.5 * (seen_mass_gap + unseen * u + failures / trials)


def coupling_distance_estimate(
    n: int, p: float, trials: int, seed: int, start: int = 0
) -> float:
    """Upper bound / estimate of the gap between oriented-walk trees and uniform.

    For n <= 8 the spanning-tree space of K_n is enumerable (n^(n-2) cells), so
    the total variation distance between the empirical oriented-walk tree
    distribution and the exact uniform distribution is computed directly, with
    failed runs counted as their own outcome mass.  Above that, the empirical
    failure frequency over fresh G(n, p) instances is returned; the two walks
    can be coupled until a failure, so that frequency bounds the distance.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n <= 8:
        total_trees = n ** (n - 2)
        if p >= 1.0:
            host = complete_graph(n)
            oriented = direct_edges_dp(host, 1.0, child_seed(seed, "orient"))
            # complete_graph numbers edges as _kn_edge_id does, so the mask
            # over all edge ids is the tree's key.
            res = _batch_cover_walks(
                oriented, trials, substream(seed, "coupling"), start=start,
                watch_edge_ids=np.arange(host.m),
            )
            stuck = res["stuck"]
            counts = np.unique(res["masks"][~stuck], return_counts=True)[1].tolist()
            failures = int(stuck.sum())
        else:
            tally: dict[int, int] = {}
            failures = 0
            for t in range(trials):
                host = gnp_graph(n, p, child_seed(seed, "host", t))
                res = process_bp(host, p, child_seed(seed, "trial", t), start)
                if res.success:
                    key = tree_mask_in_complete(n, res.tree)
                    tally[key] = tally.get(key, 0) + 1
                else:
                    failures += 1
            counts = list(tally.values())
        return uniform_tv_distance(counts, trials, total_trees, failures)
    failures = 0
    for t in range(trials):
        host = gnp_graph(n, p, child_seed(seed, "host", t))
        res = process_bp(host, p, child_seed(seed, "trial", t), start)
        failures += not res.success
    return failures / trials
