"""Interval routing with failover switching, reliability and stretch experiments.

Each spanning tree routes by its DFS entry/exit clocks (interval routing,
Santoro & Khatib 1985): the next hop from v to dst is the child of v whose
[tin, tout) holds dst, or else v's parent, so routing state is O(k*n).  Under
edge failures a route follows its current tree until blocked, then retries the
other trees in seeded-random (or round-robin) order; a (vertex, tree) pair is
never re-entered, which bounds looping.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .graph import Graph
from .seeds import below, child_seed, substream, word_stream
from .splice import _as_graph, splice


@dataclass(frozen=True)
class RoutingState:
    """Per tree t: ``parent[t]``, the DFS clocks ``tin[t]``/``tout[t]`` and,
    for each vertex, its children in preorder (``children[t][v]``, by rising tin)."""

    parent: tuple[list[int], ...]
    tin: tuple[list[int], ...]
    tout: tuple[list[int], ...]
    children: tuple[list[list[int]], ...]

    @property
    def k(self) -> int:
        return len(self.parent)

    @property
    def n(self) -> int:
        return len(self.parent[0])

    def next_hop(self, t: int, v: int, dst: int) -> int:
        """The neighbour of v on tree t's path to dst (v != dst)."""
        tin = self.tin[t]
        clock = tin[dst]
        if tin[v] < clock < self.tout[t][v]:
            kids = self.children[t][v]
            return kids[bisect_right(kids, clock, key=tin.__getitem__) - 1]
        return self.parent[t][v]


@dataclass(frozen=True)
class RouteResult:
    delivered: bool
    hops: int
    switches: int
    path: tuple[int, ...]


def build_routing(trees) -> RoutingState:
    """Interval routing state: DFS clocks and preorder children of each tree."""
    trees = tuple(trees)
    if not trees:
        raise ValueError("need at least one tree")
    n = trees[0].n
    for t in trees:
        if t.n != n:
            raise ValueError("trees span different vertex sets")
    per_tree = []
    for tree in trees:
        order, tin, tout = tree.dfs_intervals()
        parent = tree.parent.tolist()
        kids: list[list[int]] = [[] for _ in range(n)]
        for v in order.tolist()[1:]:
            kids[parent[v]].append(v)
        per_tree.append((parent, tin.tolist(), tout.tolist(), kids))
    parent, tin, tout, children = zip(*per_tree)
    return RoutingState(parent, tin, tout, children)


def route(
    state: RoutingState,
    src: int,
    dst: int,
    failed=(),
    policy: str = "random",
    hop_cap: int | None = None,
    seed: int = 0,
) -> RouteResult:
    """Route src -> dst over the trees, skipping failed base edges.

    ``failed`` holds (u, v) tuples in either orientation.  At each vertex the
    current tree's next hop is taken if its edge is alive; otherwise the other
    trees are tried in seeded-random order (policy "random") or cyclically
    (policy "round-robin").  The route fails when every tree's next hop is
    dead, when a (vertex, tree) state repeats, or at the hop cap (default 4n).
    """
    n = state.n
    k = state.k
    if src == dst:
        raise ValueError("src and dst must differ")
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError("vertex out of range")
    if hop_cap is None:
        hop_cap = 4 * n
    if hop_cap < 1:
        raise ValueError("hop cap must be >= 1")
    dead = frozenset(failed)
    word = word_stream(substream(seed, "route"), size=16)
    cur = src
    tree = 0
    hops = 0
    switches = 0
    path = [src]
    visited_states = {(src, 0)}
    while cur != dst:
        if hops >= hop_cap:
            return RouteResult(False, hops, switches, tuple(path))
        order = [tree] + [t for t in range(k) if t != tree]
        if policy == "random" and k > 1:
            rest = order[1:]
            for i in range(len(rest) - 1, 0, -1):
                j = below(word, i + 1)
                rest[i], rest[j] = rest[j], rest[i]
            order = order[:1] + rest
        elif policy not in ("random", "round-robin"):
            raise ValueError(f"unknown policy {policy!r}")
        moved = False
        for t in order:
            nh = state.next_hop(t, cur, dst)
            if (cur, nh) in dead or (nh, cur) in dead:
                continue
            if (nh, t) in visited_states:
                continue
            if t != tree:
                switches += 1
                tree = t
            visited_states.add((nh, t))
            cur = nh
            path.append(nh)
            hops += 1
            moved = True
            break
        if not moved:
            return RouteResult(False, hops, switches, tuple(path))
    return RouteResult(True, hops, switches, tuple(path))


@dataclass(frozen=True)
class ReliabilityTrial:
    trial: int
    delivered_fraction: float
    ceiling_fraction: float
    mean_hops: float
    mean_switches: float


@dataclass(frozen=True)
class ReliabilitySummary:
    k: int
    failure_prob: float
    pairs: int
    trials: tuple[ReliabilityTrial, ...]

    @property
    def delivered_fraction(self) -> float:
        return float(np.mean([t.delivered_fraction for t in self.trials]))

    @property
    def ceiling_fraction(self) -> float:
        return float(np.mean([t.ceiling_fraction for t in self.trials]))

    def csv_rows(self, seed: int) -> list[dict]:
        return [
            {
                "seed": seed,
                "trial": t.trial,
                "failure_prob": self.failure_prob,
                "delivered_fraction": t.delivered_fraction,
                "ceiling_fraction": t.ceiling_fraction,
                "mean_hops": t.mean_hops,
                "mean_switches": t.mean_switches,
            }
            for t in self.trials
        ]


def reliability_experiment(
    graph: Graph,
    k: int,
    failure_prob: float,
    pairs: int,
    trials: int,
    seed: int,
) -> ReliabilitySummary:
    """Per trial: fail base edges independently, route random pairs over a splicer.

    Also reports the per-trial ceiling (fraction of sampled pairs still
    connected in the surviving base graph); delivery can never exceed it.
    Failure draws and pair choices depend only on (seed, trial), so runs with
    different k are paired.
    """
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError("failure_prob must lie in [0, 1]")
    if pairs < 1 or trials < 1:
        raise ValueError("pairs and trials must be >= 1")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    results = []
    for t in range(trials):
        spl = splice(graph, k, child_seed(seed, "splice", t))
        state = build_routing(spl.source_trees)
        f_rng = substream(seed, "failures", t)
        fail_mask = f_rng.random(graph.m) < failure_prob
        dead_pairs = frozenset(
            (int(u), int(v))
            for u, v in zip(graph.edge_u[fail_mask], graph.edge_v[fail_mask])
        )
        p_rng = substream(seed, "pairs", t)
        srcs = p_rng.integers(0, n, size=pairs)
        offs = p_rng.integers(1, n, size=pairs)
        dsts = (srcs + offs) % n
        labels = csgraph.connected_components(
            graph._adjacency(~fail_mask), directed=False
        )[1]
        delivered = 0
        hop_total = 0
        switch_total = 0
        connected = 0
        for i in range(pairs):
            s, d = int(srcs[i]), int(dsts[i])
            connected += labels[s] == labels[d]
            r = route(
                state,
                s,
                d,
                failed=dead_pairs,
                seed=child_seed(seed, "route", t, i),
            )
            if r.delivered:
                delivered += 1
                hop_total += r.hops
                switch_total += r.switches
        results.append(
            ReliabilityTrial(
                trial=t,
                delivered_fraction=delivered / pairs,
                ceiling_fraction=float(connected) / pairs,
                mean_hops=hop_total / max(delivered, 1),
                mean_switches=switch_total / max(delivered, 1),
            )
        )
    return ReliabilitySummary(
        k=k, failure_prob=failure_prob, pairs=pairs, trials=tuple(results)
    )


DIAMETER_MAX_N = 4096


def _edge_codes(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """One integer per vertex pair, ``lo * n + hi`` (lo < hi)."""
    return lo.astype(np.int64) * n + hi


def _bfs_pairs(adj: sp.csr_matrix, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
    """BFS hop distance from srcs[i] to dsts[i], one BFS per distinct source.

    The sources run in blocks whose float64 distance rows fit in 4 MiB, and
    only each pair's entry is kept, so memory does not grow with the number
    of sources.
    """
    uniq, row = np.unique(srcs, return_inverse=True)
    order = np.argsort(row, kind="stable")
    ranked = row[order]
    block = max(1, (4 << 20) // (8 * adj.shape[0]))
    out = np.empty(srcs.size)
    for lo in range(0, uniq.size, block):
        dist = csgraph.shortest_path(
            adj, method="D", unweighted=True, indices=uniq[lo : lo + block]
        )
        a, b = np.searchsorted(ranked, [lo, lo + block])
        sel = order[a:b]
        out[sel] = dist[row[sel] - lo, dsts[sel]]
    return out


def stretch_stats(
    graph: Graph, spliced, pairs: int, seed: int
) -> tuple[float, int | None]:
    """Mean distance inflation over sampled pairs, plus the exact support diameter.

    Distances are unweighted BFS hops with no failures, and the support must
    be a subgraph of the base graph.  A sampled pair that is a base edge is at
    base distance 1, so base BFS runs only from the sources of the other pairs
    (on K_n it never runs).  The diameter comes from all-sources BFS on the
    support up to n = DIAMETER_MAX_N (None above), and the sampled pairs'
    support distances are read from it; above that cap they come from BFS
    from the pairs' sources.  A pair connected in the base but not in the support has
    infinite stretch, so the mean reads inf; pairs disconnected in the base
    are skipped.
    """
    support = _as_graph(spliced)
    if support.n != graph.n:
        raise ValueError("vertex sets differ")
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    base_codes = _edge_codes(graph.edge_u, graph.edge_v, n)
    if not np.isin(_edge_codes(support.edge_u, support.edge_v, n), base_codes).all():
        raise ValueError("support is not a subgraph of the base graph")
    rng = substream(seed, "stretch-pairs")
    srcs = rng.integers(0, n, size=pairs)
    offs = rng.integers(1, n, size=pairs)
    dsts = (srcs + offs) % n
    pair_codes = _edge_codes(np.minimum(srcs, dsts), np.maximum(srcs, dsts), n)
    far = ~np.isin(pair_codes, base_codes)
    d_base = np.ones(pairs)
    if far.any():
        d_base[far] = _bfs_pairs(graph._adjacency(), srcs[far], dsts[far])
    sup_adj = support._adjacency()
    diameter: int | None = None
    if n <= DIAMETER_MAX_N:
        full = csgraph.shortest_path(sup_adj, method="D", unweighted=True)
        d_sup = full[srcs, dsts]
        if np.isfinite(full).all():
            diameter = int(full.max())
    else:
        d_sup = _bfs_pairs(sup_adj, srcs, dsts)
    linked = np.isfinite(d_base)
    ratios = d_sup[linked] / d_base[linked]
    mean_stretch = float(np.mean(ratios)) if ratios.size else math.nan
    return mean_stretch, diameter
