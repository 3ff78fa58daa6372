"""Interval routing with failover switching, reliability and stretch experiments.

Each spanning tree routes by its DFS entry/exit clocks (interval routing,
Santoro & Khatib 1985): the next hop from v to dst is the child of v whose
[tin, tout) holds dst, or else v's parent, so routing state is O(k*n).
Failures have one format, failed base edges as (u, v) pairs, and live in the
routing state: routes step only along tree edges, so ``build_routing`` turns
the pairs into per-tree dead-edge flags once per state (O(k*n) lists), where
``up_dead[t][v]`` says that v's edge to its parent in tree t has failed.
``route`` is the one failover kernel: it follows its current tree until
blocked, then retries the other trees in seeded-random order; a (vertex,
tree) pair is never re-entered, which bounds looping.
``reliability_experiment`` is the one trial loop: a trial builds one state
from its failed edges and shares it, with its pairs and base-graph ceiling,
across every k it compares.

Stretch compares hop distances in a support ``Graph``, such as a splicer
from ``splice``, with those in its base graph.  Distances are exact and come
from one of two paths, for n <= DIAMETER_MAX_N (above it ``stretch_stats``
raises).  A tree support answers from depth and lowest common ancestor
(binary lifting, O(n log n) memory).  Any other support, and a base that is
not complete, grows every vertex's ball at once as packed bits, starting
from the packed neighbour table of ``graph._packed_rows`` (an n^2/8-byte
table, 2 MiB at n = 4096, with its row gathers capped at 4 MiB); that costs
O(diameter (n + 2m) ceil(n / 64)) word operations, so long-diameter graphs
are slow: a cycle of 4000 vertices as base and support takes about 24 s on
one Xeon core.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse.csgraph as csgraph

from .graph import Graph, _packed_rows, _vertex_pairs
from .sampler import sample_trees
from .seeds import below, child_seed, substream, word_stream


@dataclass(frozen=True)
class RoutingState:
    """Per tree t: ``parent[t]``, the DFS clocks ``tin[t]``/``tout[t]``, for
    each vertex its children in preorder (``children[t][v]``, by rising tin),
    and the failure flags: ``up_dead[t][v]`` says that v's edge to its parent
    in tree t has failed."""

    parent: tuple[list[int], ...]
    tin: tuple[list[int], ...]
    tout: tuple[list[int], ...]
    children: tuple[list[list[int]], ...]
    up_dead: tuple[list[bool], ...]

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


def build_routing(trees, failed=()) -> RoutingState:
    """Interval routing state: DFS clocks, preorder children and failure flags
    of each tree.

    ``failed`` holds the failed base edges as (u, v) pairs, in either
    orientation and possibly repeated, as tuples, lists or array rows; pairs
    that are not two integer vertex ids raise ValueError.  A pair is a tree
    edge when one end is the other's parent, which flags that end.
    """
    trees = tuple(trees)
    if not trees:
        raise ValueError("need at least one tree")
    n = trees[0].n
    for t in trees:
        if t.n != n:
            raise ValueError("trees span different vertex sets")
    u, v = _vertex_pairs(n, failed, "failed edge")
    per_tree = []
    for tree in trees:
        order, tin, tout = tree.dfs_intervals()
        par = tree.parent
        parent = par.tolist()
        kids: list[list[int]] = [[] for _ in range(n)]
        for w in order.tolist()[1:]:
            kids[parent[w]].append(w)
        dead = np.zeros(n, dtype=bool)
        dead[u[par[u] == v]] = dead[v[par[v] == u]] = True
        per_tree.append((parent, tin.tolist(), tout.tolist(), kids, dead.tolist()))
    return RoutingState(*zip(*per_tree))


def route(
    state: RoutingState, src: int, dst: int, hop_cap: int | None = None, seed: int = 0
) -> RouteResult:
    """Route src -> dst over the trees, skipping the state's failed edges.

    At each vertex the current tree's next hop (``RoutingState.next_hop``,
    inlined) is taken if its edge is alive, that is, if the flag of the
    edge's lower end is clear.  Otherwise the other trees are tried in
    seeded-random order, drawn at every hop from ``seed``'s route stream; at
    k <= 2 there is nothing to shuffle and no stream is derived.  ``seen[t]``
    holds the vertices entered on tree t.  The route fails when every tree's
    next hop is dead, when a (vertex, tree) state repeats, or at the hop cap
    (default 4n).
    """
    n = state.n
    if src == dst:
        raise ValueError("src and dst must differ")
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError("vertex out of range")
    if hop_cap is None:
        hop_cap = 4 * n
    if hop_cap < 1:
        raise ValueError("hop cap must be >= 1")
    parent, tin, tout, children, up_dead = (
        state.parent, state.tin, state.tout, state.children, state.up_dead
    )
    k = state.k
    # Only a shuffle of two or more other trees draws, so only k >= 3 needs words.
    word = word_stream(substream(seed, "route"), size=16) if k > 2 else None
    clocks = [tin[t][dst] for t in range(k)]
    others = [[u for u in range(k) if u != t] for t in range(k)]
    orders = [(t, *others[t]) for t in range(k)]
    seen = [set() for _ in range(k)]
    seen[0].add(src)
    cur, tree, hops, switches = src, 0, 0, 0
    path = [src]
    while cur != dst:
        if hops >= hop_cap:
            return RouteResult(False, hops, switches, tuple(path))
        if word is None:
            order = orders[tree]
        else:
            rest = others[tree][:]
            for i in range(len(rest) - 1, 0, -1):
                j = below(word, i + 1)
                rest[i], rest[j] = rest[j], rest[i]
            order = (tree, *rest)
        for t in order:
            ti = tin[t]
            clock = clocks[t]
            if ti[cur] < clock < tout[t][cur]:
                kids = children[t][cur]
                nh = kids[bisect_right(kids, clock, key=ti.__getitem__) - 1]
                if up_dead[t][nh]:
                    continue
            else:
                nh = parent[t][cur]
                if up_dead[t][cur]:
                    continue
            if nh in seen[t]:
                continue
            seen[t].add(nh)
            switches += t != tree
            tree = t
            cur = nh
            path.append(nh)
            hops += 1
            break
        else:
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


def _random_pairs(rng, n: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` (src, dst) draws: a uniform source, then a uniform other vertex."""
    srcs = rng.integers(0, n, size=pairs)
    offs = rng.integers(1, n, size=pairs)
    return srcs, (srcs + offs) % n


def reliability_experiment(
    graph: Graph, ks, failure_prob: float, pairs: int, trials: int, seed: int
) -> tuple[ReliabilitySummary, ...]:
    """Per trial: fail base edges independently, route random pairs over a
    splicer of each k in ``ks``; one summary per k.

    Also reports the per-trial ceiling (fraction of sampled pairs still
    connected in the surviving base graph); delivery can never exceed it.
    Failure draws and pair choices depend only on (seed, trial), so the k
    are paired: each trial draws them and computes the ceiling once for
    every k.  ``splice`` unions ``sample_trees``, whose tree i depends only
    on (seed, i), so each k routes over the first k trees of one draw of
    max(ks) trees, that is, over a prefix of one routing state.  A route
    derives its own seed only at k >= 3, where failover shuffles.
    """
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError("failure_prob must lie in [0, 1]")
    if pairs < 1 or trials < 1:
        raise ValueError("pairs and trials must be >= 1")
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    results = [[] for _ in ks]
    for t in range(trials):
        trees = sample_trees(graph, max(ks), child_seed(seed, "splice", t))
        dead = substream(seed, "failures", t).random(graph.m) < failure_prob
        ids = np.flatnonzero(dead)
        failed = np.column_stack((graph.edge_u[ids], graph.edge_v[ids]))
        srcs, dsts = _random_pairs(substream(seed, "pairs", t), n, pairs)
        # The adjacency is symmetric: strong components are the components.
        labels = csgraph.connected_components(
            graph._adjacency(~dead), connection="strong"
        )[1]
        ceiling = float(np.count_nonzero(labels[srcs] == labels[dsts])) / pairs
        pair_list = list(zip(srcs.tolist(), dsts.tolist()))
        full = build_routing(trees, failed)
        for k, out in zip(ks, results):
            # The first k trees' state is the first k entries of each field.
            state = RoutingState(*(getattr(full, f.name)[:k] for f in fields(full)))
            delivered = hop_total = switch_total = 0
            for i, (s, d) in enumerate(pair_list):
                r = route(state, s, d, seed=child_seed(seed, "route", t, i) if k > 2 else 0)
                if r.delivered:
                    delivered += 1
                    hop_total += r.hops
                    switch_total += r.switches
            out.append(
                ReliabilityTrial(
                    trial=t,
                    delivered_fraction=delivered / pairs,
                    ceiling_fraction=ceiling,
                    mean_hops=hop_total / max(delivered, 1),
                    mean_switches=switch_total / max(delivered, 1),
                )
            )
    return tuple(
        ReliabilitySummary(k=k, failure_prob=failure_prob, pairs=pairs, trials=tuple(out))
        for k, out in zip(ks, results)
    )


DIAMETER_MAX_N = 4096


def _bits(rows: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether bit w[i] of packed row u[i] is set, for uint64 word rows."""
    return ((rows[u, w >> 6] >> (w & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)


def _tree_pairs(tree: Graph, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, int]:
    """Hop distances srcs[i] -> dsts[i] on a spanning tree, and its diameter.

    The tree is rooted at a vertex farthest from 0, so its diameter is the
    largest depth.  Pointer jumping builds depth together with the lifting
    tables ``ups[j][v]``, v's 2^j-th ancestor (the root maps to itself), and
    d(u, v) = depth[u] + depth[v] - 2 depth[lca(u, v)] for all pairs at once.
    """
    adj = tree._adjacency()
    root = csgraph.breadth_first_order(adj, 0, return_predecessors=False)[-1]
    up = csgraph.breadth_first_order(adj, root)[1].astype(np.int64)
    up[root] = root
    depth = (up != np.arange(tree.n)).astype(np.int64)
    ups = [up]
    while (up != root).any():
        depth = depth + depth[up]
        up = up[up]
        ups.append(up)
    u = np.where(depth[srcs] >= depth[dsts], srcs, dsts)
    v = srcs + dsts - u
    rise = depth[u] - depth[v]
    for j, table in enumerate(ups):
        u = np.where((rise >> j) & 1, table[u], u)
    for table in reversed(ups):
        a, b = table[u], table[v]
        split = a != b
        u, v = np.where(split, a, u), np.where(split, b, v)
    lca = np.where(u == v, u, ups[0][u])
    return depth[srcs] + depth[dsts] - 2 * depth[lca], int(depth.max())


def _ball_pairs(
    graph: Graph, ball: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, int | None]:
    """Hop distances srcs[i] -> dsts[i] (inf when unreached) and the diameter
    (None when ``graph`` is disconnected), from bit-parallel all-sources BFS.

    ``ball`` is ``graph``'s packed neighbour table read as uint64 words (row v
    holds vertex w at bit w % 64 of word w // 64, n^2/8 bytes); with the
    diagonal set it is the table of radius-1 balls, and it is grown in place.
    A step ORs the rows over each closed neighbourhood; a pair's distance is
    the step at which its bit first appears, and the diameter the step that
    fills every row.  The rows are gathered in vertex blocks of at most 4 MiB.
    """
    n = graph.n
    words = ball.shape[1]
    indptr, nbr, _ = graph._csr
    # Closed neighbourhoods: segment v of the gather lists v, then its neighbours.
    closed = np.insert(nbr, indptr[:-1], np.arange(n, dtype=nbr.dtype))
    starts = indptr + np.arange(n + 1)
    budget = max(1, (4 << 20) // (8 * words))
    blocks = [0]
    while blocks[-1] < n:
        lo = blocks[-1]
        hi = int(np.searchsorted(starts, starts[lo] + budget, side="right")) - 1
        blocks.append(min(max(hi, lo + 1), n))
    ids = np.arange(n)
    ball[ids, ids >> 6] |= np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if n % 64:
        full[-1] = (1 << (n % 64)) - 1
    dist = np.full(srcs.size, math.inf)
    grown = np.empty_like(ball)
    step = 1
    while True:
        dist[_bits(ball, srcs, dsts) & np.isinf(dist)] = step
        if (ball == full).all():
            return dist, step
        for lo, hi in zip(blocks[:-1], blocks[1:]):
            a, b = starts[lo], starts[hi]
            grown[lo:hi] = np.bitwise_or.reduceat(ball[closed[a:b]], starts[lo:hi] - a)
        if np.array_equal(grown, ball):
            return dist, None
        ball, grown = grown, ball
        step += 1


def stretch_stats(
    graph: Graph | int, support: Graph, pairs: int, seed: int
) -> tuple[float, int | None]:
    """Mean distance inflation over sampled pairs, plus the exact support diameter.

    Distances are unweighted hops with no failures, and the support must be
    a subgraph of the base graph.  n may be at most DIAMETER_MAX_N (else
    ValueError).  Every distance is exact and comes from one of two paths.
    A spanning-tree support reads the pairs' distances from depth and lowest
    common ancestor (O(n log n) memory).  Any other support, and the base
    for sampled pairs that are not base edges, grows all n balls at once as
    packed bits from the radius-1 balls of ``_packed_rows``: an n^2/8-byte
    table (2 MiB at n = 4096, gathered under 4 MiB at a time) and
    O(diameter (n + 2m) ceil(n / 64)) word operations, so long-diameter
    graphs are slow (a cycle of 4000 vertices as base and support takes
    about 24 s on one Xeon core).  A base with n(n-1)/2 edges builds
    nothing: every pair is an edge and every support a subgraph; an int n
    stands for that K_n, as in ``splice``.  The diameter is None when the
    support is disconnected.  A pair connected in the base but not in the
    support has infinite stretch, so the mean reads inf; pairs disconnected
    in the base are skipped.
    """
    n = graph.n if isinstance(graph, Graph) else operator.index(graph)
    if support.n != n:
        raise ValueError("vertex sets differ")
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > DIAMETER_MAX_N:
        raise ValueError(f"stretch_stats measures exact distances up to n = {DIAMETER_MAX_N}")
    srcs, dsts = _random_pairs(substream(seed, "stretch-pairs"), n, pairs)
    d_base = np.ones(pairs)
    if isinstance(graph, Graph) and graph.m < n * (n - 1) // 2:
        rows = _packed_rows(graph).view("<u8")
        if not _bits(rows, support.edge_u, support.edge_v).all():
            raise ValueError("support is not a subgraph of the base graph")
        far = ~_bits(rows, srcs, dsts)
        if far.any():
            d_base[far] = _ball_pairs(graph, rows, srcs[far], dsts[far])[0]
    if support.m == n - 1 and support.is_connected():
        d_sup, diameter = _tree_pairs(support, srcs, dsts)
    else:
        rows = _packed_rows(support).view("<u8")
        d_sup, diameter = _ball_pairs(support, rows, srcs, dsts)
    linked = np.isfinite(d_base)
    ratios = d_sup[linked] / d_base[linked]
    mean_stretch = float(np.mean(ratios)) if ratios.size else math.nan
    return mean_stretch, diameter
