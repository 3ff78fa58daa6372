"""Spanning-tree samplers.

``aldous_broder`` runs a uniform random walk and keeps each vertex's
first-entry edge, which yields a uniformly random spanning tree whatever the
start vertex.  ``process_bp`` walks a random orientation of a (random) graph
with step probabilities that favor previously traversed arcs at rate
1/(n-1) each, splitting the remainder evenly over new arcs; it either covers
the graph (emitting the first-visit tree) or stops with no output.

Samplers are pure given (inputs, seed) and safe to run concurrently on a
shared graph; a single run is inherently sequential.  ``_batch_cover_walks``
is the vectorized engine behind the Monte Carlo estimators.  It runs many
independent first-visit walks in lockstep under one of two step rules, chosen
by the graph type: the uniform-neighbour rule of ``aldous_broder`` on a
``Graph``, and the traversed-arc rule of ``process_bp_on`` on a fixed
``DirectedGraph``, where a walk with no untraversed arc left before cover is
flagged as stuck.  The scalar samplers remain for single long walks and for
walks on a fresh orientation per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, Graph, SamplingError
from .generators import direct_edges_dp
from .seeds import BoundedDraws, child_seed, substream


@dataclass(frozen=True)
class WalkTrace:
    """Visited-vertex sequence plus per-vertex first-visit indices."""

    vertices: np.ndarray
    first_visit: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.vertices) - 1

    def covered(self) -> bool:
        return bool((self.first_visit >= 0).all())


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree: parent/parent-edge per vertex, -1 at the root."""

    root: int
    parent: np.ndarray
    parent_edge: np.ndarray

    @property
    def n(self) -> int:
        return len(self.parent)

    def edge_ids(self) -> np.ndarray:
        """Base-graph edge ids of the n-1 tree edges, ascending."""
        ids = self.parent_edge[self.parent_edge >= 0]
        return np.sort(ids)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            p = int(self.parent[v])
            if p >= 0:
                out.append((min(p, v), max(p, v)))
        return out

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            p = int(self.parent[v])
            if p >= 0:
                adj[v].append(p)
                adj[p].append(v)
        return adj

    def dfs_intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """DFS preorder ``order`` from the root with entry/exit clocks ``tin``/``tout``.

        ``order[tin[v]:tout[v]]`` is exactly the subtree of v, so v's
        descendants are the vertices whose entry clock lies in
        [tin[v], tout[v]).  Children are entered in descending vertex order.
        Raises ValueError when some vertex's parent chain does not reach the root.
        """
        n = self.n
        parent = self.parent.tolist()
        kids: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p >= 0:
                kids[p].append(v)
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids[v])
        if len(order) < n:
            raise ValueError("parent structure contains a cycle")
        size = [1] * n
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        order_arr = np.array(order, dtype=np.int64)
        tin = np.empty(n, dtype=np.int64)
        tin[order_arr] = np.arange(n)
        return order_arr, tin, tin + np.array(size, dtype=np.int64)

    def validate(self, graph: Graph) -> None:
        """Check the spanning/acyclic/parent invariants against ``graph``."""
        n = self.n
        if graph.n != n:
            raise ValueError("vertex count mismatch")
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        if self.parent[self.root] != -1 or self.parent_edge[self.root] != -1:
            raise ValueError("root must have no parent")
        seen_root = 0
        for v in range(n):
            p = int(self.parent[v])
            if p < 0:
                seen_root += 1
                continue
            eid = int(self.parent_edge[v])
            a, b = graph.edge(eid)
            if {a, b} != {p, v}:
                raise ValueError(f"parent edge of {v} does not join it to {p}")
        if seen_root != 1:
            raise ValueError("exactly one root expected")
        # Every vertex must reach the root through parents without cycles.
        self.dfs_intervals()


def aldous_broder(
    graph: Graph, seed: int, start: int = 0
) -> tuple[SpanningTree, WalkTrace]:
    """Uniform spanning tree by random walk; keeps each first-entry edge.

    Walks until every vertex is visited; trips the step cap (and reports
    non-cover) when the graph is disconnected.
    """
    n = graph.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    if n == 1:
        tree = SpanningTree(0, np.full(1, -1, np.int32), np.full(1, -1, np.int32))
        return tree, WalkTrace(np.zeros(1, np.int32), np.zeros(1, np.int64))
    draws = BoundedDraws(substream(seed, "aldous-broder"))
    nbrs, eids = graph._py_adj
    parent = np.full(n, -1, dtype=np.int32)
    parent_edge = np.full(n, -1, dtype=np.int32)
    first_visit = np.full(n, -1, dtype=np.int64)
    first_visit[start] = 0
    trace = [start]
    append = trace.append
    unvisited = n - 1
    cap = graph.walk_step_cap()
    cur = start
    while unvisited:
        lst = nbrs[cur]
        d = len(lst)
        if d == 0:
            raise SamplingError(f"vertex {cur} is isolated; walk cannot cover")
        j = draws.below(d)
        nxt = lst[j]
        if first_visit[nxt] < 0:
            first_visit[nxt] = len(trace)
            parent[nxt] = cur
            parent_edge[nxt] = eids[cur][j]
            unvisited -= 1
        append(nxt)
        cur = nxt
        if len(trace) > cap:
            raise SamplingError(
                f"walk did not cover within {cap} steps "
                f"({unvisited} vertices unvisited); is the graph connected?"
            )
    tree = SpanningTree(start, parent, parent_edge)
    return tree, WalkTrace(np.array(trace, dtype=np.int32), first_visit)


def sample_trees(graph: Graph, k: int, seed: int) -> list[SpanningTree]:
    """k independent uniform spanning trees from per-tree substreams."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [
        aldous_broder(graph, child_seed(seed, "tree", i))[0] for i in range(k)
    ]


# Per-walk bytes of the per-step temporaries and collectors, as measured by
# tracemalloc: about 80 under the uniform rule, 150 under the oriented rule.
_STEP_TEMP_BYTES = 96
_ORIENTED_TEMP_BYTES = 64
# Byte budget of one lockstep chunk.
_BATCH_BYTES = 16 << 20


def _batch_cover_walks(
    graph: Graph | DirectedGraph,
    trials: int,
    rng: np.random.Generator,
    start: int = 0,
    edge_counts: bool = False,
    watch_edge_ids=None,
    cut_edge_ids=None,
    track_cover_steps: bool = False,
) -> dict:
    """Run many first-visit cover walks in lockstep and accumulate statistics.

    The step rule follows the graph type:
      Graph         -- uniform-neighbour rule; every walk covers a connected
                       graph, and its first-entry edges form a uniform tree.
      DirectedGraph -- traversed-arc rule of ``_OrientedWalk``: each old arc
                       out of the current vertex has probability 1/(n-1), the
                       rest splits evenly over new arcs.  A walk whose current
                       vertex has no untraversed arc before cover stops; the
                       result's ``stuck`` flags it, and its collectors hold
                       the partial walk.  Edge ids are the arcs' source ids.

    Collectors:
      edge_counts    -- per-edge count of appearances in the sampled trees
      watch_edge_ids -- per-walk bitmask over the listed edge ids (<= 64)
      cut_edge_ids   -- per-walk count of tree edges among the listed ids
      track_cover_steps -- per-walk number of walk steps until cover

    Walks run in chunks sized from the ``_BATCH_BYTES`` budget.  Per walk a
    chunk holds the visited row (n bytes), under the oriented rule an
    arc-slot row and a traversed count per vertex (s bytes each, s = 1 below
    256 out-arcs per vertex), and 96 (oriented: 160) bytes of per-step
    temporaries.  Memory is thus bounded by chunk x (n + s (arcs + n) + 160)
    bytes, about chunk x (n + arcs); the budget keeps 1e5 uniform walks on
    up to 70 vertices in one chunk.
    """
    n = graph.n
    if n < 2:
        raise ValueError("batch walks need n >= 2")
    oriented = isinstance(graph, DirectedGraph)
    indptr, heads, arc_eids = graph._csr
    deg = np.diff(indptr)
    cap = graph.walk_step_cap()
    row = n + _STEP_TEMP_BYTES
    if oriented:
        listed = [np.asarray(x) for x in (watch_edge_ids, cut_edge_ids) if x is not None]
        if (edge_counts or listed) and (arc_eids < 0).any():
            raise ValueError("edge collectors need arcs tagged with source edge ids")
        m = 1 + max(int(a.max(initial=-1)) for a in [arc_eids, *listed])
        arcs = heads.size
        slot_t = np.min_scalar_type(max(int(deg.max()), 1))
        local = (np.arange(arcs) - np.repeat(indptr[:-1], deg)).astype(slot_t)
        row += _ORIENTED_TEMP_BYTES + (arcs + n) * slot_t.itemsize
    else:
        if int(deg.min()) == 0:
            raise SamplingError("graph has an isolated vertex; walks cannot cover")
        m = graph.m
    chunk = max(1, _BATCH_BYTES // row)

    counts = np.zeros(m, dtype=np.int64) if edge_counts else None
    masks_out = [] if watch_edge_ids is not None else None
    cuts_out = [] if cut_edge_ids is not None else None
    steps_out = [] if track_cover_steps else None
    stuck_out = [] if oriented else None

    bit_of = None
    if watch_edge_ids is not None:
        watch = np.asarray(watch_edge_ids, dtype=np.int64)
        if watch.size > 64:
            raise ValueError("can watch at most 64 edges")
        bit_of = np.zeros(m, dtype=np.uint64)
        bit_of[watch] = np.uint64(1) << np.arange(watch.size, dtype=np.uint64)
    in_cut = None
    if cut_edge_ids is not None:
        in_cut = np.zeros(m, dtype=np.int32)
        in_cut[np.asarray(cut_edge_ids, dtype=np.int64)] = 1

    done = 0
    while done < trials:
        w = min(chunk, trials - done)
        cur = np.full(w, start, dtype=np.int32)
        visited = np.zeros((w, n), dtype=bool)
        visited[:, start] = True
        nvis = np.ones(w, dtype=np.int32)
        act = np.arange(w, dtype=np.int64)
        masks = np.zeros(w, dtype=np.uint64) if bit_of is not None else None
        ccnt = np.zeros(w, dtype=np.int32) if in_cut is not None else None
        steps = np.zeros(w, dtype=np.int64) if track_cover_steps else None
        if oriented:
            # Per walk and vertex, the first d1 slots of the vertex's arc
            # range hold its traversed arcs (as local slot indices).
            perm = np.tile(local, (w, 1))
            d1 = np.zeros((w, n), dtype=slot_t)
            stuck = np.zeros(w, dtype=bool)
        it = 0
        while act.size:
            it += 1
            if it > cap:
                raise SamplingError(
                    f"batch walk did not cover within {cap} steps; "
                    "is the graph connected?"
                )
            c = cur[act]
            if not oriented:
                arc = indptr[c] + rng.integers(0, deg[c])
            else:
                k = d1[act, c].astype(np.int64)
                span = deg[c] - k
                if not span.all():
                    stuck[act[span == 0]] = True
                    act = act[span > 0]
                    continue
                # The draw of _OrientedWalk.step, shifted down by d1 * span:
                # below 0 picks old slot r // span + d1, else new slot
                # r // (n - 1 - d1) + d1.
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
            fresh = ~visited[act, nxt]
            if fresh.any():
                aw = act[fresh]
                fn = nxt[fresh]
                fe = arc_eids[arc[fresh]]
                visited[aw, fn] = True
                nvis[aw] += 1
                if counts is not None:
                    np.add.at(counts, fe, 1)
                if masks is not None:
                    masks[aw] |= bit_of[fe]
                if ccnt is not None:
                    ccnt[aw] += in_cut[fe]
            cur[act] = nxt
            if steps is not None:
                steps[act] += 1
            act = act[nvis[act] < n]
        done += w
        if masks_out is not None:
            masks_out.append(masks)
        if cuts_out is not None:
            cuts_out.append(ccnt)
        if steps_out is not None:
            steps_out.append(steps)
        if stuck_out is not None:
            stuck_out.append(stuck)

    result: dict = {"trials": trials}
    if counts is not None:
        result["edge_counts"] = counts
    if masks_out is not None:
        result["masks"] = np.concatenate(masks_out)
    if cuts_out is not None:
        result["cut_counts"] = np.concatenate(cuts_out)
    if steps_out is not None:
        result["cover_steps"] = np.concatenate(steps_out)
    if stuck_out is not None:
        result["stuck"] = np.concatenate(stuck_out)
    return result


def tree_edge_frequencies(
    graph: Graph, trials: int, seed: int, start: int = 0
) -> np.ndarray:
    """Empirical per-edge inclusion frequencies over many sampled trees."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = substream(seed, "tree-frequencies")
    res = _batch_cover_walks(graph, trials, rng, start=start, edge_counts=True)
    return res["edge_counts"] / float(trials)


def edge_inclusion_probability(
    graph: Graph, edge, trials: int, seed: int
) -> float:
    """Empirical probability that ``edge`` lands in a random spanning tree."""
    if isinstance(edge, (tuple, list)):
        eid = graph.edge_id(int(edge[0]), int(edge[1]))
        if eid is None:
            raise ValueError(f"({edge[0]}, {edge[1]}) is not an edge")
    else:
        eid = int(edge)
        if not 0 <= eid < graph.m:
            raise ValueError("edge id out of range")
    freqs = tree_edge_frequencies(graph, trials, seed)
    return float(freqs[eid])


@dataclass(frozen=True)
class ProcessBResult:
    """Outcome of one oriented-walk run: a tree and trace, or a stuck state."""

    success: bool
    oriented: DirectedGraph
    tree: SpanningTree | None = None
    trace: WalkTrace | None = None
    stuck_vertex: int | None = None
    steps_taken: int = 0


@dataclass(frozen=True)
class TwoTreeResult:
    """Two trees cut from one continuous oriented-walk edge sequence."""

    success: bool
    oriented: DirectedGraph
    trees: tuple[SpanningTree, SpanningTree] | None = None
    failed_phase: int | None = None
    stuck_vertex: int | None = None
    steps_taken: int = 0


class _OrientedWalk:
    """Mutable state of one oriented walk with traversed-arc bookkeeping.

    Per vertex, the target list is kept partitioned: the first d1 slots hold
    previously traversed arcs.  A step draws one integer below
    (d - d1) * (n - 1); values under d1 * (d - d1) select an old arc (each
    with probability 1/(n-1)), the rest split evenly over new arcs.
    """

    def __init__(self, oriented: DirectedGraph, seed: int, start: int):
        self.n = oriented.n
        if not 0 <= start < self.n:
            raise ValueError("start vertex out of range")
        targets, srcs = oriented.out_adj
        self.targets = [t[:] for t in targets]
        self.srcs = [s[:] for s in srcs]
        self.d1 = [0] * self.n
        self.draws = BoundedDraws(substream(seed, "walk"))
        self.cur = start
        self.steps = 0

    def step_distribution(self) -> list:
        """Exact per-slot step probabilities at the current vertex (debug aid).

        Entries are Fractions in the mutable slot order: the first d1 slots
        are previously traversed arcs at 1/(n-1) each, the rest split the
        remainder evenly.  Sums to exactly 1 whenever a step is possible.
        """
        from fractions import Fraction

        v = self.cur
        d = len(self.targets[v])
        d1 = self.d1[v]
        if d1 >= d:
            return []
        old = Fraction(1, self.n - 1)
        new = (1 - d1 * old) / (d - d1)
        return [old] * d1 + [new] * (d - d1)

    def step(self) -> tuple[int, int] | None:
        """Advance one arc; returns (next vertex, source edge id) or None if stuck."""
        v = self.cur
        tl = self.targets[v]
        d = len(tl)
        d1 = self.d1[v]
        if d1 >= d:
            return None
        span = d - d1
        r = self.draws.below(span * (self.n - 1))
        thr = d1 * span
        if r < thr:
            slot = r // span
        else:
            slot = d1 + (r - thr) // (self.n - 1 - d1)
            sl = self.srcs[v]
            tl[slot], tl[d1] = tl[d1], tl[slot]
            sl[slot], sl[d1] = sl[d1], sl[slot]
            slot = d1
            self.d1[v] = d1 + 1
        nxt = tl[slot]
        eid = self.srcs[v][slot]
        self.cur = nxt
        self.steps += 1
        return nxt, eid


def process_bp_on(
    oriented: DirectedGraph, seed: int, start: int = 0, step_cap: int | None = None
) -> ProcessBResult:
    """Run the oriented-walk process on an existing orientation."""
    n = oriented.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    walk = _OrientedWalk(oriented, seed, start)
    parent = np.full(n, -1, dtype=np.int32)
    parent_edge = np.full(n, -1, dtype=np.int32)
    first_visit = np.full(n, -1, dtype=np.int64)
    first_visit[start] = 0
    trace = [start]
    unvisited = n - 1
    cap = step_cap if step_cap is not None else oriented.walk_step_cap()
    while unvisited:
        out = walk.step()
        if out is None:
            return ProcessBResult(
                False, oriented, stuck_vertex=walk.cur, steps_taken=walk.steps
            )
        nxt, eid = out
        prev = trace[-1]
        if first_visit[nxt] < 0:
            first_visit[nxt] = len(trace)
            parent[nxt] = prev
            parent_edge[nxt] = eid
            unvisited -= 1
        trace.append(nxt)
        if walk.steps > cap:
            raise SamplingError(f"oriented walk exceeded {cap} steps without cover")
    tree = SpanningTree(start, parent, parent_edge)
    return ProcessBResult(
        True,
        oriented,
        tree=tree,
        trace=WalkTrace(np.array(trace, dtype=np.int32), first_visit),
        steps_taken=walk.steps,
    )


def process_bp(
    graph: Graph, p: float, seed: int, start: int = 0
) -> ProcessBResult:
    """Walk a random orientation of ``graph``; emit the first-visit tree.

    Orientation and walk consume independent substreams, so the orientation
    can be held fixed while re-walking.  Stops with no output when every
    outgoing arc at the current vertex has been traversed before cover.
    """
    oriented = direct_edges_dp(graph, p, child_seed(seed, "orient"))
    return process_bp_on(
        oriented, seed, start, step_cap=max(graph.walk_step_cap(), 64 * graph.n)
    )


def sequential_two_trees_bp(
    graph: Graph, p: float, seed: int, start: int = 0
) -> TwoTreeResult:
    """Two first-visit trees from one continuous oriented-walk edge sequence.

    First-visit bookkeeping resets at the first cover (the walk position
    persists, and traversed-arc state carries over); a failure reports which
    phase was being collected.
    """
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    oriented = direct_edges_dp(graph, p, child_seed(seed, "orient"))
    walk = _OrientedWalk(oriented, seed, start)
    cap = 2 * max(graph.walk_step_cap(), 64 * n)
    trees = []
    for phase in (1, 2):
        root = walk.cur
        parent = np.full(n, -1, dtype=np.int32)
        parent_edge = np.full(n, -1, dtype=np.int32)
        visited = np.zeros(n, dtype=bool)
        visited[root] = True
        unvisited = n - 1
        while unvisited:
            prev = walk.cur
            out = walk.step()
            if out is None:
                return TwoTreeResult(
                    False,
                    oriented,
                    failed_phase=phase,
                    stuck_vertex=walk.cur,
                    steps_taken=walk.steps,
                )
            nxt, eid = out
            if not visited[nxt]:
                visited[nxt] = True
                parent[nxt] = prev
                parent_edge[nxt] = eid
                unvisited -= 1
            if walk.steps > cap:
                raise SamplingError(
                    f"oriented walk exceeded {cap} steps without double cover"
                )
        trees.append(SpanningTree(root, parent, parent_edge))
    return TwoTreeResult(
        True, oriented, trees=(trees[0], trees[1]), steps_taken=walk.steps
    )
