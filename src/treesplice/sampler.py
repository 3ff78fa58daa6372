"""Spanning-tree samplers.

``aldous_broder`` runs a uniform random walk and keeps each vertex's
first-entry edge, which yields a uniformly random spanning tree whatever the
start vertex.  ``process_bp`` walks a random orientation of a (random) graph
with step probabilities that favor previously traversed arcs at rate
1/(n-1) each, splitting the remainder evenly over new arcs; it either covers
the graph (emitting the first-visit tree) or stops with no output.  Its
loop, ``process_bp_on``, runs on a given orientation and cuts ``phases``
trees from one continuous walk, restarting first-visit bookkeeping at each
cover.

Samplers are pure given (inputs, seed) and safe to run concurrently on a
shared graph; a single run is inherently sequential.  ``_cover_walk_trees``
is the vectorized engine behind the Monte Carlo estimators.  It runs many
independent first-visit walks in lockstep under one of two step rules, chosen
by the graph type: the uniform-neighbour rule of ``aldous_broder`` on a
``Graph``, and the traversed-arc rule of ``process_bp_on`` on a fixed
``DirectedGraph``.  It yields the walks' trees, one row of first-entry edge
ids per walk, a chunk at a time; a walk with no untraversed arc left before
cover keeps a -1 in its row.  Callers reduce the rows to what they count:
``_tree_edge_counts`` per edge, ``_tree_masks`` per walk.  The scalar
samplers remain for single long walks and for walks on a fresh orientation
per run.

Every walk reads the graph's CSR.  ``aldous_broder`` steps through the cached
neighbour lists, keeps each first entry's row position and gathers the edge
ids from the CSR after the walk; ``process_bp_on`` permutes list rows it
slices afresh per call.  Both apply ``seeds.below``'s exact rule inline to raw
words from ``seeds.word_stream``; a word below 2^64 minus the walk's largest
bound passes for every bound, so only the top few words reach the exact limit.
The lockstep engine draws differently, with ``Generator.integers`` on array
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, Graph, SamplingError, _csr_rows
from .generators import direct_edges_dp
from .seeds import WORDS, child_seed, substream, word_stream


@dataclass(frozen=True)
class WalkTrace:
    """Visited-vertex sequence plus per-vertex first-visit indices."""

    vertices: np.ndarray
    first_visit: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.vertices) - 1


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

    Walks until every vertex is visited.  A disconnected graph raises
    SamplingError before the first step.
    """
    n = graph.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    if n == 1:
        tree = SpanningTree(0, np.full(1, -1, np.int32), np.full(1, -1, np.int32))
        return tree, WalkTrace(np.zeros(1, np.int32), np.zeros(1, np.int64))
    if not graph.is_connected():
        raise SamplingError("graph is disconnected; the walk cannot cover")
    word = word_stream(substream(seed, "aldous-broder"))
    safe = WORDS - int(graph.degrees.max())
    nbrs = graph._neighbor_lists
    # slot[v]: position, in its parent's row, of the edge that first entered v.
    parent, slot, first_visit = [-1] * n, [-1] * n, [-1] * n
    first_visit[start] = 0
    trace = [start]
    append = trace.append
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
        append(nxt)
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
    tree = SpanningTree(start, np.array(parent, np.int32), parent_edge)
    return tree, WalkTrace(np.array(trace, np.int32), np.array(first_visit, np.int64))


def sample_trees(graph: Graph, k: int, seed: int) -> list[SpanningTree]:
    """k independent uniform spanning trees from per-tree substreams."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [
        aldous_broder(graph, child_seed(seed, "tree", i))[0] for i in range(k)
    ]


# Per-walk bytes of the per-step temporaries, as measured by tracemalloc: about
# 80 under the uniform rule, 150 under the oriented rule.
_STEP_TEMP_BYTES = 96
_ORIENTED_TEMP_BYTES = 64
# Byte budget of one lockstep chunk.
_BATCH_BYTES = 16 << 20


def _cover_walk_trees(
    graph: Graph | DirectedGraph, trials: int, rng: np.random.Generator, start: int = 0
):
    """Run many first-visit cover walks in lockstep; yield their trees by chunk.

    Each chunk is an array ``first`` of shape (walks, n): ``first[w, v]`` is
    the id of the edge by which walk w first entered v, -2 at ``start`` and -1
    where the walk never arrived.  Its dtype is the smallest signed integer
    that holds m + 1, so a table of m + 2 entries indexed by ``first`` reads
    its last two entries at -1 and -2.

    The step rule follows the graph type:
      Graph         -- uniform-neighbour rule; every walk covers a connected
                       graph, and each row is a uniform spanning tree.  A
                       disconnected graph raises SamplingError before any
                       walk starts.
      DirectedGraph -- traversed-arc rule of ``process_bp_on``: each old arc
                       out of the current vertex has probability 1/(n-1), the
                       rest splits evenly over new arcs.  A walk whose current
                       vertex has no untraversed arc before cover stops, and
                       its row keeps a -1.  Edge ids are the arcs' source ids.

    Walks run in chunks sized from the ``_BATCH_BYTES`` budget.  Per walk a
    chunk holds the ``first`` row (n bytes below 127 edges, 2n below 32767),
    under the oriented rule an arc-slot row and a traversed count per vertex
    (s bytes each, s = 1 below 256 out-arcs per vertex), and 96 (oriented:
    160) bytes of per-step temporaries.  Memory is thus bounded by
    chunk x (n b + s (arcs + n) + 160) bytes, with b the row's item size; the
    budget keeps 1e5 uniform walks on up to 70 vertices and 126 edges in one
    chunk.
    """
    n = graph.n
    if n < 2:
        raise ValueError("batch walks need n >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    oriented = isinstance(graph, DirectedGraph)
    indptr, heads, arc_eids = graph._csr
    deg = np.diff(indptr)
    cap = graph.walk_step_cap()
    if oriented:
        if (arc_eids < 0).any():
            raise ValueError("batch walks need arcs tagged with source edge ids")
        m = 1 + int(arc_eids.max(initial=-1))
    else:
        if not graph.is_connected():
            raise SamplingError("graph is disconnected; walks cannot cover")
        m = graph.m
    first_t = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > m)
    row = n * np.dtype(first_t).itemsize + _STEP_TEMP_BYTES
    if oriented:
        arcs = heads.size
        slot_t = np.min_scalar_type(max(int(deg.max()), 1))
        local = (np.arange(arcs) - np.repeat(indptr[:-1], deg)).astype(slot_t)
        row += _ORIENTED_TEMP_BYTES + (arcs + n) * slot_t.itemsize
    chunk = max(1, _BATCH_BYTES // row)

    for done in range(0, trials, chunk):
        w = min(chunk, trials - done)
        cur = np.full(w, start, dtype=np.int32)
        first = np.full((w, n), -1, dtype=first_t)
        first[:, start] = -2
        nvis = np.ones(w, dtype=np.int32)
        act = np.arange(w, dtype=np.int64)
        if oriented:
            # Per walk and vertex, the first d1 slots of the vertex's arc
            # range hold its traversed arcs (as local slot indices).
            perm = np.tile(local, (w, 1))
            d1 = np.zeros((w, n), dtype=slot_t)
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
                    act = act[span > 0]
                    continue
                # The draw of process_bp_on's step, shifted down by d1 * span:
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
            fresh = first[act, nxt] == -1
            if fresh.any():
                aw = act[fresh]
                first[aw, nxt[fresh]] = arc_eids[arc[fresh]]
                nvis[aw] += 1
            cur[act] = nxt
            act = act[nvis[act] < n]
        yield first


def _tree_edge_counts(
    graph: Graph, trials: int, rng: np.random.Generator, start: int = 0
) -> np.ndarray:
    """Per edge, how many of ``trials`` sampled trees contain it."""
    counts = np.zeros(graph.m + 2, dtype=np.int64)
    for first in _cover_walk_trees(graph, trials, rng, start):
        for col in first.T:
            counts += np.bincount(col + 2, minlength=graph.m + 2)
    return counts[2:]


def _tree_masks(
    graph: Graph | DirectedGraph, trials: int, rng: np.random.Generator, ids, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, a bitmask of the listed edge ids (at most 64) in its tree, and
    whether the walk got stuck before cover (only under the oriented rule)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size > 64:
        raise ValueError("can mask at most 64 edges")
    size = 1 + max(int(graph._csr[2].max(initial=-1)), int(ids.max(initial=-1)))
    bit = np.zeros(size + 2, dtype=np.uint64)  # -1 and -2 index the two zeros
    bit[ids] = np.uint64(1) << np.arange(ids.size, dtype=np.uint64)
    masks, stuck = [], []
    for first in _cover_walk_trees(graph, trials, rng, start):
        mask = np.zeros(len(first), dtype=np.uint64)
        short = np.zeros(len(first), dtype=bool)
        for col in first.T:
            mask |= bit[col]
            short |= col == -1
        masks.append(mask)
        stuck.append(short)
    return np.concatenate(masks), np.concatenate(stuck)


def tree_edge_frequencies(
    graph: Graph, trials: int, seed: int, start: int = 0
) -> np.ndarray:
    """Empirical per-edge inclusion frequencies over many sampled trees."""
    rng = substream(seed, "tree-frequencies")
    return _tree_edge_counts(graph, trials, rng, start) / float(trials)


def edge_inclusion_probability(
    graph: Graph, edge, trials: int, seed: int
) -> float:
    """Empirical probability that ``edge`` lands in a random spanning tree."""
    eid = graph.resolve_edge(edge)
    return float(tree_edge_frequencies(graph, trials, seed)[eid])


@dataclass(frozen=True)
class ProcessBResult:
    """Outcome of an oriented walk: the first-visit trees of its completed phases.

    On failure the walk stranded at ``stuck_vertex`` in phase ``len(trees) + 1``.
    """

    success: bool
    trees: tuple[SpanningTree, ...] = ()
    stuck_vertex: int | None = None
    steps_taken: int = 0


def process_bp_on(
    oriented: DirectedGraph, seed: int, start: int = 0, phases: int = 1
) -> ProcessBResult:
    """Run the oriented-walk process on an existing orientation.

    Per vertex the out-arc list is kept partitioned: the first d1 slots hold
    previously traversed arcs.  A step draws one integer below
    (d - d1) * (n - 1); values under d1 * (d - d1) select an old arc (each
    with probability 1/(n-1)), the rest split evenly over new arcs.  Each
    phase keeps the first-entry arcs until cover; the next phase roots its
    tree at the current vertex, and traversed-arc state carries over.  The
    walk stops with no further tree when every out-arc at the current vertex
    has been traversed before cover, and raises SamplingError after
    ``phases * oriented.walk_step_cap()`` steps without cover.
    """
    n = oriented.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    indptr, heads, eids = oriented._csr
    targets, srcs = _csr_rows(indptr, heads), _csr_rows(indptr, eids)
    d1 = [0] * n
    word = word_stream(substream(seed, "walk"))
    safe = WORDS - int(oriented.out_degrees.max(initial=0)) * (n - 1)
    cap = phases * oriented.walk_step_cap()
    cur = start
    steps = 0
    trees = []
    for _ in range(phases):
        root = cur
        seen = [False] * n
        seen[root] = True
        parent = [-1] * n
        parent_edge = [-1] * n
        unvisited = n - 1
        while unvisited:
            tl = targets[cur]
            k = d1[cur]
            span = len(tl) - k
            if span <= 0:
                return ProcessBResult(False, tuple(trees), cur, steps)
            bound = span * (n - 1)
            w = word()
            while w >= safe and w >= WORDS - WORDS % bound:
                w = word()
            r = w % bound
            sl = srcs[cur]
            if r < k * span:
                slot = r // span
            else:
                slot = k + (r - k * span) // (n - 1 - k)
                tl[slot], tl[k] = tl[k], tl[slot]
                sl[slot], sl[k] = sl[k], sl[slot]
                slot = k
                d1[cur] = k + 1
            nxt = tl[slot]
            if not seen[nxt]:
                seen[nxt] = True
                parent[nxt] = cur
                parent_edge[nxt] = sl[slot]
                unvisited -= 1
            cur = nxt
            steps += 1
            if steps > cap:
                raise SamplingError(f"oriented walk exceeded {cap} steps without cover")
        trees.append(
            SpanningTree(
                root,
                np.array(parent, dtype=np.int32),
                np.array(parent_edge, dtype=np.int32),
            )
        )
    return ProcessBResult(True, tuple(trees), steps_taken=steps)


def process_bp(
    graph: Graph, p: float, seed: int, start: int = 0, phases: int = 1
) -> ProcessBResult:
    """Walk a random orientation of ``graph``; one first-visit tree per phase.

    With ``phases=2`` the two trees are cut from one continuous walk.
    Orientation and walk consume independent substreams, so the orientation
    can be held fixed while re-walking.  Stops with no further tree when
    every outgoing arc at the current vertex has been traversed before cover.
    """
    oriented = direct_edges_dp(graph, p, child_seed(seed, "orient"))
    return process_bp_on(oriented, seed, start, phases)
