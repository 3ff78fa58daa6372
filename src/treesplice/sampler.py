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
``Orientation``.  It yields the walks' trees, one row of first-entry edge
ids per walk, a chunk at a time; a walk with no untraversed arc left before
cover keeps a -1 in its row.  Callers reduce the rows to what they count:
``_tree_edge_counts`` per edge, ``_tree_sums`` per walk, as the sum of a
table's rows over the walk's edge ids (``_tree_masks`` is one such table).
The scalar samplers remain for single long walks and for walks on a fresh
orientation per run.

Every walk but K_n's reads the graph's CSR; an orientation's is its base
graph's, with the rows filtered by the direction masks.  ``aldous_broder``
takes a block of words at a time and makes the block's moves at once,
through the cached neighbour lists or, on K_n in ``triu`` order, as a
cumulative sum mod n; it keeps first visits in numpy and reads each
first-entry edge from its row slot, or on K_n from the ``triu`` formula, so
its tree and trace are those of a step loop on the same words.  The K_n walk
needs only n: ``aldous_broder``, ``sample_trees`` and ``splice`` take an int
n for K_n, and K_n's trees then cost O(n) memory, not its n(n-1)/2 edges.
``process_bp_on`` permutes list rows it slices afresh per call.  Both apply
``seeds.below``'s exact rule inline to raw 64-bit words; a word below 2^64
minus the walk's largest bound passes for every bound.
The lockstep engine draws differently, with ``Generator.integers``: one
draw per active walk and step, on array bounds, or on a regular graph of
degree d on the scalar bound d, which gives the same values.  It holds the
state of the active walks only (current vertex, vertices left to enter, row
offset into the flat ``first`` table).  A step writes the first-entry edges
and counts down vertices left at the indices of the walks that entered a
new vertex only, and compacts the state only when one of those finishes or
some walk gets stuck.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Orientation, SamplingError, _cover_step_cap, _csr_rows
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

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            p = int(self.parent[v])
            if p >= 0:
                out.append((min(p, v), max(p, v)))
        return out

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
            if not 0 <= eid < graph.m:
                raise ValueError(f"parent edge of {v} is not an edge id")
            a, b = graph.edge(eid)
            if {a, b} != {p, v}:
                raise ValueError(f"parent edge of {v} does not join it to {p}")
        if seen_root != 1:
            raise ValueError("exactly one root expected")
        # Every vertex must reach the root through parents without cycles.
        self.dfs_intervals()


def aldous_broder(
    graph: Graph | int, seed: int, start: int = 0
) -> tuple[SpanningTree, WalkTrace]:
    """Uniform spanning tree by random walk; keeps each first-entry edge.

    Walks until every vertex is visited.  A disconnected graph raises
    SamplingError before the first step, and a walk that has not covered
    within ``graph.walk_step_cap()`` steps raises it too.  An int n stands
    for K_n in ``complete_graph``'s edge order, which is then never built.
    Steps come a block at a time, in closed form from n alone on K_n in
    ``triu`` edge order, else from the neighbour lists; first visits are
    kept in numpy after each block, and the trace is cut at the last first
    visit.
    """
    if isinstance(graph, Graph):
        n, complete, cap = graph.n, graph._complete_in_order, graph.walk_step_cap()
    else:
        n = operator.index(graph)
        complete, cap = True, _cover_step_cap(n)
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    if not complete and not graph.is_connected():
        raise SamplingError("graph is disconnected; the walk cannot cover")
    gen = substream(seed, "aldous-broder")
    draws: list[np.ndarray] = []
    blocks = (_complete_steps(gen, n, start) if complete
              else _neighbour_steps(graph, gen, start, draws))
    # cap marks a vertex not yet entered; the walk may take cap - 1 steps.
    first_visit = np.full(n, cap, dtype=np.int64)
    first_visit[start] = 0
    pieces = [np.array([start], dtype=np.int64)]
    steps = 0
    while first_visit.max() == cap:
        if steps == cap - 1:
            raise SamplingError(f"walk did not cover within {cap} steps")
        pos = next(blocks)[: cap - 1 - steps]
        pieces.append(pos)
        np.minimum.at(first_visit, pos, np.arange(steps + 1, steps + 1 + pos.size))
        steps += pos.size
    trace = np.concatenate(pieces)[: first_visit.max() + 1]
    # The step before each first visit (0 at the start) and its vertex.
    entry = np.maximum(first_visit - 1, 0)
    parent = trace[entry]
    if complete:
        # Edge (u, v), u < v, has id u (2n - u - 1) / 2 + v - u - 1.
        lo, hi = np.minimum(parent, np.arange(n)), np.maximum(parent, np.arange(n))
        parent_edge = (lo * (2 * n - lo - 1) // 2 + hi - lo - 1).astype(np.int32)
    else:
        # v's first-entry edge sits at slot draw mod d(parent) of its row.
        indptr, _, eid = graph._csr
        slot = np.concatenate(draws)[entry] % graph.degrees.astype(np.uint64)[parent]
        parent_edge = eid[indptr[parent] + slot.astype(np.int64)]
    parent[start] = parent_edge[start] = -1
    tree = SpanningTree(start, parent.astype(np.int32), parent_edge)
    return tree, WalkTrace(trace.astype(np.int32), first_visit)


def _complete_steps(gen: np.random.Generator, n: int, start: int):
    """``aldous_broder``'s steps on K_n in ``triu`` edge order, in closed form.

    Row v of the CSR reads v+1, ..., n-1, 0, ..., v-1, so slot j leads to
    (v + 1 + j) mod n and the trace is a cumulative sum mod n of the slots.
    Words the exact rule rejects (w >= 2^64 - 2^64 mod (n-1), none when n-1
    is a power of two) are dropped, and the rest give j = w mod (n-1).
    """
    d = n - 1
    limit = WORDS - WORDS % d
    # The expected cover time is (n-1) H_(n-1) < n (ln n + 1) steps.
    block = int(n * (math.log(n) + 2))
    cur = start
    while True:
        w = gen.integers(0, WORDS, size=block, dtype=np.uint64)
        if limit < WORDS:
            w = w[w < np.uint64(limit)]
        pos = np.cumsum((w % np.uint64(d)).astype(np.int64) + 1)
        pos += cur
        pos %= n
        cur = int(pos[-1])
        yield pos


_WALK_BLOCK = 4096  # words per block of the walk on a general graph


def _neighbour_steps(graph: Graph, gen: np.random.Generator, start: int, draws: list):
    """``aldous_broder``'s steps on any graph, ``_WALK_BLOCK`` words at a time.

    Word w moves to slot w mod d(cur) of the current neighbour list, one
    comprehension a block, with w reduced mod the lcm of the degrees when it
    is below 2^64.  A word at or above 2^64 minus the largest degree splits
    the block and is dropped if the exact rule rejects it at the vertex it
    is read at (w >= 2^64 - 2^64 mod d(cur)).  Used words go to ``draws``.
    """
    nbrs = graph._neighbor_lists
    deg = graph.degrees.tolist()
    safe = np.uint64(WORDS - max(deg))
    lcm = math.lcm(*set(deg))
    cur = start
    while True:
        raw = gen.integers(0, WORDS, size=_WALK_BLOCK, dtype=np.uint64)
        words = raw % np.uint64(lcm) if lcm < WORDS else raw
        xs = words.tolist()
        pos, lo, dropped = [], 0, []
        for t in np.flatnonzero(raw >= safe).tolist() + [_WALK_BLOCK]:
            pos += [cur := nbrs[cur][x % deg[cur]] for x in xs[lo:t]]
            lo = t
            if t < _WALK_BLOCK and int(raw[t]) >= WORDS - WORDS % deg[cur]:
                dropped.append(t)
                lo += 1
        draws.append(np.delete(words, dropped) if dropped else words)
        yield np.array(pos, dtype=np.int64)


def sample_trees(graph: Graph | int, k: int, seed: int) -> list[SpanningTree]:
    """k independent uniform spanning trees from per-tree substreams; an int
    n stands for K_n, as in ``aldous_broder``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [
        aldous_broder(graph, child_seed(seed, "tree", i))[0] for i in range(k)
    ]


# Per-walk bytes of the walk state and per-step temporaries, as measured by
# tracemalloc: at most 69 under the uniform rule, 143 under the oriented rule.
_STEP_TEMP_BYTES = 96
_ORIENTED_TEMP_BYTES = 64
# Byte budget of one lockstep chunk.
_BATCH_BYTES = 16 << 20


def _cover_walk_trees(graph: Graph | Orientation, trials: int, rng: np.random.Generator):
    """Run many first-visit cover walks from vertex 0 in lockstep; yield their
    trees by chunk.

    Each chunk is an array ``first`` of shape (walks, n): ``first[w, v]`` is
    the id of the edge by which walk w first entered v, -2 at vertex 0 and -1
    where the walk never arrived.  Its dtype is the smallest signed integer
    that holds m + 1, so a table of m + 2 entries indexed by ``first`` reads
    its last two entries at -1 and -2.

    The step rule follows the graph type:
      Graph         -- uniform-neighbour rule; every walk covers a connected
                       graph, and each row is a uniform spanning tree.  A
                       disconnected graph raises SamplingError before any
                       walk starts.
      Orientation   -- traversed-arc rule of ``process_bp_on``: each old arc
                       out of the current vertex has probability 1/(n-1), the
                       rest splits evenly over new arcs.  A walk whose current
                       vertex has no untraversed arc before cover stops, and
                       its row keeps a -1.  Edge ids are the base graph's.

    Each step draws once for every walk still active, in walk order.  Under
    the uniform rule on a regular graph of degree d, row v of the CSR starts
    at v * d and the draw is ``rng.integers(0, d, size=k)``, which on numpy
    gives the values of ``rng.integers(0, deg[cur])`` at about half the cost.
    The current vertex, the count of vertices still to enter and the row
    offset into the flattened ``first`` are held for the active walks only.
    A step touches ``first`` and the counts at the walks that entered a new
    vertex, by index, and compacts the state only on a step where some walk
    covers or gets stuck.

    Walks run in chunks sized from the ``_BATCH_BYTES`` budget.  Per walk a
    chunk holds the ``first`` row (n bytes below 127 edges, 2n below 32767),
    under the oriented rule an arc-slot row and a traversed count per vertex
    (s bytes each, s = 1 below 256 out-arcs per vertex), and 96 (oriented:
    160) bytes of walk state and per-step temporaries.  Memory is thus
    bounded by chunk x (n b + s (arcs + n) + 160) bytes, with b the row's
    item size; the budget keeps 1e5 uniform walks on up to 70 vertices and
    126 edges in one chunk.
    """
    n = graph.n
    if n < 2:
        raise ValueError("batch walks need n >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    oriented = isinstance(graph, Orientation)
    indptr, heads, arc_eids = graph._csr
    heads = heads.astype(np.int64)
    deg = np.diff(indptr)
    cap = graph.walk_step_cap()
    if not oriented and not graph.is_connected():
        raise SamplingError("graph is disconnected; walks cannot cover")
    first_t = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > graph.m)
    row = n * np.dtype(first_t).itemsize + _STEP_TEMP_BYTES
    if oriented:
        arcs = heads.size
        slot_t = np.min_scalar_type(max(int(deg.max()), 1))
        local = (np.arange(arcs) - np.repeat(indptr[:-1], deg)).astype(slot_t)
        row += _ORIENTED_TEMP_BYTES + (arcs + n) * slot_t.itemsize
    chunk = max(1, _BATCH_BYTES // row)

    # The degree of a regular graph, which the uniform rule draws below; else 0.
    d = int(deg[0]) if not oriented and (deg == deg[0]).all() else 0
    for done in range(0, trials, chunk):
        w = min(chunk, trials - done)
        first = np.full((w, n), -1, dtype=first_t)
        first[:, 0] = -2
        flat = first.reshape(-1)
        # State of the active walks only, in walk order: the current vertex,
        # the count of vertices not yet entered, and the walk's row offset
        # into ``flat`` (also its offset into ``d1``).
        cur = np.zeros(w, dtype=np.int64)
        left = np.full(w, n - 1, dtype=np.int32)
        off = np.arange(0, w * n, n, dtype=np.int64)
        if oriented:
            # Per walk and vertex, the first d1 slots of the vertex's arc
            # range hold its traversed arcs (as local slot indices); ``poff``
            # is each active walk's offset into ``perm``.
            perm = np.tile(local, w)
            d1 = np.zeros(w * n, dtype=slot_t)
            poff = np.arange(0, w * arcs, arcs, dtype=np.int64)
        it = 0
        while cur.size:
            it += 1
            if it > cap:
                raise SamplingError(
                    f"batch walk did not cover within {cap} steps; "
                    "is the graph connected?"
                )
            if not oriented:
                if d:
                    arc = cur * d + rng.integers(0, d, size=cur.size)
                else:
                    arc = indptr[cur] + rng.integers(0, deg[cur])
            else:
                k = d1[off + cur].astype(np.int64)
                span = deg[cur] - k
                if not span.all():
                    keep = span > 0
                    cur, left, off, poff = cur[keep], left[keep], off[keep], poff[keep]
                    continue
                # The draw of process_bp_on's step, shifted down by d1 * span:
                # below 0 picks old slot r // span + d1, else new slot
                # r // (n - 1 - d1) + d1.
                r = rng.integers(0, span * (n - 1)) - k * span
                new = r >= 0
                slot = k + r // np.where(new, n - 1 - k, span)
                base = indptr[cur]
                at = poff + base
                j = perm[at + slot]
                if new.any():
                    rn, kn = at[new], k[new]
                    perm[rn + slot[new]] = perm[rn + kn]
                    perm[rn + kn] = j[new]
                    d1[off[new] + cur[new]] += 1
                arc = base + j
            cur = heads[arc]
            pos = off + cur
            idx = np.flatnonzero(flat[pos] == -1)
            if idx.size:
                flat[pos[idx]] = arc_eids[arc[idx]]
                left[idx] -= 1
                if not left[idx].all():
                    keep = left > 0
                    cur, left, off = cur[keep], left[keep], off[keep]
                    if oriented:
                        poff = poff[keep]
        yield first


def _tree_edge_counts(graph: Graph, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Per edge, how many of ``trials`` sampled trees contain it."""
    counts = np.zeros(graph.m + 2, dtype=np.int64)
    for first in _cover_walk_trees(graph, trials, rng):
        for col in first.T:
            counts += np.bincount(col + 2, minlength=graph.m + 2)
    return counts[2:]


def _tree_sums(
    graph: Graph | Orientation, trials: int, rng: np.random.Generator, table
) -> np.ndarray:
    """Per walk, the sum of ``table``'s rows over the walk's first-entry edge ids.

    ``table`` has m + 2 rows: row e for edge e, row -2 for the start vertex 0
    and row -1 for a vertex the walk never reached.  The result has one row
    per walk, in ``table``'s dtype, which must hold the sums.
    """
    sums = []
    for first in _cover_walk_trees(graph, trials, rng):
        acc = np.zeros((len(first),) + table.shape[1:], dtype=table.dtype)
        for col in first.T:
            acc += table[col]
        sums.append(acc)
    return np.concatenate(sums)


def _tree_masks(
    graph: Graph | Orientation, trials: int, rng: np.random.Generator, ids
) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, a bitmask of the listed edge ids (at most 64) in its tree, and
    whether the walk got stuck before cover (only under the oriented rule)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size > 64:
        raise ValueError("can mask at most 64 edges")
    if ids.size and not (0 <= ids.min() and ids.max() < graph.m):
        raise ValueError(f"edge ids must lie in [0, {graph.m})")
    # Column 0 holds the edge bits, column 1 counts unreached vertices.  A
    # walk's first-entry edges are distinct, so the sum of its bits is their OR.
    table = np.zeros((graph.m + 2, 2), dtype=np.uint64)
    table[ids, 0] = np.uint64(1) << np.arange(ids.size, dtype=np.uint64)
    table[-1, 1] = 1
    sums = _tree_sums(graph, trials, rng, table)
    return sums[:, 0], sums[:, 1] > 0


def tree_edge_frequencies(graph: Graph, trials: int, seed: int) -> np.ndarray:
    """Empirical per-edge inclusion frequencies over many sampled trees."""
    rng = substream(seed, "tree-frequencies")
    return _tree_edge_counts(graph, trials, rng) / float(trials)


@dataclass(frozen=True)
class ProcessBResult:
    """Outcome of an oriented walk: the first-visit trees of its completed phases.

    On failure the walk stranded at ``stuck_vertex`` in phase ``len(trees) + 1``.
    """

    success: bool
    trees: tuple[SpanningTree, ...] = ()
    stuck_vertex: int | None = None
    steps_taken: int = 0


def process_bp_on(oriented: Orientation, seed: int, phases: int = 1) -> ProcessBResult:
    """Run the oriented-walk process on an existing orientation, from vertex 0.

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
    if phases < 1:
        raise ValueError("phases must be >= 1")
    indptr, heads, eids = oriented._csr
    targets, srcs = _csr_rows(indptr, heads), _csr_rows(indptr, eids)
    d1 = [0] * n
    word = word_stream(substream(seed, "walk"))
    safe = WORDS - int(oriented.out_degrees.max(initial=0)) * (n - 1)
    cap = phases * oriented.walk_step_cap()
    cur = 0
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


def process_bp(graph: Graph, p: float, seed: int, phases: int = 1) -> ProcessBResult:
    """Walk a random orientation of ``graph``; one first-visit tree per phase.

    With ``phases=2`` the two trees are cut from one continuous walk.
    Orientation and walk consume independent substreams, so the orientation
    can be held fixed while re-walking.  Stops with no further tree when
    every outgoing arc at the current vertex has been traversed before cover.
    """
    oriented = direct_edges_dp(graph, p, child_seed(seed, "orient"))
    return process_bp_on(oriented, seed, phases=phases)
