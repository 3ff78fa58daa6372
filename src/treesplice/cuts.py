"""Expansion and cut-ratio analysis.

Neighbour bitsets come from ``graph._packed_rows``, the one packed
neighbour table, built once per call: row v holds v's neighbours in
ceil(n / 64) 64-bit words, vertex w at bit w % 64 of word w // 64.

Exact expansion enumerates every vertex subset (feasible to n = 24, one word)
with a vectorized subset-DP: subsets containing vertex 0 are scanned once and
their complements evaluated alongside, which halves the work.  The other
vertices split into a low part 1..L and a high part L+1..n-1, and the scan runs
one block of 2^L subsets per high subset h, blocks grouped by |h|.  No float
is formed per subset: a side of size s with count c gets the integer key
2c (lcm(1..n/2) / s), whose order is the order of c / s, and the scan keeps
the first minimum by (key, subset index), so the witness is the one a scan in
index order finds.  An edge count is a low-part cut table plus h's cut minus
twice the edges between them, an outer sum of small subset-sum tables; a vertex
count is |N[S]| - |S| for the closed neighbourhood N[S], one OR of a low-part
and a high-part table entry.  L is the largest with 2^L subsets' temporaries
(about 54 bytes each) within ``graph._BLOCK_BYTES`` (4 MiB), so L = 16, a scan
at n = 24 peaks near 2.3 MiB (edge) and 3.4 MiB (vertex) under tracemalloc, and
no array holds 2^(n-1) entries; a graph with n - 1 <= L runs as one block.

Above that scale the spectral certificate (edge expansion >= lambda_2 / 2) and
four sampled cut families stand in for "every cut".  The families are arrays
from the start: int8 family codes and one CSR ``indptr``/``members`` pair.
Uniform subsets of each size come from one lockstep Floyd draw over a boolean
row block, tree cuts are subtree intervals of the DFS order, and BFS balls
grow a chunk of attempts at a time, with the sequential rule that retires a
radius replayed over their sizes.  How balls grow and cuts are counted
depends on density.  A graph is dense when ceil(n / 64) <= 2m / n: a packed
row is then no longer than an average CSR row, and the table's
8 n ceil(n / 64) bytes stay within the 16 m bytes of the CSR the graph
already holds.  On a dense graph balls grow on the packed closed rows of
``graph._closed_rows``: radius r + 1 is the OR of the closed rows over
radius r's members, and a ball's size is its popcount.  On a sparse graph
they grow as boolean sparse products B <- B (A + I).  On a dense unweighted
graph |cut(S)| is the sum over u in S of popcount(row_u & ~S), or over V∖S
for |S| > n/2.  Weighted and sparse graphs count crossing edges: a block of
sets is one boolean membership block x, an edge uv crosses the sets where
x[u] ^ x[v], and w(cut(S)) is the sum over the distinct weights c of c times
the integer count of S's crossing edges of weight c.  The graph and the
derived object of one ``sampled_cut_ratios`` call share each block when
both count this way.  Unweighted values are exact integers either way.
Each block of bitsets, membership flags, unpacked balls or gathered rows
stays within ``graph._BLOCK_BYTES`` (4 MiB).
Every analysis takes a ``Graph``, and a splicer from ``splice`` is one; cut
ratios also take a ``WeightedGraph`` as the derived side.  All analyses are
read-only.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .graph import _BLOCK_BYTES, ConvergenceError, Graph, _blocks, _closed_rows, _packed_rows
from .linalg import laplacian_sparse
from .sampler import aldous_broder
from .seeds import child_seed, substream
from .splice import WeightedGraph

EXACT_SCAN_MAX_N = 24
_SCAN_BYTES_PER_SUBSET = 54  # tracemalloc peak of a scan, per subset, at n = 24
_LANCZOS_TOL = 1e-8  # relative accuracy of lambda_2, at every n
_LANCZOS_ITERS = 10  # Lanczos iteration cap, per vertex
_LANCZOS_CHECK = 10  # Lanczos iterations between convergence tests
_BALL_PROBE = 9     # first chunk of ball attempts: three per radius
_STEBZ, _STEIN = lapack.get_lapack_funcs(("stebz", "stein"), dtype=np.float64)
CUT_FAMILIES = ("min-degree-singleton", "random-size-class", "tree-component", "bfs-ball")


def _is_dense(graph: Graph) -> bool:
    """A packed row is no longer than the average CSR row: ceil(n / 64) <= 2m / n.
    Then the packed table's 8 n ceil(n / 64) bytes stay within the CSR's 16 m."""
    return -(-graph.n // 64) * graph.n <= 2 * graph.m


def _closed_table(nbr: np.ndarray, first: int, bits: int) -> np.ndarray:
    """Bitmask of N[S], S with its neighbours, for every subset S of the
    vertices first..first+bits-1, where vertex first+b is bit b of the index."""
    closed = np.zeros(1 << bits, dtype=np.uint32)
    # Entries with low bit b derive from s ^ (1 << b), whose low bit is higher:
    # bits run high to low.
    for b in reversed(range(bits)):
        step = 1 << (b + 1)
        closed[1 << b :: step] = closed[::step] | nbr[first + b] | np.uint32(1 << (first + b))
    return closed


def _cut_table(nbr: np.ndarray, deg: np.ndarray, first: int, bits: int) -> np.ndarray:
    """|cut(S)| for every subset S, indexed and built as in ``_closed_table``:
    adding v to S adds deg(v) - 2 |N(v) & S|."""
    cut = np.zeros(1 << bits, dtype=np.int64)
    for b in reversed(range(bits)):
        step = 1 << (b + 1)
        inside = np.arange(0, 1 << bits, step, dtype=np.uint32) << np.uint32(first)
        gain = deg[first + b] - 2 * np.bitwise_count(nbr[first + b] & inside).astype(np.int64)
        cut[1 << b :: step] = cut[::step] + gain
    return cut


def _subset_sums(weights: np.ndarray) -> np.ndarray:
    """Row i, entry s: the sum of weights[i, b] over the bits b of s."""
    bits = weights.shape[1]
    return weights @ (np.arange(1 << bits)[:, None] >> np.arange(bits) & 1).T


def _u32(a) -> np.ndarray:
    """int64 values as uint32, modulo 2^32: sums of them wrap back exactly."""
    return (np.asarray(a, dtype=np.int64) % (1 << 32)).astype(np.uint32)


def _ratio_keys(n: int):
    """L and, for |A| = 0..n, the int64 (multiplier, offset) of A's key and of
    its complement's: a side of size s with count c gets the key 2c (L / s),
    L = lcm(1..n/2).  Equal ratios get equal keys, key order is ratio order,
    and a key is at most 2L (n - 1) + 1 < 2^21 up to n = 24.  A complement's
    key is raised by 1, so it is odd and loses a tie against A's even key.  A
    side whose size is outside [1, n/2] has multiplier 0 and offset -1, which
    wraps to the uint32 maximum."""
    half_l = math.lcm(*range(1, n // 2 + 1))
    sides = []
    for side, tie in ((np.arange(n + 1), 0), (n - np.arange(n + 1), 1)):
        ok = (side >= 1) & (side <= n // 2)
        sides.append((np.where(ok, 2 * half_l // np.maximum(side, 1), 0), np.where(ok, tie, -1)))
    return half_l, sides


def _subset_scan(graph: Graph, kind: str) -> tuple[float, int]:
    """Min ratio and witness bitmask over all proper A with |A| <= n/2."""
    n = graph.n
    nbr = _packed_rows(graph).view("<u8")[:, 0].astype(np.uint32)
    universe = (1 << n) - 1

    # t indexes subsets of {1..n-1}; vertex i is bit i-1 of t, so A = (t << 1) | 1.
    # t = (h << low) | lo: block h scans every lo.
    low = min(n - 1, (_BLOCK_BYTES // _SCAN_BYTES_PER_SUBSET).bit_length() - 1)
    high = n - 1 - low
    hs = np.arange(1 << high, dtype=np.uint32) << np.uint32(low + 1)  # block h's vertices
    size_lo = np.bitwise_count(np.arange(1 << low, dtype=np.uint32)) + np.uint8(1)  # |{0} u lo|
    size_hi = np.bitwise_count(hs)

    half_l, ((mult_a, off_a), (mult_c, off_c)) = _ratio_keys(n)
    key = np.empty(1 << low, dtype=np.uint32)
    best = (1 << 32, 0)  # (key, t): the first minimum in t order
    if kind == "edge":
        # |cut(A)| = |cut(lo)| + |cut({0} u h)| - 2 e(lo, {0} u h), and
        # e(lo, X) sums popcount(nbr[v] & X) over v in lo: a sum of three
        # subset-sum tables over the bottom, middle and top bits of lo, added as
        # one outer sum into a row and one into the block, whose rows are long
        # enough to vectorize.  Both sides share the count, so one key per
        # subset takes the side that is in range.
        deg = graph.degrees
        cut_lo = _u32(_cut_table(nbr, deg, 1, low))
        cut_x = _cut_table(nbr, deg, low + 1, high) + deg[0]
        cut_x -= 2 * np.bitwise_count(nbr[0] & hs).astype(np.int64)
        x_hi = (hs | np.uint32(1))[:, None]  # {0} u h
        weights = -2 * np.bitwise_count(nbr[1 : low + 1] & x_hi).astype(np.int64)
        top = low // 4  # bits of lo in the top part and in the middle part
        bottom = low - 2 * top
        part_bottom = _u32(cut_x[:, None] + _subset_sums(weights[:, :bottom]))
        part_mid = _u32(_subset_sums(weights[:, bottom : low - top]))
        part_top = _u32(_subset_sums(weights[:, low - top :]))
        row = np.empty(1 << (low - top), dtype=np.uint32)
        mult = _u32(np.where(mult_a > 0, mult_a, mult_c))
        off = _u32(np.where(mult_a > 0, off_a, off_c))
        for s_h in range(high + 1):
            g_mult = np.take(mult[s_h:], size_lo)
            g_off = cut_lo * g_mult + np.take(off[s_h:], size_lo)
            for h in np.flatnonzero(size_hi == s_h).tolist():
                np.add.outer(part_mid[h], part_bottom[h], out=row.reshape(-1, 1 << bottom))
                np.add.outer(part_top[h], row, out=key.reshape(-1, row.size))
                key *= g_mult
                key += g_off
                i = int(key.argmin())
                best = min(best, (int(key[i]), (h << low) | i))
    else:
        # |outside neighbours of S| = |N[S]| - |S|: one OR of a low-part and a
        # high-part table entry per side.  The complement (~h, ~lo) lacks
        # vertex 0 and reads both tables reversed.
        closed_a = _closed_table(nbr, 1, low)
        closed_c = closed_a[::-1].copy()
        closed_a |= np.uint32(1)
        closed_hi = _closed_table(nbr, low + 1, high)
        add_a = closed_hi | nbr[0]
        add_c = closed_hi[::-1]
        sizes = np.arange(n + 1)
        q_a = _u32(off_a - sizes * mult_a)
        q_c = _u32(off_c - (n - sizes) * mult_c)
        mult_a, mult_c = _u32(mult_a), _u32(mult_c)
        key_c = np.empty_like(key)
        closed = np.empty_like(key)
        count = np.empty(key.shape, dtype=np.uint8)
        for s_h in range(high + 1):
            g_mult_a, g_q_a = np.take(mult_a[s_h:], size_lo), np.take(q_a[s_h:], size_lo)
            g_mult_c, g_q_c = np.take(mult_c[s_h:], size_lo), np.take(q_c[s_h:], size_lo)
            for h in np.flatnonzero(size_hi == s_h).tolist():
                np.bitwise_or(closed_a, add_a[h], out=closed)
                np.multiply(np.bitwise_count(closed, out=count), g_mult_a, out=key)
                key += g_q_a
                np.bitwise_or(closed_c, add_c[h], out=closed)
                np.multiply(np.bitwise_count(closed, out=count), g_mult_c, out=key_c)
                key_c += g_q_c
                np.minimum(key, key_c, out=key)
                i = int(key.argmin())
                best = min(best, (int(key[i]), (h << low) | i))

    best_key, t = best
    mask = (t << 1) | 1
    if best_key & 1:
        mask ^= universe
    size = mask.bit_count()
    count = best_key // 2 * size // half_l
    return count / size, mask


def _scan_report(graph: Graph, kind: str) -> dict:
    """The payload ``expansion --method exact`` prints, less ``seed``:
    ``kind``, the min ratio ``value``, its ascending ``witness`` vertices
    and ``method`` "exact"."""
    if graph.n > EXACT_SCAN_MAX_N:
        raise ValueError(
            f"exhaustive scan is capped at n = {EXACT_SCAN_MAX_N}; "
            "use spectral_lower_bounds or sampled_cut_ratios at this scale"
        )
    if graph.n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    if not graph.is_connected():
        raise ValueError("expansion of a disconnected graph is 0; expected connected input")
    value, mask = _subset_scan(graph, kind)
    witness = [i for i in range(graph.n) if mask >> i & 1]
    return {"kind": kind, "value": value, "witness": witness, "method": "exact"}


def edge_expansion_exact(graph: Graph) -> dict:
    """min |cut(A)| / |A| over proper A with |A| <= n/2, with a witness."""
    return _scan_report(graph, "edge")


def vertex_expansion_exact(graph: Graph) -> dict:
    """min |outside neighbors of A| / |A| over the same range, with a witness."""
    return _scan_report(graph, "vertex")


def _require_connected(graph: Graph, what: str) -> None:
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if not graph.is_connected():
        raise ValueError(f"{what} needs a connected graph")


def spectral_lower_bounds(graphs) -> np.ndarray:
    """lambda_2 of each graph; all share one n.  Edge expansion is at least
    lambda_2 / 2.

    Each Laplacian L gets the operator L + shift J / n, with J the all-ones
    matrix and shift = 2 max degree + 2 > lambda_max(L), so that lambda_2 is
    its smallest eigenvalue.  One plain Lanczos recurrence, at every n (no
    reorthogonalisation: Paige 1980 shows the extreme Ritz values still
    converge to working accuracy), runs for all graphs in lockstep, from the
    start vector cos(i + 1), with one block-diagonal sparse product per
    iteration and alpha, beta kept per graph.  Every ``_LANCZOS_CHECK``
    iterations, and whenever beta nearly vanishes, each graph's tridiagonal
    T gives its smallest Ritz value theta with eigenvector s; the graph stops
    once beta |s_last| <= ``_LANCZOS_TOL`` |theta|, ARPACK's test.  A graph
    still running after ``_LANCZOS_ITERS`` n iterations raises
    ConvergenceError.  A graph's value does not depend on its batchmates.
    ValueError for an empty batch, mixed vertex counts, or a graph that is
    disconnected or has fewer than 2 vertices.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    if any(g.n != graphs[0].n for g in graphs):
        raise ValueError("graphs of one batch must share one vertex count")
    for g in graphs:
        _require_connected(g, "spectral bound")
    return _lockstep_lanczos([laplacian_sparse(g) for g in graphs])


def _lockstep_lanczos(laps: list) -> np.ndarray:
    """Smallest eigenvalue of each L + shift J / n, by ``spectral_lower_bounds``' rule."""
    n = laps[0].shape[0]
    cap = int(_LANCZOS_ITERS * n)
    shift = np.array([2.0 * float(lap.diagonal().max()) + 2.0 for lap in laps])
    out = np.empty(len(laps))
    alphas = np.zeros((len(laps), cap))
    betas = np.zeros((len(laps), cap))
    live = np.arange(len(laps))
    block = sp.block_diag(laps, format="csr")
    q = np.tile(np.cos(np.arange(n, dtype=np.float64) + 1.0), (len(laps), 1))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    prev = np.zeros_like(q)
    beta = np.zeros(len(laps))
    for j in range(cap):
        w = (block @ q.reshape(-1)).reshape(q.shape)
        w += (shift[live] * q.mean(axis=1))[:, None]
        w -= beta[:, None] * prev
        alpha = np.einsum("ij,ij->i", q, w)
        w -= alpha[:, None] * q
        beta = np.linalg.norm(w, axis=1)
        alphas[live, j] = alpha
        betas[live, j] = beta
        if (j + 1) % _LANCZOS_CHECK == 0 or (beta <= _LANCZOS_TOL * alpha).any():
            done = np.zeros(live.size, dtype=bool)
            for r, g in enumerate(live):
                theta, s_last = _smallest_ritz(alphas[g, : j + 1], betas[g, :j])
                if beta[r] * abs(s_last) <= _LANCZOS_TOL * abs(theta):
                    out[g] = theta
                    done[r] = True
            if done.any():
                keep = ~done
                live, q, w, beta = live[keep], q[keep], w[keep], beta[keep]
                if not live.size:
                    return out
                block = sp.block_diag([laps[g] for g in live], format="csr")
        prev, q = q, w / beta[:, None]
    raise ConvergenceError(
        f"eigenvalue iteration did not converge within {cap} Lanczos iterations"
    )


def _smallest_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of the symmetric tridiagonal with diagonal ``alpha``
    and off-diagonal ``beta``, and the last entry of its unit eigenvector.

    LAPACK's stebz (bisection) and stein (inverse iteration), called as
    ``scipy.linalg.eigh_tridiagonal(..., select="i", select_range=(0, 0))``
    calls them, so both values are bit-identical to it, without the wrapper's
    argument checks.
    """
    if alpha.size == 1:
        return float(alpha[0]), 1.0
    m, w, iblock, isplit, info = _STEBZ(alpha, beta, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vec, info = _STEIN(alpha, beta, w[:m], iblock, isplit)
    if info:
        raise ConvergenceError(f"LAPACK tridiagonal eigensolver failed (info={info})")
    return float(w[0]), float(vec[-1, 0])


def sample_cut_subsets(
    graph: Graph, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four adversarial cut families as arrays ``(family, indptr, members)``:
    cut i is family ``CUT_FAMILIES[family[i]]`` (int8 codes) with vertex
    set ``members[indptr[i]:indptr[i + 1]]``, ascending but for tree cuts,
    which keep the DFS order.

    All minimum-degree singletons come first; the remaining budget splits
    evenly between uniform subsets of doubling sizes (``_size_class_subsets``),
    cuts induced by deleting one edge of a fresh random spanning tree
    (``_tree_component_subsets``) and BFS balls of radii 1..3 around random
    centers (``_bfs_balls``; balls that swallow every vertex are skipped).
    The ball centers are drawn after the size classes, from the same stream.
    A graph with fewer than 2 vertices or more than one component raises
    ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _require_connected(graph, "cut sampling")
    n = graph.n
    rng = substream(seed, "cut-subsets")
    deg = graph.degrees
    singles = np.flatnonzero(deg == deg.min())[:samples]
    remaining = samples - singles.size
    quota = remaining // 3
    sized = _size_class_subsets(rng, n, remaining - 2 * quota)
    trees = _tree_component_subsets(graph, child_seed(seed, "trees"), quota)
    balls = _bfs_balls(graph, rng.integers(0, n, size=8 * quota + 16), quota)[:2]
    families = [(np.ones(singles.size, dtype=np.int64), singles), sized, trees, balls]
    family = np.repeat(np.arange(len(families), dtype=np.int8), [s.size for s, _ in families])
    indptr = np.zeros(family.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate([s for s, _ in families]), out=indptr[1:])
    return family, indptr, np.concatenate([m for _, m in families])


def _size_class_subsets(rng, n: int, want: int) -> tuple[np.ndarray, np.ndarray]:
    """``want`` uniform subsets, set i of size 2^(i mod k) for the k sizes
    1, 2, 4, ... <= n/2, grouped by size: (sizes, members), sets ascending."""
    classes = np.array([1 << k for k in range((n // 2).bit_length())], dtype=np.int64)
    rows = np.array([len(range(c, want, classes.size)) for c in range(classes.size)])
    members = np.empty(int(rows @ classes), dtype=np.int64)
    lo = 0
    for s, r in zip(classes.tolist(), rows.tolist()):
        _floyd_subsets(rng, n, members[lo : lo + r * s].reshape(r, s))
        lo += r * s
    return np.repeat(classes, rows), members


def _floyd_subsets(rng, n: int, out: np.ndarray) -> None:
    """Fill each row of ``out`` with a uniform subset of range(n), ascending.

    Floyd's algorithm (Bentley & Floyd, CACM 1987) runs in lockstep over a
    block of rows of size s: for j = n - s .. n - 1 every row draws v uniform
    in [0, j] and takes j if it already holds v, else v, so after s draws each
    row is a uniform s-subset.  A block is a boolean matrix whose row-major
    nonzeros are its members in order; the matrix and its members stay within
    ``_BLOCK_BYTES``.
    """
    rows, s = out.shape
    blocks = list(_blocks(np.full(rows, n + 8 * s)))
    matrix = np.empty(max((hi - lo for lo, hi in blocks), default=0) * n, dtype=bool)
    for lo, hi in blocks:
        picked = matrix[: (hi - lo) * n]
        picked[:] = False
        start = np.arange(0, picked.size, n)
        for j in range(n - s, n):
            at = start + rng.integers(0, j + 1, size=start.size)
            picked[np.where(picked[at], start + j, at)] = True
        np.remainder(np.flatnonzero(picked).reshape(-1, s), n, out=out[lo:hi])


def _tree_component_subsets(
    graph: Graph, seed: int, want: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cuts induced by deleting one edge of fresh random spanning trees:
    (sizes, members).  Tree j's cuts are the subtrees ``order[tin[v]:tout[v]]``
    (in DFS order) of its non-root vertices v, taken in ascending v and cut
    from the interval clocks with one ``repeat``; trees are drawn until
    ``want`` cuts are made."""
    sizes, members = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    j = made = 0
    while made < want:
        tree, _ = aldous_broder(graph, child_seed(seed, "cut-tree", j))
        j += 1
        order, tin, tout = tree.dfs_intervals()
        v = np.flatnonzero(tree.parent >= 0)[: want - made]
        size = tout[v] - tin[v]
        first = np.cumsum(size) - size
        members.append(order[np.arange(size.sum()) + np.repeat(tin[v] - first, size)])
        sizes.append(size)
        made += v.size
    return np.concatenate(sizes), np.concatenate(members)


def _bfs_balls(
    graph: Graph, centers: np.ndarray, want: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Up to ``want`` BFS balls, attempt i of radius i % 3 + 1 around
    ``centers[i]``: (sizes, members, attempts used), balls ascending.

    The rule is sequential.  A ball that swallows every vertex is a failure;
    a radius retires after three failures, and its later attempts are
    skipped, so dense graphs do not spend the attempt budget on balls that
    fill the graph; attempts stop once ``want`` balls are made, every radius
    is retired or the centers run out.  Balls are grown a chunk of attempts at a
    time, each radius's by ``_grow_packed_balls`` on a dense graph and by
    ``_grow_balls`` on a sparse one, and ``_replay_balls`` replays the rule
    over the ball sizes so far.  Chunks double from ``_BALL_PROBE`` attempts
    but never exceed what the balls still wanted need, so on a graph whose
    large balls all fail, a radius is retired before many of them are grown.
    """
    n, cap = graph.n, centers.size
    if not want:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    dense = _is_dense(graph)
    table = _closed_rows(graph) if dense else _closed_adjacency(graph)
    size = np.zeros(cap, dtype=np.int64)  # 0 for attempts not grown
    ids, grown = [], []
    lo, chunk, made, fails = 0, _BALL_PROBE, 0, np.zeros(3, dtype=np.int64)
    while True:
        live = np.flatnonzero(fails < 3)
        hi = min(cap, lo + chunk, lo + 3 * -(-(want - made) // live.size))
        for k in live:
            at = np.arange(lo + (k - lo) % 3, hi, 3)
            if dense:
                ball = _grow_packed_balls(table, centers[at], k + 1)
                size[at] = _popcounts(ball)
            else:
                ball = _grow_balls(table, centers[at], k + 1)
                size[at] = np.diff(ball.indptr)
            ids.append(at)
            grown.append(ball)
        used, kept, fails = _replay_balls(size[:hi] == n, want)
        made = kept.size
        if made >= want or (fails >= 3).all() or hi == cap:
            break
        lo, chunk = hi, 2 * chunk
    ids = np.concatenate(ids)
    row = np.empty(cap, dtype=np.int64)
    row[ids] = np.arange(ids.size)
    if dense:
        members = _packed_members(np.concatenate(grown)[row[kept]], size[kept])
    else:
        balls = sp.vstack(grown, format="csr")[row[kept]]
        balls.sort_indices()
        members = balls.indices.astype(np.int64)
    return size[kept], members, used


def _closed_adjacency(graph: Graph) -> sp.csr_matrix:
    """A + I as a boolean CSR matrix: row v holds v and its neighbours."""
    return (graph._adjacency() + sp.identity(graph.n, format="csr")).astype(bool)


def _grow_balls(step: sp.csr_matrix, centers: np.ndarray, radius: int) -> sp.csr_matrix:
    """Row i holds the vertices within ``radius`` >= 1 of ``centers[i]``, in no
    set order: the centers' rows of ``step`` = A + I, times it radius - 1 times."""
    ball = step[centers]
    for _ in range(radius - 1):
        ball = ball @ step
    return ball


def _grow_packed_balls(closed: np.ndarray, centers: np.ndarray, radius: int) -> np.ndarray:
    """Row i holds the vertices within ``radius`` >= 1 of ``centers[i]`` as
    packed bits: the centers' rows of ``closed`` (``_closed_rows``), then
    radius - 1 times the OR of the closed rows over each ball's members.  A
    block of balls' unpacked bits, members and gathered rows stays within
    ``_BLOCK_BYTES``."""
    ball = closed[centers]
    words = closed.shape[1]
    for _ in range(radius - 1):
        size = _popcounts(ball)
        first = np.cumsum(size) - size
        grown = np.empty_like(ball)
        for lo, hi in _blocks(72 * words + (8 * words + 16) * size):
            grown[lo:hi] = np.bitwise_or.reduceat(
                closed[_packed_members(ball[lo:hi], size[lo:hi])], first[lo:hi] - first[lo], axis=0
            )
        ball = grown
    return ball


def _popcounts(packed: np.ndarray) -> np.ndarray:
    """The number of set bits in each row of 64-bit words."""
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


def _packed_members(packed: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The set bits of each row of 64-bit words, ascending, row after row;
    ``size`` holds the rows' popcounts.  A block of rows' unpacked bits and
    positions stays within ``_BLOCK_BYTES``."""
    width = 64 * packed.shape[1]
    first = np.zeros(size.size + 1, dtype=np.int64)
    np.cumsum(size, out=first[1:])
    out = np.empty(first[-1], dtype=np.int64)
    for lo, hi in _blocks(width + 8 * size):
        # One expression: no block's bits or positions outlive it.
        np.remainder(
            np.flatnonzero(np.unpackbits(packed[lo:hi].view(np.uint8), axis=1, bitorder="little")),
            width,
            out=out[first[lo] : first[hi]],
        )
    return out


def _replay_balls(full: np.ndarray, want: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``_bfs_balls``' rule over attempts 0..t-1, where ``full[i]`` says that
    attempt i's ball swallowed every vertex (read only where i is not skipped):
    (attempts used, the attempts whose balls are kept, failures per radius)."""
    t = full.size
    at = np.arange(t)
    fails = np.zeros((3, t), dtype=np.int64)
    fails[at % 3, at] = full
    np.cumsum(fails, axis=1, out=fails)
    kept = ~full & (fails[at % 3, at] - full < 3)
    done = (np.cumsum(kept) >= want) | (fails.min(axis=0) >= 3)
    if done.any():
        t = int(done.argmax()) + 1
    return t, np.flatnonzero(kept[:t]), fails[:, t - 1]


def _cut_values(objs, indptr, members) -> list[np.ndarray]:
    """w(cut) for each CSR vertex set in each graph or weighted graph of
    ``objs`` (one vertex set): by popcount over packed rows on a dense
    unweighted graph, else by ``_crossing_cut_values``, whose membership
    blocks all the other graphs share."""
    out, crossing = [], []
    for obj in objs:
        weighted = isinstance(obj, WeightedGraph)
        graph, weights = (obj.graph, obj.weights) if weighted else (obj, None)
        if not weighted and _is_dense(graph):
            out.append(_popcount_cut_values(_packed_rows(graph).view("<u8"), indptr, members))
        else:
            out.append(np.empty(indptr.size - 1))
            crossing.append((graph, weights, out[-1]))
    if crossing:
        _crossing_cut_values(crossing, indptr, members)
    return out


def _crossing_cut_values(graphs: list, indptr, members) -> None:
    """Fill ``out`` of each (graph, weights, out) with w(cut(S)) for every CSR
    vertex set S: the sum over the distinct weights c of c times the number
    of edges of weight c that cross S (weight 1 for a plain graph).

    A block of sets is one boolean membership block x, vertex by set; an
    edge uv crosses the sets where x[u] ^ x[v].  With the edges sorted by
    weight, each weight's crossing flags are summed into integer counts
    (uint16 while a weight has fewer than 2^16 edges), so the flags are
    never cast, and one product with the weights gives the values.  A
    block's membership, flags, counts and index entries stay within
    ``_BLOCK_BYTES``.
    """
    n = graphs[0][0].n
    edges, widest = [], 0
    for graph, weights, out in graphs:
        if weights is None:
            weights = np.ones(graph.m)
        order = np.argsort(weights, kind="stable")
        value, first = np.unique(weights[order], return_index=True)
        bounds = np.append(first, graph.m).tolist()
        acc = np.uint16 if np.diff(bounds).max(initial=0) < 1 << 16 else np.uint32
        edges.append((graph.edge_u[order], graph.edge_v[order], bounds, acc, value, out))
        widest = max(widest, 2 * graph.m + 12 * value.size)  # flags, counts, their cast
    sizes = np.diff(indptr)
    blocks = list(_blocks(n + widest + 16 * sizes))
    matrix = np.empty(n * max((hi - lo for lo, hi in blocks), default=0), dtype=bool)
    for lo, hi in blocks:
        x = matrix[: n * (hi - lo)].reshape(n, hi - lo)
        x[:] = False
        x[members[indptr[lo] : indptr[hi]], np.repeat(np.arange(hi - lo), sizes[lo:hi])] = True
        for eu, ev, bounds, acc, value, out in edges:
            out[lo:hi] = value @ _weight_counts(x, eu, ev, bounds, acc)


def _weight_counts(x: np.ndarray, eu, ev, bounds: list, acc) -> np.ndarray:
    """Row c, column j: how many edges eu[i]ev[i], bounds[c] <= i < bounds[c + 1],
    cross set j of the membership block x, summed in ``acc``."""
    flags = x[eu]
    flags ^= x[ev]
    count = np.empty((len(bounds) - 1, x.shape[1]), dtype=acc)
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        np.add.reduce(flags[a:b].view(np.uint8), axis=0, dtype=acc, out=count[c])
    return count


def _popcount_cut_values(rows: np.ndarray, indptr, members) -> np.ndarray:
    """|cut(S)| = sum over u in S of popcount(row_u & ~S), a ``_popcount_block``
    of sets at a time, whose temporaries fit ``_BLOCK_BYTES`` and die with it.
    A set above n/2 is counted as V∖S, since |cut(S)| = |cut(V∖S)|."""
    n, words = rows.shape
    out = np.empty(indptr.size - 1)
    for lo, hi in _popcount_blocks(n, words, np.diff(indptr)):
        out[lo:hi] = _popcount_block(rows, indptr[lo : hi + 1], members)
    return out


def _popcount_blocks(n: int, words: int, sizes: np.ndarray) -> list[tuple[int, int]]:
    """``_popcount_cut_values``' blocks, listed so that no per-set cost outlives
    them.  A set costs its bitset, four entries, and five index entries a
    member (``which``, ``word``, ``bit`` and casts); flipped, a byte a vertex
    unpacked and two ``np.nonzero`` entries a counted member.  A counted
    member costs its gathered row and mask words, popcounts and two entries."""
    counted = np.minimum(sizes, n - sizes)
    per_set = 8 * words + 32 + 40 * sizes + (sizes > n // 2) * (64 * words + 16 * counted)
    return list(_blocks(per_set + (17 * words + 16) * counted))


def _popcount_block(rows: np.ndarray, indptr, members) -> np.ndarray:
    """The cut sizes of the CSR sets whose bounds in ``members`` are ``indptr``."""
    n, words = rows.shape
    sizes = np.diff(indptr)
    flip = sizes > n // 2
    which = np.repeat(np.arange(sizes.size), sizes)
    vertex = members[indptr[0] : indptr[-1]]
    outside = np.full((sizes.size, words), ~np.uint64(0))
    word = which * words + (vertex >> 6)
    bit = np.uint64(1) << (vertex & 63).astype(np.uint64)
    np.bitwise_and.at(outside.reshape(-1), word, ~bit)
    # A flipped set's members are the bits of V∖S, and its mask is S.
    big = np.flatnonzero(flip)
    bits = np.unpackbits(outside[big].view(np.uint8), axis=1, count=n, bitorder="little")
    rest, vert = np.nonzero(bits)
    keep = ~flip[which]
    which = np.concatenate([which[keep], big[rest]])
    vertex = np.concatenate([vertex[keep], vert])
    outside[big] = ~outside[big]
    crossing = rows[vertex]
    crossing &= outside[which]
    return np.bincount(which, weights=np.bitwise_count(crossing).sum(axis=1), minlength=sizes.size)


def sampled_cut_ratios(graph: Graph, derived, samples: int, seed: int) -> np.ndarray:
    """w(cut) in ``derived`` (a ``Graph`` or ``WeightedGraph``) over |cut| in
    ``graph``, one float64 entry per cut of ``sample_cut_subsets``, in its order."""
    if derived.n != graph.n:
        raise ValueError("graph and derived object must share a vertex set")
    _, indptr, members = sample_cut_subsets(graph, samples, seed)
    base, cut = _cut_values([graph, derived], indptr, members)
    return cut / base


def sparsifier_quality(
    graph: Graph, weighted: WeightedGraph, samples: int, seed: int
) -> tuple[float, float]:
    """(c_low, c_high): min ratio and max log-normalized ratio over sampled cuts."""
    ratio = sampled_cut_ratios(graph, weighted, samples, seed)
    return float(ratio.min()), float(ratio.max() / math.log(graph.n))
