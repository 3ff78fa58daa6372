"""Expansion and cut-ratio analysis.

Exact expansion enumerates every vertex subset (feasible to n = 24) with a
vectorized subset-DP: subsets containing vertex 0 are scanned once and their
complements evaluated alongside, which halves the work.  The other vertices
split into a low part 1..L and a high part L+1..n-1, and the scan runs one
block of 2^L subsets per high subset h.  Neighbourhood unions, degree sums and
sizes combine a high-part table entry with a low-part table, a complement reads
both tables reversed, and inner-edge counts run the DP over the low bits from
h's own count.  L is the largest with 2^L subsets' temporaries (about 80 bytes
each) within ``_SCAN_BLOCK_BYTES`` (5 MiB), so L = 16 and no array holds
2^(n-1) entries; a graph with n - 1 <= L runs as one block.  Above that scale the
spectral certificate (edge expansion >= lambda_2 / 2) and four sampled cut
families stand in for "every cut".  A sampled cut's value is x^T L_w x for its
indicator x, summed a block of indicator columns X at a time as the column sums
of (L_w X) * X; the three float64 n-by-block arrays stay within
``_CUT_BLOCK_BYTES`` (4 MiB) together.  All analyses are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse.linalg as spla

from .graph import ConvergenceError, Graph, cut_edges
from .linalg import laplacian_sparse
from .sampler import aldous_broder
from .seeds import child_seed, substream
from .splice import WeightedGraph, _as_graph

EXACT_SCAN_MAX_N = 24
_CUT_BLOCK_BYTES = 4 << 20   # indicator block, its Laplacian image and their product
_SCAN_BLOCK_BYTES = 5 << 20  # one block of the subset scan's temporaries
_SCAN_BYTES_PER_SUBSET = 80  # tracemalloc peak of a block, per subset, at n = 24


@dataclass(frozen=True)
class ExpansionReport:
    kind: str            # "edge" or "vertex"
    value: float
    witness: tuple[int, ...]
    method: str          # "exact", "spectral-bound", or "sampled"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": sorted(self.witness),
            "method": self.method,
        }


@dataclass(frozen=True)
class CutRatios:
    """Sampled cuts as arrays: cut i is family ``FAMILIES[family[i]]``, has vertex
    set ``members[indptr[i]:indptr[i + 1]]`` and values base_cut[i], derived_cut[i]."""

    FAMILIES: ClassVar[tuple[str, ...]] = (
        "min-degree-singleton", "random-size-class", "tree-component", "bfs-ball"
    )
    family: np.ndarray
    indptr: np.ndarray
    members: np.ndarray
    base_cut: np.ndarray
    derived_cut: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.derived_cut / self.base_cut

    def __len__(self) -> int:
        return self.family.shape[0]


def _neighbor_bitmasks(graph: Graph) -> np.ndarray:
    masks = np.zeros(graph.n, dtype=np.uint32)
    for u, v in graph.iter_edges():
        masks[u] |= np.uint32(1 << v)
        masks[v] |= np.uint32(1 << u)
    return masks


def _subset_tables(nbr: np.ndarray, deg: np.ndarray, first: int, bits: int):
    """Full mask, neighbourhood union and degree sum of every subset s of the
    vertices first..first+bits-1, where vertex first+b is bit b of s."""
    size = 1 << bits
    full = np.arange(size, dtype=np.uint32) << np.uint32(first)
    gamma = np.zeros(size, dtype=np.uint32)
    degsum = np.zeros(size, dtype=np.int32)
    # Entries with low bit b derive from s ^ (1 << b), whose low bit is higher:
    # bits run high to low.
    for b in reversed(range(bits)):
        step = 1 << (b + 1)
        gamma[1 << b :: step] = gamma[::step] | nbr[first + b]
        degsum[1 << b :: step] = degsum[::step] + deg[first + b]
    return full, gamma, degsum


def _inner_edges(nbr: np.ndarray, first: int, full: np.ndarray, start) -> np.ndarray:
    """Edges inside each subset, by the same DP: ``full`` holds each subset's
    mask together with vertices fixed outside the table, whose own inner
    edges are ``start``."""
    inner = np.empty(full.shape[0], dtype=np.int32)
    inner[0] = start
    for b in reversed(range(full.shape[0].bit_length() - 1)):
        step = 1 << (b + 1)
        inner[1 << b :: step] = inner[::step] + np.bitwise_count(nbr[first + b] & full[::step])
    return inner


def _subset_scan(graph: Graph, kind: str) -> tuple[float, int]:
    """Min ratio and witness bitmask over all proper A with |A| <= n/2."""
    n = graph.n
    nbr = _neighbor_bitmasks(graph)
    deg = graph.degrees.astype(np.int32)
    universe = np.uint32((1 << n) - 1)

    # t indexes subsets of {1..n-1}; vertex i is bit i-1 of t, so A = (t << 1) | 1.
    # t = (h << low) | lo: block h scans every lo, so blocks visit t in order.
    low = min(n - 1, (_SCAN_BLOCK_BYTES // _SCAN_BYTES_PER_SUBSET).bit_length() - 1)
    full_lo, gamma_lo, deg_lo = _subset_tables(nbr, deg, 1, low)
    full_hi, gamma_hi, deg_hi = _subset_tables(nbr, deg, low + 1, n - 1 - low)
    inner_hi = _inner_edges(nbr, low + 1, full_hi, 0)
    size_lo = np.bitwise_count(full_lo).astype(np.int32) + 1
    size_hi = np.bitwise_count(full_hi).astype(np.int32)

    # Each side keeps its first minimum (strict <); A wins ties at the end.
    best_a = best_c = math.inf
    mask_a = mask_c = 0
    for h in range(full_hi.shape[0]):
        full = full_lo | full_hi[h]
        a_mask = full | np.uint32(1)
        sizes = size_lo + size_hi[h]
        if kind == "edge":
            inner = _inner_edges(nbr, 1, full, inner_hi[h]) + np.bitwise_count(nbr[0] & full)
            num_a = (deg_lo + (deg_hi[h] + deg[0]) - 2 * inner).astype(np.float64)
            num_c = num_a                        # |cut(A)| = |cut(complement)|
        else:
            gamma_a = gamma_lo | (gamma_hi[h] | nbr[0])
            num_a = np.bitwise_count(gamma_a & ~a_mask & universe).astype(np.float64)
            gamma_c = gamma_lo[::-1] | gamma_hi[-1 - h]   # complement (~h, ~lo) lacks vertex 0
            num_c = np.bitwise_count(gamma_c & a_mask).astype(np.float64)

        ratios = np.where(sizes <= n // 2, num_a / sizes, np.inf)
        i = int(np.argmin(ratios))
        if ratios[i] < best_a:
            best_a, mask_a = float(ratios[i]), int(a_mask[i])
        csizes = n - sizes
        ok_c = (csizes >= 1) & (csizes <= n // 2)
        ratios = np.where(ok_c, num_c / np.maximum(csizes, 1), np.inf)
        i = int(np.argmin(ratios))
        if ratios[i] < best_c:
            best_c, mask_c = float(ratios[i]), int(universe ^ a_mask[i])
    return (best_a, mask_a) if best_a <= best_c else (best_c, mask_c)


def _scan_report(graph: Graph, kind: str) -> ExpansionReport:
    if graph.n > EXACT_SCAN_MAX_N:
        raise ValueError(
            f"exhaustive scan is capped at n = {EXACT_SCAN_MAX_N}; "
            "use spectral_lower_bound or sampled_cut_ratios at this scale"
        )
    if graph.n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    if not graph.is_connected():
        raise ValueError("expansion of a disconnected graph is 0; expected connected input")
    value, mask = _subset_scan(graph, kind)
    witness = tuple(i for i in range(graph.n) if mask >> i & 1)
    return ExpansionReport(kind=kind, value=value, witness=witness, method="exact")


def edge_expansion_exact(graph: Graph) -> ExpansionReport:
    """min |cut(A)| / |A| over proper A with |A| <= n/2, with a witness."""
    return _scan_report(graph, "edge")


def vertex_expansion_exact(graph: Graph) -> ExpansionReport:
    """min |outside neighbors of A| / |A| over the same range, with a witness."""
    return _scan_report(graph, "vertex")


def evaluate_subset(graph: Graph, subset, kind: str) -> float:
    """Recompute a witness ratio directly (used to confirm reports)."""
    subset = sorted(subset)
    if kind == "edge":
        return len(cut_edges(graph, subset)) / len(subset)
    inside = set(subset)
    out: set[int] = set()
    for v in subset:
        out.update(w for w, _ in graph.neighbors(v))
    return len(out - inside) / len(subset)


def spectral_lower_bound(obj, tol: float = 1e-8, maxiter: int | None = None) -> float:
    """lambda_2 of the (weighted) Laplacian; edge expansion >= lambda_2 / 2.

    Computed by Lanczos iteration on the Laplacian with the constant vector
    deflated by a rank-one shift; small instances fall back to a dense solve.
    Non-convergence at the iteration cap raises ConvergenceError.
    """
    graph = _as_graph(obj)
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if not graph.is_connected():
        raise ValueError("spectral bound needs a connected graph")
    n = graph.n
    lap = laplacian_sparse(graph, obj.weights if isinstance(obj, WeightedGraph) else None)
    if n <= 64:
        return float(np.linalg.eigvalsh(lap.toarray())[1])
    shift = 2.0 * float(lap.diagonal().max()) + 2.0

    def matvec(x):
        return lap @ x + shift * x.mean()

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.cos(np.arange(n, dtype=np.float64) + 1.0)
    try:
        vals = spla.eigsh(
            op,
            k=1,
            which="SA",
            tol=tol,
            v0=v0,
            maxiter=maxiter,
            return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(vals[0])


def _tree_component_subsets(graph: Graph, seed: int, want: int) -> list[np.ndarray]:
    """Cuts induced by deleting one edge of fresh random spanning trees."""
    out: list[np.ndarray] = []
    j = 0
    n = graph.n
    while len(out) < want:
        tree, _ = aldous_broder(graph, child_seed(seed, "cut-tree", j))
        j += 1
        order, tin, tout = tree.dfs_intervals()
        for v in range(n):
            if int(tree.parent[v]) < 0:
                continue
            members = order[tin[v] : tout[v]]
            if 1 <= members.size < n:
                out.append(members)
            if len(out) >= want:
                break
    return out


def sample_cut_subsets(graph: Graph, samples: int, seed: int) -> list[tuple[str, np.ndarray]]:
    """The four adversarial cut families, as (family, vertex-array) pairs.

    All minimum-degree singletons come first; the remaining budget splits
    evenly between uniform subsets of doubling sizes, cuts induced by deleting
    one edge of a fresh random spanning tree, and BFS balls of radii 1..3
    around random centers (balls that swallow every vertex are skipped).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = graph.n
    rng = substream(seed, "cut-subsets")
    out: list[tuple[str, np.ndarray]] = []

    deg = graph.degrees
    for v in np.flatnonzero(deg == deg.min())[:samples]:
        out.append(("min-degree-singleton", np.array([int(v)])))

    remaining = max(samples - len(out), 0)
    quota_sizes = remaining - 2 * (remaining // 3)
    quota_tree = remaining // 3
    quota_balls = remaining // 3

    size_classes = []
    s = 1
    while s <= n // 2:
        size_classes.append(s)
        s *= 2
    for i in range(quota_sizes):
        size = size_classes[i % len(size_classes)]
        pick = rng.choice(n, size=size, replace=False)
        out.append(("random-size-class", np.sort(pick)))

    if quota_tree:
        for members in _tree_component_subsets(graph, child_seed(seed, "trees"), quota_tree):
            out.append(("tree-component", members))

    nbrs = graph._neighbor_lists
    made = 0
    attempt = 0
    # Radii whose balls keep swallowing every vertex get retired so dense
    # graphs do not burn the attempt budget on hopeless expansions.
    radius_failures = {1: 0, 2: 0, 3: 0}
    while made < quota_balls and attempt < 8 * quota_balls + 16:
        center = int(rng.integers(0, n))
        radius = attempt % 3 + 1
        attempt += 1
        if radius_failures[radius] >= 3:
            continue
        ball = {center}
        frontier = [center]
        proper = True
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if w not in ball:
                        ball.add(w)
                        nxt.append(w)
            if len(ball) >= n:
                proper = False
                break
            frontier = nxt
        if not proper:
            radius_failures[radius] += 1
            continue
        out.append(("bfs-ball", np.array(sorted(ball), dtype=np.int64)))
        made += 1
    return out


def _cut_values(graph: Graph, weights, indptr, members) -> np.ndarray:
    """x^T L_w x for each CSR vertex set's indicator x, a column block at a time."""
    n = graph.n
    lap = laplacian_sparse(graph, weights)
    cuts = indptr.size - 1
    out = np.empty(cuts)
    block = max(1, _CUT_BLOCK_BYTES // (3 * 8 * n))
    for lo in range(0, cuts, block):
        hi = min(lo + block, cuts)
        x = np.zeros((n, hi - lo))
        cols = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        x[members[indptr[lo] : indptr[hi]], cols] = 1.0
        out[lo:hi] = ((lap @ x) * x).sum(axis=0)
    return out


def sampled_cut_ratios(graph: Graph, derived, samples: int, seed: int) -> CutRatios:
    """Cut sizes of ``derived`` against ``graph`` over the sampled families."""
    d_graph = _as_graph(derived)
    if d_graph.n != graph.n:
        raise ValueError("graph and derived object must share a vertex set")
    weights = derived.weights if isinstance(derived, WeightedGraph) else None
    subsets = sample_cut_subsets(graph, samples, seed)
    family = np.array([CutRatios.FAMILIES.index(f) for f, _ in subsets], dtype=np.int8)
    indptr = np.zeros(len(subsets) + 1, dtype=np.int64)
    np.cumsum([m.size for _, m in subsets], out=indptr[1:])
    members = np.concatenate([m for _, m in subsets]).astype(np.int64, copy=False)
    return CutRatios(
        family=family,
        indptr=indptr,
        members=members,
        base_cut=_cut_values(graph, None, indptr, members),
        derived_cut=_cut_values(d_graph, weights, indptr, members),
    )


def sparsifier_quality(
    graph: Graph, weighted: WeightedGraph, samples: int, seed: int
) -> tuple[float, float]:
    """(c_low, c_high): min ratio and max log-normalized ratio over sampled cuts."""
    ratio = sampled_cut_ratios(graph, weighted, samples, seed).ratio
    return float(ratio.min()), float(ratio.max() / math.log(graph.n))
