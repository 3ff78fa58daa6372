"""Expansion and cut-ratio analysis.

Exact expansion enumerates every vertex subset (feasible to n = 24) with a
vectorized subset-DP: subsets containing vertex 0 are scanned once and their
complements evaluated alongside, which halves the work.  Above that scale the
spectral certificate (edge expansion >= lambda_2 / 2) and four sampled cut
families stand in for "every cut".  All analyses are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .graph import ConvergenceError, Graph, cut_edges
from .linalg import laplacian_dense, laplacian_sparse
from .sampler import aldous_broder
from .seeds import child_seed, substream
from .splice import Splicer, WeightedGraph

EXACT_SCAN_MAX_N = 24


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
class CutRatioSample:
    subset: tuple[int, ...]
    base_cut: float
    derived_cut: float
    family: str

    @property
    def ratio(self) -> float:
        return self.derived_cut / self.base_cut


def _neighbor_bitmasks(graph: Graph) -> np.ndarray:
    masks = np.zeros(graph.n, dtype=np.uint32)
    for u, v in graph.iter_edges():
        masks[u] |= np.uint32(1 << v)
        masks[v] |= np.uint32(1 << u)
    return masks


def _subset_scan(graph: Graph, kind: str) -> tuple[float, int]:
    """Min ratio and witness bitmask over all proper A with |A| <= n/2."""
    n = graph.n
    half = 1 << (n - 1)
    nbr = _neighbor_bitmasks(graph)
    deg = graph.degrees.astype(np.int64)

    # t indexes subsets of {1..n-1}; vertex i is bit i-1 of t, so the full-space
    # mask is (t << 1) and A = (t << 1) | 1.  DP entries with low bit b derive
    # from the parent t ^ (1<<b), whose low bit is higher: bits run high to low.
    full_of_t = np.arange(half, dtype=np.uint32) << np.uint32(1)
    gamma = np.zeros(half, dtype=np.uint32)      # union of neighborhoods over t
    for b in reversed(range(n - 1)):
        step = 1 << (b + 1)
        gamma[1 << b :: step] = gamma[::step] | nbr[b + 1]

    sizes = np.bitwise_count(full_of_t).astype(np.int32) + 1
    a_mask = full_of_t | np.uint32(1)
    universe = np.uint32((1 << n) - 1)

    if kind == "edge":
        inner = np.zeros(half, dtype=np.int32)   # edges inside t
        degsum = np.zeros(half, dtype=np.int32)
        for b in reversed(range(n - 1)):
            step = 1 << (b + 1)
            prev_full = full_of_t[::step]
            inner[1 << b :: step] = inner[::step] + np.bitwise_count(
                np.uint32(nbr[b + 1]) & prev_full
            ).astype(np.int32)
            degsum[1 << b :: step] = degsum[::step] + np.int32(deg[b + 1])
        inner_a = inner + np.bitwise_count(np.uint32(nbr[0]) & full_of_t)
        degsum_a = degsum + deg[0]
        delta = degsum_a - 2 * inner_a           # |cut(A)| = |cut(complement)|
        num_a = delta.astype(np.float64)
        num_c = num_a
    else:
        gamma_a = gamma | np.uint32(nbr[0])
        num_a = np.bitwise_count(gamma_a & ~a_mask & universe).astype(np.float64)
        comp_t = np.uint32(half - 1) ^ np.arange(half, dtype=np.uint32)
        gamma_c = gamma[comp_t]                  # complement never contains vertex 0
        num_c = np.bitwise_count(gamma_c & a_mask).astype(np.float64)

    best = math.inf
    best_mask = 0
    csizes = n - sizes
    ok_a = sizes <= n // 2
    if ok_a.any():
        ratios = np.where(ok_a, num_a / sizes, np.inf)
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best = float(ratios[i])
            best_mask = int(a_mask[i])
    ok_c = (csizes >= 1) & (csizes <= n // 2)
    if ok_c.any():
        ratios = np.where(ok_c, num_c / np.maximum(csizes, 1), np.inf)
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best = float(ratios[i])
            best_mask = int(universe ^ np.uint32(a_mask[i]))
    return best, best_mask


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


def _as_graph(obj) -> Graph:
    if isinstance(obj, Splicer):
        return obj.support
    if isinstance(obj, WeightedGraph):
        return obj.graph
    return obj


def spectral_lower_bound(obj, tol: float = 1e-8, maxiter: int | None = None) -> float:
    """lambda_2 of the combinatorial Laplacian; edge expansion >= lambda_2 / 2.

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
    if n <= 64:
        vals = np.linalg.eigvalsh(laplacian_dense(graph))
        return float(vals[1])
    lap = laplacian_sparse(graph)
    shift = 2.0 * float(graph.degrees.max()) + 2.0

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

    nbrs, _ = graph._py_adj
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


def _batch_cut_values(graph: Graph, block: np.ndarray, weights=None) -> np.ndarray:
    """Cut sizes (or weights) for a block of indicator rows at once."""
    xu = block[:, graph.edge_u]
    xv = block[:, graph.edge_v]
    crossing = xu != xv
    if weights is None:
        return crossing.sum(axis=1).astype(np.float64)
    rows, cols = np.nonzero(crossing)
    out = np.zeros(block.shape[0])
    np.add.at(out, rows, weights[cols])
    return out


def sampled_cut_ratios(
    graph: Graph, derived, samples: int, seed: int, block: int = 256
) -> list[CutRatioSample]:
    """Cut sizes of ``derived`` against ``graph`` over the sampled families."""
    d_graph = _as_graph(derived)
    if d_graph.n != graph.n:
        raise ValueError("graph and derived object must share a vertex set")
    weights = derived.weights if isinstance(derived, WeightedGraph) else None
    subsets = sample_cut_subsets(graph, samples, seed)
    result: list[CutRatioSample] = []
    for lo in range(0, len(subsets), block):
        chunk = subsets[lo : lo + block]
        indicators = np.zeros((len(chunk), graph.n), dtype=bool)
        for i, (_, members) in enumerate(chunk):
            indicators[i, members] = True
        base_vals = _batch_cut_values(graph, indicators)
        derived_vals = _batch_cut_values(d_graph, indicators, weights)
        for (family, members), b, dv in zip(chunk, base_vals, derived_vals):
            result.append(
                CutRatioSample(
                    subset=tuple(members.tolist()),
                    base_cut=float(b),
                    derived_cut=float(dv),
                    family=family,
                )
            )
    return result


def sparsifier_quality(
    graph: Graph, weighted: WeightedGraph, samples: int, seed: int
) -> tuple[float, float]:
    """(c_low, c_high): min ratio and max log-normalized ratio over sampled cuts."""
    ratios = sampled_cut_ratios(graph, weighted, samples, seed)
    logn = math.log(graph.n)
    c_low = min(r.ratio for r in ratios)
    c_high = max(r.ratio / logn for r in ratios)
    return c_low, c_high
