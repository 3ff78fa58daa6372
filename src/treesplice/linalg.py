"""Exact linear-algebra oracles: Laplacians, tree counting, effective resistance.

One fraction-free integer elimination (Bareiss) is the only exact engine.  On
the Laplacian with the ground vertex n-1 removed it gives the tree count
tau = det(L_red) and, when asked, the integer adjugate A = tau * L_red^-1.
Every exact tree law is read from A (Burton & Pemantle's transfer-current
theorem): for oriented edges e = (a, b) and f = (c, d),

    N[e, f] = A[a, c] - A[a, d] - A[b, c] + A[b, d]

is tau times the transfer current Y[e, f] (the ground row and column of A are
zero), so N[e, e] / tau is e's effective resistance, which equals P(e in T).
Effective resistance is exact up to n = 64 and in floating point with one
step of iterative refinement above that.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .graph import Graph

EXACT_RESISTANCE_MAX_N = 64


def laplacian_dense(graph: Graph, dtype=np.float64) -> np.ndarray:
    """Combinatorial Laplacian D - A as a dense array."""
    return laplacian_sparse(graph).toarray().astype(dtype, copy=False)


def laplacian_sparse(graph: Graph, weights=None) -> sp.csr_matrix:
    """Laplacian D_w - A_w in CSR form; unit edge weights when ``weights`` is None."""
    n = graph.n
    eu = graph.edge_u
    ev = graph.edge_v
    w = np.ones(graph.m) if weights is None else np.asarray(weights, dtype=np.float64)
    diag = np.bincount(eu, w, minlength=n) + np.bincount(ev, w, minlength=n)
    rows = np.concatenate([eu, ev, np.arange(n)])
    cols = np.concatenate([ev, eu, np.arange(n)])
    vals = np.concatenate([-w, -w, diag])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _bareiss_det(mat: list[list[int]], adjugate: bool = False):
    """Determinant of a square integer matrix by fraction-free elimination.

    With ``adjugate=True`` the elimination runs Gauss-Jordan on [mat | I] and
    returns ``(det, adj)``, where ``adj = det * mat^-1`` is the integer
    adjugate (``None`` when det is 0).  Every intermediate entry is a minor of
    the augmented matrix, so each division is exact.
    """
    n = len(mat)
    width = 2 * n if adjugate else n
    a = [
        row[:] + ([0] * i + [1] + [0] * (n - 1 - i) if adjugate else [])
        for i, row in enumerate(mat)
    ]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return (0, None) if adjugate else 0
        row_k = a[k]
        pivot = row_k[k]
        for i in range(n) if adjugate else range(k + 1, n):
            if i == k:
                continue
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    if not adjugate:
        return sign * prev
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def _ground_minor(graph: Graph) -> list[list[int]]:
    """Integer Laplacian with the ground vertex n-1's row and column removed."""
    return laplacian_dense(graph, np.int64)[:-1, :-1].tolist()


def spanning_tree_count(graph: Graph) -> int:
    """Number of spanning trees (matrix-tree cofactor); 0 when disconnected."""
    n = graph.n
    if n == 0 or graph.m < n - 1 or not graph.is_connected():
        return 0
    return _bareiss_det(_ground_minor(graph))


def _ground_adjugate(graph: Graph) -> tuple[int, list[list[int]]]:
    """tau(G) and the integer adjugate of the ground-reduced Laplacian.

    The adjugate comes back n x n, with a zero row and column at the ground
    vertex n-1, so ``_transfer_current`` can index it by vertex.
    """
    if not graph.is_connected():
        raise ValueError("graph has no spanning tree")
    tau, adj = _bareiss_det(_ground_minor(graph), adjugate=True)
    for row in adj:
        row.append(0)
    adj.append([0] * graph.n)
    return tau, adj


def _transfer_current(adj: list[list[int]], e: tuple[int, int], f: tuple[int, int]) -> int:
    """N[e, f] = tau * Y[e, f] for oriented edges e and f, from ``_ground_adjugate``."""
    (a, b), (c, d) = e, f
    return adj[a][c] - adj[a][d] - adj[b][c] + adj[b][d]


def effective_resistance_exact(graph: Graph, u: int, v: int) -> Fraction:
    """Exact effective resistance between adjacent-or-not vertices u and v."""
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError(f"vertices must lie in [0, {graph.n})")
    tau, adj = _ground_adjugate(graph)
    return Fraction(_transfer_current(adj, (u, v), (u, v)), tau)


def effective_resistance(graph: Graph, edge) -> float:
    """Effective resistance across an edge, all edges unit resistors.

    Accepts an edge id or an (u, v) pair; requires a connected graph.  Equals
    the potential difference across the endpoints under a unit current.
    """
    return float(effective_resistances(graph, [graph.resolve_edge(edge)])[0])


def effective_resistances(graph: Graph, edge_ids=None) -> np.ndarray:
    """Effective resistance of each listed edge (all edges when None).

    Up to ``EXACT_RESISTANCE_MAX_N`` vertices every value is the correctly
    rounded exact rational N[e, e] / tau from one integer adjugate.  Above
    that, one float factorization with one refinement step serves all edges.
    """
    ids = np.arange(graph.m) if edge_ids is None else np.asarray(edge_ids, dtype=np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < graph.m):
        raise ValueError(f"edge ids must lie in [0, {graph.m})")
    if not graph.is_connected():
        raise ValueError("effective resistance needs a connected graph")
    eu = graph.edge_u[ids]
    ev = graph.edge_v[ids]
    n = graph.n
    if n <= EXACT_RESISTANCE_MAX_N:
        tau, adj = _ground_adjugate(graph)
        return np.array(
            [_transfer_current(adj, e, e) / tau for e in zip(eu.tolist(), ev.tolist())],
            dtype=np.float64,
        )
    reduced = laplacian_dense(graph)[:-1, :-1]
    cols = np.arange(ids.size)
    rhs = np.zeros((n, ids.size))
    rhs[eu, cols] = 1.0
    rhs[ev, cols] = -1.0
    rhs = rhs[:-1]  # the ground vertex n-1 sits at potential 0
    x = np.linalg.solve(reduced, rhs)
    x += np.linalg.solve(reduced, rhs - reduced @ x)
    x = np.vstack([x, np.zeros(ids.size)])
    return x[eu, cols] - x[ev, cols]
