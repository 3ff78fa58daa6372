"""Exact linear-algebra oracles: Laplacians, tree counting, effective resistance.

Tree counting is a Laplacian cofactor determinant evaluated with fraction-free
integer elimination, so the result is exact at any size.  Effective resistance
is solved in exact rationals up to n = 64 and in floating point with one step
of iterative refinement above that.
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


def _bareiss_det(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def spanning_tree_count(graph: Graph) -> int:
    """Number of spanning trees (matrix-tree cofactor); 0 when disconnected."""
    n = graph.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    if graph.m < n - 1 or not graph.is_connected():
        return 0
    minor = [[0] * (n - 1) for _ in range(n - 1)]
    deg = graph.degrees
    for v in range(n - 1):
        minor[v][v] = int(deg[v])
    for u, v in graph.iter_edges():
        if u < n - 1 and v < n - 1:
            minor[u][v] -= 1
            minor[v][u] -= 1
    return _bareiss_det(minor)


def _solve_fraction(system: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals (partial pivot by nonzero)."""
    n = len(system)
    a = [row[:] + [rhs[i]] for i, row in enumerate(system)]
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise ValueError("singular system")
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / pivot
            row_i = a[i]
            row_k = a[k]
            for j in range(k, n + 1):
                row_i[j] -= factor * row_k[j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n]
        for j in range(k + 1, n):
            acc -= a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return x


def effective_resistance_exact(graph: Graph, u: int, v: int) -> Fraction:
    """Exact effective resistance between adjacent-or-not vertices u and v."""
    n = graph.n
    ground = v
    index = [w for w in range(n) if w != ground]
    pos = {w: i for i, w in enumerate(index)}
    system = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    deg = graph.degrees
    for w in index:
        system[pos[w]][pos[w]] = Fraction(int(deg[w]))
    for a, b in graph.iter_edges():
        if a != ground and b != ground:
            system[pos[a]][pos[b]] -= 1
            system[pos[b]][pos[a]] -= 1
    rhs = [Fraction(0)] * (n - 1)
    rhs[pos[u]] = Fraction(1)
    x = _solve_fraction(system, rhs)
    return x[pos[u]]


def _reduced_laplacian_solve(graph: Graph, rhs: np.ndarray) -> np.ndarray:
    """Solve the ground-reduced Laplacian system with one refinement pass."""
    lap = laplacian_dense(graph)
    reduced = lap[:-1, :-1]
    x = np.linalg.solve(reduced, rhs)
    resid = rhs - reduced @ x
    x += np.linalg.solve(reduced, resid)
    return x


def effective_resistance(graph: Graph, edge) -> float:
    """Effective resistance across an edge, all edges unit resistors.

    Accepts an edge id or an (u, v) pair; requires a connected graph.  Equals
    the potential difference across the endpoints under a unit current.
    """
    if isinstance(edge, (tuple, list)):
        u, v = int(edge[0]), int(edge[1])
        if graph.edge_id(u, v) is None:
            raise ValueError(f"({u}, {v}) is not an edge")
    else:
        u, v = graph.edge(int(edge))
    if not graph.is_connected():
        raise ValueError("effective resistance needs a connected graph")
    if graph.n <= EXACT_RESISTANCE_MAX_N:
        return float(effective_resistance_exact(graph, u, v))
    ground = graph.n - 1
    rhs = np.zeros(graph.n - 1)
    if u == ground or v == ground:
        other = v if u == ground else u
        rhs[other] = 1.0
        x = _reduced_laplacian_solve(graph, rhs)
        return float(x[other])
    rhs[u] = 1.0
    rhs[v] = -1.0
    x = _reduced_laplacian_solve(graph, rhs)
    return float(x[u] - x[v])


def effective_resistances(graph: Graph, edge_ids=None) -> np.ndarray:
    """Effective resistance for many edges at once (float path, one factorization)."""
    if not graph.is_connected():
        raise ValueError("effective resistance needs a connected graph")
    if edge_ids is None:
        edge_ids = np.arange(graph.m)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    n = graph.n
    ground = n - 1
    lap = laplacian_dense(graph)
    reduced = lap[:-1, :-1]
    rhs = np.zeros((n - 1, edge_ids.size))
    eu = graph.edge_u[edge_ids]
    ev = graph.edge_v[edge_ids]
    cols = np.arange(edge_ids.size)
    keep_u = eu != ground
    keep_v = ev != ground
    rhs[eu[keep_u], cols[keep_u]] = 1.0
    rhs[ev[keep_v], cols[keep_v]] += -1.0
    x = np.linalg.solve(reduced, rhs)
    x += np.linalg.solve(reduced, rhs - reduced @ x)
    out = np.zeros(edge_ids.size)
    out[keep_u] += x[eu[keep_u], cols[keep_u]]
    out[keep_v] -= x[ev[keep_v], cols[keep_v]]
    return out
