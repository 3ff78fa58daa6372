"""The benchmark's own input graphs and its own checks of expansion witnesses.

Nothing here imports treesplice: the ``exact-cli`` inputs are generated from
the workload seed by this file alone, so a change to the package's
generators cannot silently change what that workload measures.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def regular_edges(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """A connected simple d-regular graph: configuration model with rejection."""
    stubs = np.repeat(np.arange(n), d)
    while True:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if (lo == hi).any():
            continue
        codes = np.sort(lo * n + hi)
        if (codes[1:] == codes[:-1]).any():
            continue
        edges = np.column_stack([lo, hi])[np.argsort(lo * n + hi)]
        if is_connected(n, edges):
            return edges


def petersen_edges() -> np.ndarray:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _normalized(outer + spokes + inner)


def wheel_edges(n: int) -> np.ndarray:
    """Hub 0 joined to an (n-1)-cycle on vertices 1..n-1."""
    spokes = [(0, i) for i in range(1, n)]
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return _normalized(spokes + rim)


def _normalized(pairs) -> np.ndarray:
    arr = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def is_connected(n: int, edges: np.ndarray) -> bool:
    adj = adjacency(n, edges)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    return adj


def write_graph(path: Path, n: int, edges: np.ndarray) -> None:
    """Plain edge-list format: "n m" header, then one "u v" line per edge."""
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def witness_ratio(n: int, edges: np.ndarray, witness, kind: str) -> float:
    """|cut(A)| / |A| (edge) or |N(A) \\ A| / |A| (vertex) for A = witness."""
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(witness, dtype=np.int64)] = True
    size = int(inside.sum())
    if kind == "edge":
        crossing = inside[edges[:, 0]] != inside[edges[:, 1]]
        return int(crossing.sum()) / size
    boundary = adjacency(n, edges)[inside].any(axis=0) & ~inside
    return int(boundary.sum()) / size
