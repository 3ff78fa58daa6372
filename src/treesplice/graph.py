"""Graph types and cuts.

``Graph`` is an immutable undirected simple graph with dense edge ids
(assigned in construction order and stable for the object's lifetime).
``DirectedGraph`` holds an arc set over the same vertex ids.  Both are safe
to share across concurrent readers; all derived structures are cached
lazily and never mutated afterwards.

The one adjacency layout is ``_csr = (indptr, nbr, eid)``, read-only: row v
holds v's neighbours (a ``DirectedGraph``'s out-arc heads) and their edge
ids.  Two views derive from it.  ``_csr_rows`` splits a column into per-vertex
Python lists, which scalar per-step loops index several times faster than
numpy arrays; ``Graph._neighbor_lists`` caches the neighbour column so, and
walks read edge ids back from ``eid`` by row position.  ``Graph._adjacency``
wraps the arrays as a scipy matrix for csgraph searches, less failed edges.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: shared derived structures are never mutated."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _csr_rows(indptr: np.ndarray, col: np.ndarray) -> list[list[int]]:
    """One CSR column as fresh per-row Python lists."""
    return [col[indptr[v] : indptr[v + 1]].tolist() for v in range(indptr.size - 1)]


class GraphFormatError(ValueError):
    """Malformed graph input (bad line, self-loop, duplicate edge, ...)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SamplingError(RuntimeError):
    """A randomized procedure failed (retry cap, non-cover, empty selection)."""


class ConvergenceError(RuntimeError):
    """An iterative numerical method stopped at its iteration cap."""


def _as_edge_arrays(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("edge endpoint out of range")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if (lo == hi).any():
        v = int(lo[(lo == hi).argmax()])
        raise ValueError(f"self-loop at vertex {v}")
    codes = lo * n + hi
    order = np.sort(codes)
    dup = np.flatnonzero(order[1:] == order[:-1])
    if dup.size:
        c = int(order[dup[0]])
        raise ValueError(f"duplicate edge ({c // n}, {c % n})")
    return lo, hi


class Graph:
    """Undirected simple graph; vertices 0..n-1, edges carry dense ids."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        lo, hi = _as_edge_arrays(self.n, edges)
        self._eu, self._ev = _frozen(lo.astype(np.int32), hi.astype(np.int32))

    @property
    def m(self) -> int:
        return self._eu.shape[0]

    @property
    def edge_u(self) -> np.ndarray:
        """Smaller endpoint per edge id."""
        return self._eu

    @property
    def edge_v(self) -> np.ndarray:
        """Larger endpoint per edge id."""
        return self._ev

    def edge(self, eid: int) -> tuple[int, int]:
        return int(self._eu[eid]), int(self._ev[eid])

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        return zip(self._eu.tolist(), self._ev.tolist())

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self._eu, minlength=self.n) + np.bincount(
            self._ev, minlength=self.n
        )
        deg.setflags(write=False)
        return deg

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ends = np.concatenate([self._eu, self._ev])
        other = np.concatenate([self._ev, self._eu])
        eids = np.tile(np.arange(self.m, dtype=np.int32), 2)
        order = np.argsort(ends, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return _frozen(indptr, other[order].astype(np.int32), eids[order])

    @cached_property
    def _neighbor_lists(self) -> list[list[int]]:
        """Per-vertex neighbour lists in ``_csr`` row order, for scalar loops."""
        indptr, nbr, _ = self._csr
        return _csr_rows(indptr, nbr)

    def _adjacency(self, keep: np.ndarray | None = None) -> sp.csr_matrix:
        """``_csr`` as a 0/1 scipy matrix; with a boolean per-edge ``keep``
        mask, the edges it clears are left out."""
        indptr, nbr, eid = self._csr
        shape = (self.n, self.n)
        if keep is None:
            return sp.csr_matrix((np.ones(nbr.size), nbr, indptr), shape=shape)
        # Copied, as eliminate_zeros compacts the index arrays in place.
        adj = sp.csr_matrix((keep[eid].astype(float), nbr, indptr), shape=shape, copy=True)
        adj.eliminate_zeros()
        return adj

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """List of (neighbor, edge id) pairs for v."""
        indptr, nbr, eid = self._csr
        lo, hi = indptr[v], indptr[v + 1]
        return list(zip(nbr[lo:hi].tolist(), eid[lo:hi].tolist()))

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {
            (int(u), int(v)): i
            for i, (u, v) in enumerate(zip(self._eu, self._ev))
        }

    def edge_id(self, u: int, v: int) -> int | None:
        if u > v:
            u, v = v, u
        return self._edge_index.get((u, v))

    def resolve_edge(self, edge) -> int:
        """Id of an edge given by id or (u, v) pair; ValueError if it names none."""
        if isinstance(edge, (tuple, list)):
            eid = self.edge_id(int(edge[0]), int(edge[1]))
            if eid is None:
                raise ValueError(f"({edge[0]}, {edge[1]}) is not an edge")
            return eid
        eid = int(edge)
        if not 0 <= eid < self.m:
            raise ValueError("edge id out of range")
        return eid

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        if self.n <= 1:
            return True
        if self.m < self.n - 1:
            return False
        # The view is symmetric, so a search from 0 reaches all of 0's component.
        reached = csgraph.breadth_first_order(
            self._adjacency(), 0, return_predecessors=False
        )
        return reached.size == self.n

    def walk_step_cap(self) -> int:
        """Safety cap for cover walks: 64 n ln(n) * (max degree / min degree)."""
        if self.n <= 1:
            return 1
        deg = self.degrees
        dmin = int(deg.min())
        if dmin == 0:
            return 64 * self.n
        ratio = int(deg.max()) / dmin
        return int(math.ceil(64 * self.n * math.log(max(self.n, 2)) * ratio))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._eu, other._eu)
            and np.array_equal(self._ev, other._ev)
        )

    def __hash__(self):
        return hash((self.n, self._eu.tobytes(), self._ev.tobytes()))


class DirectedGraph:
    """Arc set over vertices 0..n-1; optionally tagged with source edge ids."""

    def __init__(
        self,
        n: int,
        tails: np.ndarray | Sequence[int],
        heads: np.ndarray | Sequence[int],
        source_eids: np.ndarray | Sequence[int] | None = None,
    ):
        self.n = int(n)
        self.tails = np.asarray(tails, dtype=np.int32)
        self.heads = np.asarray(heads, dtype=np.int32)
        if self.tails.shape != self.heads.shape:
            raise ValueError("tails and heads must have equal length")
        if self.tails.size and (
            min(self.tails.min(), self.heads.min()) < 0
            or max(self.tails.max(), self.heads.max()) >= self.n
        ):
            raise ValueError("arc endpoint out of range")
        if source_eids is None:
            self.source_eids = np.full(self.tails.shape, -1, dtype=np.int32)
        else:
            self.source_eids = np.asarray(source_eids, dtype=np.int32)
        _frozen(self.tails, self.heads, self.source_eids)

    @property
    def n_arcs(self) -> int:
        return int(self.tails.shape[0])

    @cached_property
    def out_degrees(self) -> np.ndarray:
        deg = np.bincount(self.tails, minlength=self.n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, source edge ids) of the out-arcs, in arc order."""
        order = np.argsort(self.tails, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.out_degrees, out=indptr[1:])
        return _frozen(indptr, self.heads[order], self.source_eids[order])

    def walk_step_cap(self) -> int:
        """Safety cap for oriented walks: 64 n bit_length(n) steps."""
        return 64 * self.n * max(self.n.bit_length(), 1)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, arcs={self.n_arcs})"


def cut_edges(graph: Graph, subset) -> np.ndarray:
    """Edge ids with exactly one endpoint in ``subset`` (a proper nonempty set)."""
    mask = np.zeros(graph.n, dtype=bool)
    idx = np.asarray(sorted(subset) if isinstance(subset, (set, frozenset)) else subset)
    idx = np.atleast_1d(idx).astype(np.int64)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= graph.n:
        raise ValueError("subset vertex out of range")
    mask[idx] = True
    if mask.all():
        raise ValueError("subset must be a proper subset of the vertices")
    return np.flatnonzero(mask[graph.edge_u] ^ mask[graph.edge_v])
