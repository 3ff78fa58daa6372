"""Graph types and cuts.

``Graph`` is an immutable undirected simple graph with dense edge ids
(assigned in construction order and stable for the object's lifetime).
``Orientation`` directs a graph's edges by two per-edge masks.  Both are safe
to share across concurrent readers; all derived structures are cached
lazily and never mutated afterwards.

The one adjacency layout is ``Graph._csr = (indptr, nbr, eid)``, read-only:
row v holds v's neighbours and their edge ids.  The views derive from it.  An
``Orientation``'s ``_csr`` keeps, row by row and in order, the entries whose
arc its masks allow.  ``_csr_rows`` splits a column into per-vertex Python
lists, which scalar per-step loops index several times faster than numpy
arrays; ``Graph._neighbor_lists`` caches the neighbour column so, and walks
find tree edge ids in ``eid`` by parent.  ``Graph._adjacency`` wraps
the arrays as a scipy matrix for csgraph searches, less failed edges.
``_packed_rows`` builds the one packed neighbour table, fresh per call
(n^2/8 bytes): row v is v's neighbours as ceil(n / 64) 64-bit words, vertex
w at bit w % 64 of word w // 64.  The subset scan and cut counting in
``cuts`` read it; ``_closed_rows`` adds the diagonal, the radius-1 balls
from which ``cuts`` grows BFS balls on dense graphs and ``routing`` its
stretch distances.  ``_blocks`` splits their items into runs whose
temporaries fit one ``_BLOCK_BYTES`` (4 MiB) block.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: shared derived structures are never mutated."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _csr_rows(indptr: np.ndarray, col: np.ndarray) -> list[list[int]]:
    """One CSR column as fresh per-row Python lists, sliced from one list."""
    items, bounds = col.tolist(), indptr.tolist()
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _packed_rows(graph: Graph) -> np.ndarray:
    """Row v: v's neighbours as a bitset of 8 ceil(n / 64) bytes, vertex w at
    bit w % 8 of byte w // 8; ``.view("<u8")`` reads it as 64-bit words."""
    n = graph.n
    width = 8 * -(-n // 64)
    indptr, nbr, _ = graph._csr
    rows = np.zeros(n * width, dtype=np.uint8)
    at = np.repeat(np.arange(n, dtype=np.int64) * width, np.diff(indptr)) + (nbr >> 3)
    np.bitwise_or.at(rows, at, np.left_shift(1, nbr & 7).astype(np.uint8))
    return rows.reshape(n, width)


def _closed_rows(graph: Graph) -> np.ndarray:
    """``_packed_rows`` as 64-bit words with the diagonal set: row v holds v
    and its neighbours, the ball of radius 1 around v."""
    rows = _packed_rows(graph).view("<u8")
    ids = np.arange(graph.n)
    rows[ids, ids >> 6] |= np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    return rows


def _cover_step_cap(n: int, ratio: float = 1.0, m: int | None = None) -> int:
    """``Graph.walk_step_cap`` for n >= 2, m (K_n's by default) and Δ/δ ``ratio``."""
    m = n * (n - 1) // 2 if m is None else m
    fast = math.ceil(64 * n * math.log(max(n, 2)) * ratio)
    return min(max(fast, 80 * m * (n - 1)), (1 << 62) - 1)


_BLOCK_BYTES = 4 << 20  # one block of a kernel's temporaries


def _blocks(cost: np.ndarray):
    """Consecutive ranges [lo, hi) of items whose summed ``cost`` in bytes
    stays within ``_BLOCK_BYTES``, or single items above it."""
    spent = np.zeros(cost.size + 1, dtype=np.int64)
    np.cumsum(cost, out=spent[1:])
    lo = 0
    while lo < cost.size:
        hi = int(np.searchsorted(spent, spent[lo] + _BLOCK_BYTES, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


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


def _vertex_pairs(n: int, pairs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The two int64 endpoint columns of ``pairs``, rows of two vertex ids in
    0..n-1.  Anything else raises ValueError naming the pairs by ``what``:
    rows that are not two integers, or an endpoint out of range."""
    malformed = f"{what}s must be pairs of vertex ids"
    try:
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
    except ValueError:  # ragged rows
        raise ValueError(malformed) from None
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError(malformed)
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{what} endpoint out of range")
    return arr[:, 0], arr[:, 1]


def _as_edge_arrays(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    u, v = _vertex_pairs(n, edges, "edge")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if hi.size and hi.max() >= 1 << 31:
        raise ValueError(
            f"edge endpoint {int(hi.max())} is not below 2^31, the limit of the int32 edge arrays"
        )
    if (lo == hi).any():
        raise ValueError(f"self-loop at vertex {int(lo[(lo == hi).argmax()])}")
    codes = lo * n + hi
    order = np.sort(codes)
    dup = np.flatnonzero(order[1:] == order[:-1])
    if dup.size:
        c = int(order[dup[0]])
        raise ValueError(f"duplicate edge ({c // n}, {c % n})")
    return lo, hi


class Graph:
    """Undirected simple graph; vertices 0..n-1, edges carry dense ids.

    Edge endpoints must lie below 2^31, since the edge arrays are int32;
    a larger one raises ValueError."""

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

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ends = np.concatenate([self._eu, self._ev])
        other = np.concatenate([self._ev, self._eu])
        eids = np.tile(np.arange(self.m, dtype=np.int32), 2)
        # Stable, so equal keys keep edge order; numpy radix-sorts keys of
        # 16 bits or fewer, which the narrowest type holding n - 1 gives up
        # to n = 65536.
        order = np.argsort(ends.astype(np.min_scalar_type(self.n - 1)), kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return _frozen(indptr, other[order].astype(np.int32), eids[order])

    @cached_property
    def _complete_in_order(self) -> bool:
        """Whether this is K_n with its edges in ``triu`` order, as
        ``complete_graph`` lists them: edge (u, v), u < v, then has id
        u (2n - u - 1) / 2 + v - u - 1, and row v of ``_csr`` reads
        v+1, ..., n-1, 0, ..., v-1."""
        n = self.n
        if self.m != n * (n - 1) // 2:
            return False
        codes = self._eu.astype(np.int64) * n + self._ev
        return bool((codes[1:] > codes[:-1]).all())

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

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of the edge joining u and v, or None; one scan of the edge arrays."""
        if u > v:
            u, v = v, u
        hit = np.flatnonzero((self._eu == u) & (self._ev == v))
        return int(hit[0]) if hit.size else None

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
        """Cover-walk cap, below 2^62: the larger of 64 n ln(n) Δ/δ and
        80 m (n - 1), 20 rounds of twice the 2m(n - 1) bound on a connected
        graph's expected cover time (Aleliunas, Karp, Lipton, Lovász &
        Rackoff, FOCS 1979), so by Markov a walk misses it w.p. <= 2^-20."""
        if self.n <= 1:
            return 1
        deg = self.degrees
        return _cover_step_cap(self.n, int(deg.max()) / max(int(deg.min()), 1), self.m)

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


class Orientation:
    """A choice of directions for the edges of ``graph``.

    Edge e (u < v) gives the arc u->v if ``forward[e]`` and v->u if
    ``backward[e]``; both, one or neither may hold.  The masks are read-only
    copies, and the arcs' edge ids are the base graph's.
    """

    def __init__(self, graph: Graph, forward, backward):
        self.graph = graph
        self.forward = np.array(forward, dtype=bool)
        self.backward = np.array(backward, dtype=bool)
        if self.forward.shape != (graph.m,) or self.backward.shape != (graph.m,):
            raise ValueError(f"direction masks must have one entry per edge ({graph.m})")
        _frozen(self.forward, self.backward)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def n_arcs(self) -> int:
        return int(self.forward.sum() + self.backward.sum())

    @cached_property
    def out_degrees(self) -> np.ndarray:
        deg = np.diff(self._csr[0])
        deg.setflags(write=False)
        return deg

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, edge ids) of the out-arcs: each base row, filtered."""
        indptr, nbr, eid = self.graph._csr
        tail = np.repeat(np.arange(self.n), np.diff(indptr))
        keep = np.where(nbr > tail, self.forward[eid], self.backward[eid])
        out = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail[keep], minlength=self.n), out=out[1:])
        return _frozen(out, nbr[keep], eid[keep])

    def walk_step_cap(self) -> int:
        """Oriented-walk cap, below 2^62: the larger of 64 n bit_length(n)
        and 40 n_arcs (n - 1).  Until cover or stranding, each step takes a
        new arc w.p. >= 1/(n - 1) and each arc is new once, so from any state
        the walk ends within n_arcs (n - 1) expected steps; by Markov it
        overruns 20 rounds of twice that w.p. <= 2^-20."""
        n = self.n
        cap = max(64 * n * max(n.bit_length(), 1), 40 * self.n_arcs * (n - 1))
        return min(cap, (1 << 62) - 1)

    def __repr__(self) -> str:
        return f"Orientation(n={self.n}, arcs={self.n_arcs})"


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
