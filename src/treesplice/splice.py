"""Unions of spanning trees and the uniform-weight cut sparsifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SamplingError
from .sampler import SpanningTree, process_bp, sample_trees
from .seeds import child_seed

SPARSIFY_RETRY_CAP = 16


@dataclass(frozen=True)
class Splicer:
    """Union of k spanning trees: deduplicated support plus per-edge multiplicity."""

    support: Graph
    multiplicity: np.ndarray
    k: int
    source_trees: tuple[SpanningTree, ...]
    support_base_eids: np.ndarray

    @property
    def n(self) -> int:
        return self.support.n

    def validate(self) -> None:
        total = int(self.multiplicity.sum())
        expect = self.k * (self.n - 1)
        if total != expect:
            raise ValueError(f"multiplicities sum to {total}, expected {expect}")
        if self.support.m > expect:
            raise ValueError("support larger than the union can be")
        if not self.support.is_connected():
            raise ValueError("support must be connected")
        known = set(self.support_base_eids.tolist())
        for tree in self.source_trees:
            if not set(tree.edge_ids().tolist()) <= known:
                raise ValueError("a source tree has edges outside the support")


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with strictly positive per-edge weights."""

    graph: Graph
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.graph.m,):
            raise ValueError("one weight per edge required")
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.graph.n


def _as_graph(obj) -> Graph:
    """The graph under a ``Splicer`` (its support) or a ``WeightedGraph``."""
    if isinstance(obj, Splicer):
        return obj.support
    if isinstance(obj, WeightedGraph):
        return obj.graph
    return obj


def union_trees(trees: list[SpanningTree] | tuple[SpanningTree, ...]) -> Splicer:
    """Union the trees' edge sets, counting how many trees contain each edge."""
    if not trees:
        raise ValueError("need at least one tree")
    n = trees[0].n
    for t in trees:
        if t.n != n:
            raise ValueError("trees span different vertex sets")
    parent = np.concatenate([t.parent for t in trees])
    keep = parent >= 0
    edge = np.concatenate([t.parent_edge for t in trees])[keep]
    child = np.tile(np.arange(n), len(trees))[keep]
    eids, first, mult = np.unique(edge, return_index=True, return_counts=True)
    support = Graph(n, np.column_stack([parent[keep][first], child[first]]))
    return Splicer(
        support=support,
        multiplicity=mult.astype(np.int32),
        k=len(trees),
        source_trees=tuple(trees),
        support_base_eids=eids.astype(np.int64),
    )


def splice(graph: Graph | int, k: int, seed: int) -> Splicer:
    """Union of k independent uniform spanning trees of ``graph``; an int n
    stands for K_n in ``complete_graph``'s edge order, which is not built."""
    return union_trees(sample_trees(graph, k, seed))


def splice_gnp(graph: Graph, p: float, seed: int) -> Splicer:
    """Union of the two first-visit trees of one oriented walk on ``graph``.

    ``process_bp`` with two phases cuts both trees from one continuous walk
    on a random orientation calibrated to G(n, p).  A run that strands is
    retried on a fresh substream, and exhausting ``SPARSIFY_RETRY_CAP``
    attempts raises SamplingError (distinguishable from invalid input, which
    raises ValueError).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    for attempt in range(SPARSIFY_RETRY_CAP):
        res = process_bp(graph, p, child_seed(seed, "attempt", attempt), phases=2)
        if res.success:
            return union_trees(res.trees)
    raise SamplingError(
        f"two-tree splicing failed in {SPARSIFY_RETRY_CAP} attempts"
    )


def sparsify_gnp(graph: Graph, p: float, seed: int) -> WeightedGraph:
    """``splice_gnp``'s support with uniform weight p*n on every edge."""
    support = splice_gnp(graph, p, seed).support
    return WeightedGraph(support, np.full(support.m, p * graph.n))
