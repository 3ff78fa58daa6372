"""Unions of spanning trees (splicers) and the uniform-weight cut sparsifier.

A splicer is its support: the ``Graph`` that holds, once each and in
ascending base-edge-id order, every base edge that some tree holds.  How
many trees hold an edge is one ``np.bincount`` over their ``parent_edge``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SamplingError
from .sampler import SpanningTree, process_bp, sample_trees
from .seeds import child_seed

SPARSIFY_RETRY_CAP = 16


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


def union_trees(trees: list[SpanningTree] | tuple[SpanningTree, ...]) -> Graph:
    """The splicer: every base edge some tree holds, once, in base-edge-id order."""
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
    _, first = np.unique(edge, return_index=True)
    return Graph(n, np.column_stack([parent[keep][first], child[first]]))


def splice(graph: Graph | int, k: int, seed: int) -> Graph:
    """Union of k independent uniform spanning trees of ``graph``; an int n
    stands for K_n in ``complete_graph``'s edge order, which is not built."""
    return union_trees(sample_trees(graph, k, seed))


def splice_gnp(graph: Graph, p: float, seed: int) -> Graph:
    """Union of the two first-visit trees of one oriented walk on ``graph``.

    ``process_bp`` with two phases cuts both trees from one continuous walk
    on a random orientation calibrated to G(n, p).  A run that strands is
    retried on a fresh substream, and exhausting ``SPARSIFY_RETRY_CAP``
    attempts raises SamplingError (distinguishable from invalid input, which
    raises ValueError).  A disconnected graph raises SamplingError before
    the first attempt, as no walk on it can cover.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not graph.is_connected():
        raise SamplingError("graph is disconnected; the walk cannot cover")
    for attempt in range(SPARSIFY_RETRY_CAP):
        res = process_bp(graph, p, child_seed(seed, "attempt", attempt), phases=2)
        if res.success:
            return union_trees(res.trees)
    raise SamplingError(
        f"two-tree splicing failed in {SPARSIFY_RETRY_CAP} attempts"
    )


def sparsify_gnp(graph: Graph, p: float, seed: int) -> WeightedGraph:
    """``splice_gnp``'s splicer with uniform weight p*n on every edge."""
    support = splice_gnp(graph, p, seed)
    return WeightedGraph(support, np.full(support.m, p * graph.n))
