"""Graph generators and the random edge orientation.

All generators are pure functions of (arguments, seed): the same seed gives a
bit-identical graph.  Randomized generators draw from a named substream so
different generators never share a stream.  The regular generators hold
edge sets as codes lo * n + hi (lo < hi), so one sort finds a repeated edge
and one ``np.isin`` a colliding one; ``hamiltonian_regular_graph`` lists its
edges in code order.  ``gnp_graph`` draws one double per pair in ``triu``
order, one ``graph._BLOCK_BYTES`` block (2^19 doubles) at a time, and
decodes only the kept pair indices, so beyond the graph it holds O(block)
memory, not O(n^2); Philox gives the same doubles at any chunk size, so the
graph does not depend on it.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import _BLOCK_BYTES, Graph, Orientation, SamplingError
from .seeds import substream

_REGULAR_RETRY_CAP = 1000
_MATCHING_RETRY_CAP = 1000


def complete_graph(n: int) -> Graph:
    """K_n: every pair adjacent, n(n-1)/2 edges."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    iu, iv = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([iu, iv]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    u = np.arange(n)
    return Graph(n, np.column_stack([u, (u + 1) % n]))


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    u = np.arange(n - 1)
    return Graph(n, np.column_stack([u, u + 1]))


def wheel_graph(n: int) -> Graph:
    """Hub vertex 0 plus an (n-1)-cycle on the rim; n vertices total."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph(n, spokes + rim)


def prism_graph() -> Graph:
    """Two triangles {0,1,2}, {3,4,5} joined by a perfect matching."""
    tri = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    rungs = [(0, 3), (1, 4), (2, 5)]
    return Graph(6, tri + rungs)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair kept independently with probability p, edges in
    ``triu`` order."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pairs = n * (n - 1) // 2
    kept = [np.empty(0, dtype=np.int64)]
    rng = substream(seed, "gnp")
    chunk = _BLOCK_BYTES // 8  # pair draws, one double each
    for lo in range(0, pairs, chunk):
        kept.append(np.flatnonzero(rng.random(min(chunk, pairs - lo)) < p) + lo)
    pair = np.concatenate(kept)
    # Row u of the triu order starts at pair u (2n - u - 1) / 2.
    u = np.arange(n, dtype=np.int64)
    starts = u * (2 * n - u - 1) // 2
    row = np.searchsorted(starts, pair, side="right") - 1
    return Graph(n, np.column_stack([row, pair - starts[row] + row + 1]))


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph by configuration-model pairing with rejection.

    Whole pairings containing a loop or a repeated edge are discarded and
    redrawn; the retry cap failing is reported as a SamplingError.
    """
    if d < 1 or d >= n:
        raise ValueError("need 1 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph")
    rng = substream(seed, "random-regular")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_REGULAR_RETRY_CAP):
        perm = rng.permutation(n * d)
        a = stubs[perm[0::2]]
        b = stubs[perm[1::2]]
        if (a == b).any():
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        codes = np.sort(lo * n + hi)
        if (codes[1:] == codes[:-1]).any():
            continue
        return Graph(n, np.column_stack([lo, hi]))
    raise SamplingError(
        f"no simple {d}-regular pairing found in {_REGULAR_RETRY_CAP} attempts"
    )


def hamiltonian_regular_graph(n: int, d: int, seed: int) -> Graph:
    """d-regular graph containing the cycle 0-1-...-(n-1)-0.

    The cycle contributes degree 2; each further unit of degree comes from an
    independent uniform perfect matching, redrawn whenever it collides with
    an existing edge.  Such graphs are edge expanders with high probability.
    """
    if d < 2 or d >= n:
        raise ValueError("need 2 <= d < n")
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if d > 2 and n % 2:
        raise ValueError("n must be even to add perfect matchings")
    rng = substream(seed, "hamiltonian-regular")
    u = np.arange(n - 1, dtype=np.int64)
    codes = np.sort(np.append(u * (n + 1) + 1, n - 1))  # (u, u + 1) and (0, n - 1)
    for _ in range(d - 2):
        for attempt in range(_MATCHING_RETRY_CAP):
            perm = rng.permutation(n)
            a, b = perm[0::2], perm[1::2]
            cand = np.minimum(a, b) * n + np.maximum(a, b)
            if not np.isin(cand, codes).any():
                codes = np.union1d(codes, cand)
                break
        else:
            raise SamplingError(
                f"no collision-free matching in {_MATCHING_RETRY_CAP} attempts"
            )
    return Graph(n, np.column_stack(np.divmod(codes, n)))


def orientation_probabilities(p: float) -> tuple[float, float, float]:
    """(both, forward-only, backward-only) probabilities for one edge."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    s = math.sqrt(1.0 - p)
    # (2 - p - 2s) / p and (p + s - 1) / p, rewritten with p = (1 - s)(1 + s)
    # so that no difference cancels as p -> 0.
    both = p / (1.0 + s) ** 2
    single = s / (1.0 + s)
    return both, single, single


def direct_edges_dp(graph: Graph, p: float, seed: int) -> Orientation:
    """Randomly orient every edge of ``graph``: both ways, forward, or backward.

    The three outcomes have probabilities calibrated so that, when the input
    is itself a G(n,p) sample, each arc of the result appears independently
    with probability q = 1 - sqrt(1-p).
    """
    both, single, _ = orientation_probabilities(p)
    rng = substream(seed, "direct-edges")
    r = rng.random(graph.m)
    return Orientation(graph, r < both + single, (r < both) | (r >= both + single))
