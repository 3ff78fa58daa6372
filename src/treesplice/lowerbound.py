"""Low-expansion witness family: subdivided expander paths with ringed neighborhoods.

The construction starts from a regular expander containing the cycle
0-1-...-(n-1), takes the induced spanning path, chops it into consecutive
segments, and greedily keeps a set of segments whose closed neighborhoods are
pairwise disjoint.  Each kept segment gets its endpoints joined and its
neighborhood wired into a cycle, so a random-walk tree sampler that happens to
sweep the neighborhood ring and then the segment leaves only a single tree
edge crossing the segment's cut.  ``forced_cut_events`` reads that event for
every segment of one walk in one numpy pass over the walk's first visits,
from a per-segment member table the family builds once.

Edge sets are sorted codes lo * n + hi throughout: the augmented graph is
the union of the base's codes with those of every ring cycle and every
segment closed into a cycle, and ``validate_family`` checks each containment
with one ``np.isin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, SamplingError
from .generators import hamiltonian_regular_graph
from .sampler import WalkTrace
from .seeds import child_seed


@dataclass(frozen=True)
class LowerBoundFamily:
    """The augmented graph plus the structures the event measurement needs."""

    graph: Graph
    base: Graph
    paths: tuple[tuple[int, ...], ...]
    ring_cycles: tuple[tuple[int, ...], ...]
    d: int
    ell: int

    @property
    def n(self) -> int:
        return self.graph.n

    def start_vertex(self) -> int:
        """The first vertex outside every selected segment's closure."""
        free = np.setdiff1d(np.arange(self.n), self._event_tables[0])
        if free.size == 0:
            raise SamplingError("no vertex outside all closures")
        return int(free[0])

    @cached_property
    def _event_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``forced_cut_events``' tables: per segment, its ring then its path
        in cycle order padded with the ring's first vertex; the ring sizes."""
        c = np.array([len(r) for r in self.ring_cycles], dtype=np.int64)
        top, rows = int(c.max()), zip(self.ring_cycles, self.paths)
        members = np.array([r + p + r[:1] * (top - len(r)) for r, p in rows], dtype=np.int64)
        return members, c


def _neighborhood(base: Graph, vertices: tuple[int, ...]) -> list[int]:
    inside = set(vertices)
    out: set[int] = set()
    nbrs = base._neighbor_lists
    for v in vertices:
        out.update(nbrs[v])
    return sorted(out - inside)


def _edge_codes(graph: Graph) -> np.ndarray:
    """The graph's edges as codes lo * n + hi, in edge-id order."""
    return graph.edge_u.astype(np.int64) * graph.n + graph.edge_v


def _cycle_codes(n: int, cycles) -> np.ndarray:
    """Codes lo * n + hi of every cycle's edges: each vertex with the next,
    the last with the first."""
    a = np.concatenate(cycles, dtype=np.int64)
    b = np.concatenate([cyc[1:] + cyc[:1] for cyc in cycles], dtype=np.int64)
    return np.minimum(a, b) * n + np.maximum(a, b)


def lower_bound_family(n: int, d: int, ell: int, seed: int) -> LowerBoundFamily:
    """Build the family on an n-vertex d-regular expander; segments of ell vertices.

    The spanning path is the construction cycle minus its closing edge, and
    the trailing segment shorter than ell is discarded.  Greedy selection in
    index order keeps segments with pairwise disjoint closed neighborhoods.
    A selected segment contributes its endpoint edge (segments of 3 or more
    vertices) and a cycle through its neighborhood in ascending vertex order,
    adding only edges not already present.  Raises SamplingError when the
    greedy selection comes up empty.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if ell < 1:
        raise ValueError("need ell >= 1")
    base = hamiltonian_regular_graph(n, d, child_seed(seed, "expander"))
    paths: list[tuple[int, ...]] = []
    rings: list[tuple[int, ...]] = []
    used: set[int] = set()
    for i in range(n // ell):
        seg = tuple(range(i * ell, (i + 1) * ell))
        ring = tuple(_neighborhood(base, seg))
        closure = set(seg) | set(ring)
        # A segment whose neighborhood is too small to ring is skipped; with
        # d >= 3 on a simple graph that happens only for ell >= 2.
        if closure & used or len(ring) < 3:
            continue
        used |= closure
        paths.append(seg)
        rings.append(ring)
    if not paths:
        raise SamplingError("greedy selection kept no segment; parameters too tight")

    # Closing a path into a cycle adds its endpoint edge; its other edges,
    # and the whole cycle when ell = 2, are base edges already.
    cycles = rings + paths if ell >= 2 else rings
    codes = np.union1d(_edge_codes(base), _cycle_codes(n, cycles))
    return LowerBoundFamily(
        graph=Graph(n, np.column_stack(np.divmod(codes, n))),
        base=base,
        paths=tuple(paths),
        ring_cycles=tuple(rings),
        d=d,
        ell=ell,
    )


def validate_family(family: LowerBoundFamily) -> None:
    """Check the structural invariants; raises ValueError on any violation."""
    g = family.graph
    base = family.base
    n, d, ell = g.n, family.d, family.ell
    if n != base.n:
        raise ValueError("graph and base vertex counts differ")
    if int(g.degrees.max()) > d + 2:
        raise ValueError(
            f"max degree {int(g.degrees.max())} exceeds d + 2 = {d + 2}"
        )
    codes = _edge_codes(g)
    if not np.isin(_edge_codes(base), codes).all():
        raise ValueError("base edges missing from the augmented graph")

    floor_bound = n // (d * d * ell * ell)
    if len(family.paths) < max(floor_bound, 1):
        raise ValueError(
            f"only {len(family.paths)} segments kept; expected at least {floor_bound}"
        )

    seen: set[int] = set()
    for i, seg in enumerate(family.paths):
        if len(seg) != ell:
            raise ValueError(f"segment {i} has {len(seg)} vertices, expected {ell}")
        ring = family.ring_cycles[i]
        if len(ring) < 3:
            raise ValueError(f"segment {i} ring has {len(ring)} vertices, need at least 3")
        cl = set(seg) | set(ring)
        if seen & cl:
            raise ValueError(f"segment {i} interacts with an earlier segment")
        seen |= cl
        if set(ring) != set(_neighborhood(base, seg)):
            raise ValueError(f"segment {i} ring is not its base neighborhood")

    # Ring cycles, and segment cycles: consecutive path edges, closed by the
    # endpoint edge when ell >= 3.
    want = _cycle_codes(n, family.ring_cycles + (family.paths if ell >= 2 else ()))
    missing = np.flatnonzero(~np.isin(want, codes))
    if missing.size:
        u, v = divmod(int(want[missing[0]]), n)
        raise ValueError(f"ring, path or endpoint edge ({u}, {v}) missing")


def forced_cut_events(family: LowerBoundFamily, trace: WalkTrace) -> np.ndarray:
    """Per segment, did the walk sweep its ring then its path on first contact?

    Segment i's event asks that from the first visit to any vertex of its
    ring or path, the next c + ell walk vertices (c and ell the ring's and
    the path's sizes) are the whole ring, each step to a neighbour on the
    ring cycle, then the whole path, each step to a neighbour on the segment
    cycle (path edges plus the endpoint edge).  When the event happens, the
    sampled tree crosses the segment's cut on exactly one edge.  With f a
    vertex's first visit less the segment's earliest, that is: ring
    vertices have f in [0, c), path vertices f in [c, c + ell), and in cycle
    order f steps +1 mod c round the ring at every step, or -1 at every step
    (distinct vertices cannot turn back), and likewise mod ell on the path.
    """
    members, c = family._event_tables
    ell = family.ell
    f = trace.first_visit[members]
    f -= f.min(1, keepdims=True)
    j = np.arange(members.shape[1])
    c = c[:, None]
    # Slot j holds a ring vertex of the row's segment below c, a path vertex
    # of it from c to c + ell - 1, and anything after.
    ok = (((f < c) == (j < c)) & (f < c + ell) | (j >= c + ell)).all(1)
    step = np.diff(f, axis=1)
    j = j[1:]
    for part, size in ((j < c, c), ((j > c) & (j < c + ell), ell)):
        step_mod = step % size
        ok &= ((step_mod == 1) | ~part).all(1) | ((step_mod == size - 1) | ~part).all(1)
    return ok


def forced_cut_probability_bound(d: int, ell: int) -> float:
    """The guaranteed per-segment, per-tree event probability."""
    return 1.0 / float((d + 2) ** ((d + 1) * ell - 1))
