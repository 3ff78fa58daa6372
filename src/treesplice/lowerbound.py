"""Low-expansion witness family: subdivided expander paths with ringed neighborhoods.

The construction starts from a regular expander containing the cycle
0-1-...-(n-1), takes the induced spanning path, chops it into consecutive
segments, and greedily keeps a set of segments whose closed neighborhoods are
pairwise disjoint.  Each kept segment gets its endpoints joined and its
neighborhood wired into a cycle, so a random-walk tree sampler that happens to
sweep the neighborhood ring and then the segment leaves only a single tree
edge crossing the segment's cut.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def closure(self, i: int) -> set[int]:
        return set(self.paths[i]) | set(self.ring_cycles[i])

    def start_vertex(self) -> int:
        """A vertex outside every selected segment's closure."""
        blocked = set()
        for i in range(len(self.paths)):
            blocked |= self.closure(i)
        for v in range(self.n):
            if v not in blocked:
                return v
        raise SamplingError("no vertex outside all closures")


def _neighborhood(base: Graph, vertices: tuple[int, ...]) -> list[int]:
    inside = set(vertices)
    out: set[int] = set()
    nbrs = base._neighbor_lists
    for v in vertices:
        out.update(nbrs[v])
    return sorted(out - inside)


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
    nbrs = base._neighbor_lists

    n_segments = n // ell
    closures: list[set[int]] = []
    segments: list[tuple[int, ...]] = []
    for i in range(n_segments):
        seg = tuple(range(i * ell, (i + 1) * ell))
        segments.append(seg)
        cl = set(seg)
        for v in seg:
            cl.update(nbrs[v])
        closures.append(cl)

    chosen: list[int] = []
    used: set[int] = set()
    for i in range(n_segments):
        if closures[i] & used:
            continue
        # Segments spanning the removed cycle edge do not exist (the path is
        # the cycle minus (n-1, 0)), and the last segment may be short; both
        # are handled by the consecutive-range construction above.  A segment
        # whose neighborhood is too small to ring is skipped.
        ring = _neighborhood(base, segments[i])
        if ell >= 2 and len(ring) < 3:
            continue
        chosen.append(i)
        used |= closures[i]
    if not chosen:
        raise SamplingError("greedy selection kept no segment; parameters too tight")

    extra: set[tuple[int, int]] = set()
    existing = {(int(u), int(v)) for u, v in base.iter_edges()}

    def add_edge(u: int, v: int) -> None:
        e = (min(u, v), max(u, v))
        if e not in existing:
            extra.add(e)
            existing.add(e)

    paths: list[tuple[int, ...]] = []
    rings: list[tuple[int, ...]] = []
    for i in chosen:
        seg = segments[i]
        ring = tuple(_neighborhood(base, seg))
        if ell >= 3:
            add_edge(seg[0], seg[-1])
        if len(ring) >= 3:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                add_edge(a, b)
        elif len(ring) == 2:
            add_edge(ring[0], ring[1])
        paths.append(seg)
        rings.append(ring)

    graph = Graph(n, sorted(existing))
    return LowerBoundFamily(
        graph=graph,
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
    d, ell = family.d, family.ell
    if g.n != base.n:
        raise ValueError("graph and base vertex counts differ")
    if int(g.degrees.max()) > d + 2:
        raise ValueError(
            f"max degree {int(g.degrees.max())} exceeds d + 2 = {d + 2}"
        )
    base_edges = {(int(u), int(v)) for u, v in base.iter_edges()}
    graph_edges = {(int(u), int(v)) for u, v in g.iter_edges()}
    if not base_edges <= graph_edges:
        raise ValueError("base edges missing from the augmented graph")

    floor_bound = g.n // (d * d * ell * ell)
    if len(family.paths) < max(floor_bound, 1):
        raise ValueError(
            f"only {len(family.paths)} segments kept; expected at least {floor_bound}"
        )

    seen: set[int] = set()
    for i, seg in enumerate(family.paths):
        if len(seg) != ell:
            raise ValueError(f"segment {i} has {len(seg)} vertices, expected {ell}")
        ring = family.ring_cycles[i]
        cl = set(seg) | set(ring)
        if seen & cl:
            raise ValueError(f"segment {i} interacts with an earlier segment")
        seen |= cl
        if set(ring) != set(_neighborhood(base, seg)):
            raise ValueError(f"segment {i} ring is not its base neighborhood")
        # Ring cycle edges must exist in the augmented graph.
        if len(ring) >= 3:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                if not g.has_edge(a, b):
                    raise ValueError(f"ring edge ({a}, {b}) missing")
        elif len(ring) == 2:
            if not g.has_edge(ring[0], ring[1]):
                raise ValueError("two-vertex ring edge missing")
        # Segment cycle: consecutive path edges, closed by the endpoint edge.
        for a, b in zip(seg, seg[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"path edge ({a}, {b}) missing")
        if ell >= 3 and not g.has_edge(seg[0], seg[-1]):
            raise ValueError("endpoint edge missing")


def forced_cut_event(family: LowerBoundFamily, i: int, trace: WalkTrace) -> bool:
    """Did the walk sweep segment i's ring then its path on first contact?

    The event asks that at the first visit to the ring-or-segment vertex set,
    the walk traverses the whole ring cycle without exits or repeats, then
    enters the segment and covers it the same way.  When it happens, the
    sampled tree crosses the segment's cut on exactly one edge.
    """
    seg = family.paths[i]
    ring = family.ring_cycles[i]
    fv = trace.first_visit
    members = list(seg) + list(ring)
    t0 = min(int(fv[v]) for v in members)
    verts = trace.vertices
    c = len(ring)
    m = c + len(seg)
    if t0 + m > len(verts):
        return False
    window = verts[t0 : t0 + m].tolist()
    ring_part = window[:c]
    seg_part = window[c:]
    ring_set = set(ring)
    if set(ring_part) != ring_set or len(set(ring_part)) != c:
        return False
    if c >= 3:
        # Consecutive ring vertices must be joined by ring-cycle edges.
        pos = {v: j for j, v in enumerate(ring)}
        for a, b in zip(ring_part, ring_part[1:]):
            if (pos[a] - pos[b]) % c not in (1, c - 1):
                return False
    if set(seg_part) != set(seg) or len(set(seg_part)) != len(seg):
        return False
    # Consecutive segment vertices must move along the segment cycle
    # (path edges plus the endpoint edge).
    if len(seg) >= 2:
        spos = {v: j for j, v in enumerate(seg)}
        L = len(seg)
        for a, b in zip(seg_part, seg_part[1:]):
            diff = abs(spos[a] - spos[b])
            if diff != 1 and not (L >= 3 and diff == L - 1):
                return False
    return True


def measure_event_rate(
    family: LowerBoundFamily, trees_with_traces
) -> tuple[int, int]:
    """Count (events, observations) of the forced-cut event across segments."""
    hits = 0
    total = 0
    for _tree, trace in trees_with_traces:
        for i in range(len(family.paths)):
            total += 1
            if forced_cut_event(family, i, trace):
                hits += 1
    return hits, total


def forced_cut_probability_bound(d: int, ell: int) -> float:
    """The guaranteed per-segment, per-tree event probability."""
    return 1.0 / float((d + 2) ** ((d + 1) * ell - 1))
