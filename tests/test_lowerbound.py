import re
from dataclasses import replace

import numpy as np
import pytest

from treesplice.graph import Graph, cut_edges
from treesplice.lowerbound import (
    forced_cut_events,
    forced_cut_probability_bound,
    lower_bound_family,
    validate_family,
)
from treesplice.sampler import WalkTrace, aldous_broder
from treesplice.seeds import child_seed


def _closure(family, i):
    """Segment i's closed neighbourhood: its path and its ring."""
    return set(family.paths[i]) | set(family.ring_cycles[i])


def _trace_from_sequence(n, seq):
    """A trace of ``seq``; a vertex it never visits reads a first visit just
    past its end."""
    fv = np.full(n, len(seq), dtype=np.int64)
    for i, v in enumerate(seq):
        fv[v] = min(fv[v], i)
    return WalkTrace(np.array(seq, dtype=np.int32), fv)


def forced_cut_event(family, i, trace):
    """The per-segment loop that ``forced_cut_events`` replaces, kept as its
    reference: the window's first c vertices must be the whole ring, each
    joined to the last by a ring-cycle edge, and the rest the whole path,
    each joined to the last along the segment cycle."""
    seg = family.paths[i]
    ring = family.ring_cycles[i]
    fv = trace.first_visit
    t0 = min(int(fv[v]) for v in list(seg) + list(ring))
    verts = trace.vertices
    c = len(ring)
    m = c + len(seg)
    if t0 + m > len(verts):
        return False
    window = verts[t0 : t0 + m].tolist()
    ring_part = window[:c]
    seg_part = window[c:]
    if set(ring_part) != set(ring) or len(set(ring_part)) != c:
        return False
    if c >= 3:
        pos = {v: j for j, v in enumerate(ring)}
        for a, b in zip(ring_part, ring_part[1:]):
            if (pos[a] - pos[b]) % c not in (1, c - 1):
                return False
    if set(seg_part) != set(seg) or len(set(seg_part)) != len(seg):
        return False
    if len(seg) >= 2:
        spos = {v: j for j, v in enumerate(seg)}
        L = len(seg)
        for a, b in zip(seg_part, seg_part[1:]):
            diff = abs(spos[a] - spos[b])
            if diff != 1 and not (L >= 3 and diff == L - 1):
                return False
    return True


def _assert_events_match(fam, trace):
    """``forced_cut_events`` equals the reference segment by segment; returns it."""
    got = forced_cut_events(fam, trace)
    want = [forced_cut_event(fam, i, trace) for i in range(len(fam.paths))]
    assert got.dtype == bool
    assert got.tolist() == want
    return got


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_family_structural_invariants(ell):
    fam = lower_bound_family(600, 3, ell, seed=20 + ell)
    validate_family(fam)
    assert fam.graph.degrees.max() <= 5
    assert len(fam.paths) >= 600 // (9 * ell * ell)


def test_family_segments_have_nontrivial_cuts():
    fam = lower_bound_family(600, 3, 2, seed=9)
    for seg in fam.paths:
        assert len(cut_edges(fam.graph, list(seg))) >= 3


def test_family_closures_disjoint():
    fam = lower_bound_family(400, 3, 1, seed=3)
    seen = set()
    for i in range(len(fam.paths)):
        cl = _closure(fam, i)
        assert not (cl & seen)
        seen |= cl


def test_family_start_vertex_outside_closures():
    fam = lower_bound_family(400, 3, 1, seed=4)
    start = fam.start_vertex()
    for i in range(len(fam.paths)):
        assert start not in _closure(fam, i)


def _edited(graph, add=(), drop=()):
    """``graph`` less the pairs in ``drop`` (each one of its edges), plus ``add``."""
    gone = {(min(e), max(e)) for e in drop}
    edges = [e for e in graph.iter_edges() if e not in gone]
    assert len(edges) == graph.m - len(gone)
    return Graph(graph.n, edges + list(add))


def _broken_families():
    """(family, message) pairs, each breaking one invariant of a family that
    ``test_family_structural_invariants`` checks is valid."""
    fam = lower_bound_family(600, 3, 1, seed=21)
    g, base, paths, rings = fam.graph, fam.base, fam.paths, fam.ring_cycles
    start = fam.start_vertex()
    hub = int(g.degrees.argmax())
    far = next(w for w in range(fam.n) if w != hub and g.edge_id(hub, w) is None)
    ring = rings[0]
    ring_edge = next(
        (a, b) for a, b in zip(ring, ring[1:] + ring[:1]) if base.edge_id(a, b) is None
    )
    yield replace(fam, base=Graph(fam.n + 1, list(base.iter_edges()))), "vertex counts differ"
    yield replace(fam, graph=_edited(g, add=[(hub, far)])), "exceeds d + 2"
    yield replace(fam, graph=_edited(g, drop=[(0, 1)])), "base edges missing"
    yield replace(fam, paths=paths[:1], ring_cycles=rings[:1]), "segments kept"
    yield replace(fam, paths=((paths[0][0], start),) + paths[1:]), "segment 0 has 2 vertices"
    yield replace(fam, paths=paths[:1] + paths), "segment 1 interacts"
    yield replace(fam, ring_cycles=(ring[:-1] + (start,),) + rings[1:]), "segment 0 ring is not"
    yield replace(fam, ring_cycles=(ring[:2],) + rings[1:]), "ring has 2 vertices"
    yield replace(fam, graph=_edited(g, drop=[ring_edge])), f"edge {ring_edge} missing"

    # A path edge is a base edge, and dropping it from both graphs leaves
    # the segment's base neighbourhood as it was.
    fam = lower_bound_family(600, 3, 2, seed=22)
    pair = fam.paths[0]
    yield replace(
        fam, graph=_edited(fam.graph, drop=[pair]), base=_edited(fam.base, drop=[pair])
    ), f"edge {pair} missing"

    fam = lower_bound_family(600, 3, 3, seed=23)
    seg = next(s for s in fam.paths if fam.base.edge_id(s[0], s[-1]) is None)
    ends = (seg[0], seg[-1])
    yield replace(fam, graph=_edited(fam.graph, drop=[ends])), f"edge {ends} missing"


def test_validate_family_rejects_each_broken_invariant():
    cases = list(_broken_families())
    assert len(cases) == 11
    for fam, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_family(fam)


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lower_bound_family(100, 2, 1, seed=0)
    with pytest.raises(ValueError):
        lower_bound_family(100, 3, 0, seed=0)


def test_event_detected_on_crafted_trace():
    fam = lower_bound_family(400, 3, 1, seed=7)
    i = 0
    (v,) = fam.paths[i]
    ring = list(fam.ring_cycles[i])
    start = fam.start_vertex()
    # Walk straight to the ring, sweep it, then step into the segment.
    g = fam.graph
    nbrs = g._neighbor_lists
    # BFS path from start to ring[0] avoiding the closure until arrival.
    from collections import deque

    closure = _closure(fam, i)
    prev = {start: None}
    dq = deque([start])
    while dq:
        x = dq.popleft()
        if x == ring[0]:
            break
        for w in nbrs[x]:
            if w not in prev and (w not in closure or w == ring[0]):
                prev[w] = x
                dq.append(w)
    path = []
    x = ring[0]
    while x is not None:
        path.append(x)
        x = prev[x]
    path.reverse()
    seq = path + [ring[1], ring[2], v]
    trace = _trace_from_sequence(fam.n, seq)
    assert _assert_events_match(fam, trace)[i]
    # Breaking the sweep (revisiting a ring vertex) kills the event.
    bad = path + [ring[1], ring[0], ring[1], v]
    assert not _assert_events_match(fam, _trace_from_sequence(fam.n, bad))[i]
    # Entering the segment before finishing the ring kills it too.
    bad2 = path + [v, ring[1], ring[2]]
    assert not _assert_events_match(fam, _trace_from_sequence(fam.n, bad2))[i]
    # So does a window that runs past the trace end.
    cut = path + [ring[1], ring[2]]
    assert not _assert_events_match(fam, _trace_from_sequence(fam.n, cut))[i]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_events_equal_the_scalar_check_on_real_traces(ell):
    fam = lower_bound_family(300, 3, ell, seed=30 + ell)
    start = fam.start_vertex()
    hits = 0
    for t in range(40):
        _, trace = aldous_broder(fam.graph, child_seed(23, "t", t), start=start)
        hits += int(_assert_events_match(fam, trace).sum())
    if ell == 1:
        assert hits > 0


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_events_equal_the_scalar_check_on_crafted_sweeps(ell):
    # Sweeps of the first segments' rings and paths, either way round and
    # from any rotation, then ways to break them.  The event reads only the
    # window's order, so the vertices need not be adjacent in the graph.
    fam = lower_bound_family(300, 3, ell, seed=40 + ell)
    start = fam.start_vertex()
    for i in range(3):
        ring, seg = list(fam.ring_cycles[i]), list(fam.paths[i])
        rings = [ring, ring[::-1], ring[1:] + ring[:1], ring[-1:] + ring[:-1]]
        segs = [seg, seg[::-1], seg[1:] + seg[:1]]
        cases = [(r + s, True) for r in rings for s in segs] + [
            (ring[:2] + ring[:1] + ring[2:] + seg, False),  # a ring vertex twice
            # Two ring vertices swapped: on a 3-ring, the other way round.
            (ring[:1] + ring[2:3] + ring[1:2] + ring[3:] + seg, len(ring) == 3),
            (ring[:1] + seg + ring[1:], False),  # the path before the ring is done
            # The ring again, or the first path vertex twice, after the first
            # path vertex: past the window when ell = 1.
            (ring + seg[:1] + ring[:1] + seg[1:], ell == 1),
            (ring + seg[:1] + seg, ell == 1),
            (ring + seg[:-1], False),  # a window cut off by the trace end
            (ring[:-1], False),  # the same, inside the ring
        ]
        for seq, fires in cases:
            got = _assert_events_match(fam, _trace_from_sequence(fam.n, [start] + seq))
            assert got[i] == fires, (i, seq)


def test_event_forces_single_cut_edge():
    # Whenever the event fires, the sampled tree crosses the segment once.
    fam = lower_bound_family(300, 3, 1, seed=5)
    start = fam.start_vertex()
    checked = 0
    for t in range(400):
        tree, trace = aldous_broder(fam.graph, child_seed(99, "t", t), start=start)
        events = forced_cut_events(fam, trace)
        for i in range(len(fam.paths)):
            if events[i]:
                seg = list(fam.paths[i])
                tree_cut = [
                    e
                    for e in cut_edges(fam.graph, seg)
                    if e in set(tree.edge_ids().tolist())
                ]
                assert len(tree_cut) == 1
                checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def test_event_rate_beats_guaranteed_bound_small():
    fam = lower_bound_family(300, 3, 1, seed=6)
    start = fam.start_vertex()
    pairs = []
    for t in range(300):
        pairs.append(aldous_broder(fam.graph, child_seed(17, "t", t), start=start))
    hits = sum(int(forced_cut_events(fam, trace).sum()) for _, trace in pairs)
    total = len(pairs) * len(fam.paths)
    rate = hits / total
    bound = forced_cut_probability_bound(3, 1)
    se = (rate * (1 - rate) / total) ** 0.5
    assert rate >= bound - 4 * se


def test_probability_bound_values():
    assert forced_cut_probability_bound(3, 1) == pytest.approx(1 / 125)
    assert forced_cut_probability_bound(3, 2) == pytest.approx(1 / 5**7)
