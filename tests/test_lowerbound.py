import numpy as np
import pytest

from treesplice.graph import cut_edges
from treesplice.lowerbound import (
    forced_cut_event,
    forced_cut_probability_bound,
    lower_bound_family,
    measure_event_rate,
    validate_family,
)
from treesplice.sampler import WalkTrace, aldous_broder
from treesplice.seeds import child_seed


def _trace_from_sequence(n, seq):
    fv = np.full(n, -1, dtype=np.int64)
    for i, v in enumerate(seq):
        if fv[v] < 0:
            fv[v] = i
    return WalkTrace(np.array(seq, dtype=np.int32), fv)


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
        cl = fam.closure(i)
        assert not (cl & seen)
        seen |= cl


def test_family_start_vertex_outside_closures():
    fam = lower_bound_family(400, 3, 1, seed=4)
    start = fam.start_vertex()
    for i in range(len(fam.paths)):
        assert start not in fam.closure(i)


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

    closure = fam.closure(i)
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
    assert forced_cut_event(fam, i, trace)
    # Breaking the sweep (revisiting a ring vertex) kills the event.
    bad = path + [ring[1], ring[0], ring[1], v]
    assert not forced_cut_event(fam, i, _trace_from_sequence(fam.n, bad))
    # Entering the segment before finishing the ring kills it too.
    bad2 = path + [v, ring[1], ring[2]]
    assert not forced_cut_event(fam, i, _trace_from_sequence(fam.n, bad2))


def test_event_forces_single_cut_edge():
    # Whenever the event fires, the sampled tree crosses the segment once.
    fam = lower_bound_family(300, 3, 1, seed=5)
    start = fam.start_vertex()
    checked = 0
    for t in range(400):
        tree, trace = aldous_broder(fam.graph, child_seed(99, "t", t), start=start)
        for i in range(len(fam.paths)):
            if forced_cut_event(fam, i, trace):
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
    hits, total = measure_event_rate(fam, pairs)
    rate = hits / total
    bound = forced_cut_probability_bound(3, 1)
    se = (rate * (1 - rate) / total) ** 0.5
    assert rate >= bound - 4 * se


def test_probability_bound_values():
    assert forced_cut_probability_bound(3, 1) == pytest.approx(1 / 125)
    assert forced_cut_probability_bound(3, 2) == pytest.approx(1 / 5**7)
