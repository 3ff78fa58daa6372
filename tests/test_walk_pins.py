"""Pinned outputs of the scalar walk kernels, of failover routing and of the
lower-bound construction.

The walk digests were recorded from the per-step ``below`` draws the kernels
used before they reduced raw words inline.  Both read the same 64-bit words
and apply the same exact rejection, so every tree, trace, step count and
route must stay byte-identical; a change here changes the sampled streams.
The construction digests were recorded from the vertex-pair set
implementation that sorted edge codes replaced: the same draws must give
the same graphs, segments and rings.
"""

import hashlib

import pytest

from treesplice.generators import (
    complete_graph,
    direct_edges_dp,
    gnp_graph,
    hamiltonian_regular_graph,
    random_regular_graph,
)
from treesplice.lowerbound import lower_bound_family
from treesplice.routing import build_routing, route
from treesplice.sampler import aldous_broder, process_bp_on
from treesplice.splice import splice


def _walk_digest(graph, seeds, start=0) -> str:
    h = hashlib.sha256()
    for s in seeds:
        tree, trace = aldous_broder(graph, s, start=start)
        for a in (tree.parent, tree.parent_edge, trace.vertices, trace.first_visit):
            h.update(a.tobytes())
    return h.hexdigest()


def _graph_digest(graph) -> str:
    h = hashlib.sha256()
    h.update(repr(graph.n).encode())
    h.update(graph.edge_u.astype("<i4").tobytes())
    h.update(graph.edge_v.astype("<i4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, d, seed, digest",
    [
        (3000, 3, 7, "6c4cbe28acd224ce155b35f1812b9c5b0f41ab04fcee6e12c7718283bc27ac79"),
        # 17 matchings drawn for the 3 kept.
        (3000, 5, 2, "7648a174833092996fb527d8a364b83715ede3c8836f3cc9c9703d01fc2798e3"),
        # 20 matchings drawn for the 3 kept.
        (200, 5, 3, "3c1bb0bdca8813c19dfe2ab5cd05fdbdc2b34ef0014c1e5f048438ac92b29370"),
    ],
)
def test_hamiltonian_regular_graphs_are_pinned(n, d, seed, digest):
    assert _graph_digest(hamiltonian_regular_graph(n, d, seed)) == digest


@pytest.mark.parametrize(
    "ell, seed, segments, start, digest",
    [
        (1, 7, 599, 110, "31ac07154d412b7cbc7f747b5673265214543434af06d23cf89824695fbde250"),
        (2, 7, 332, 27, "9777fb614d5c0e61dd166006e6b486cb344482d20e67284bcab6971f3af72e62"),
        (3, 5, 214, 4, "17a1b03bd0e1fd903df54e84a21222afa867cc9431aa1b9e2ce0592bedd417ff"),
    ],
)
def test_lower_bound_families_are_pinned(ell, seed, segments, start, digest):
    fam = lower_bound_family(3000, 3, ell, seed)
    h = hashlib.sha256()
    for g in (fam.graph, fam.base):
        h.update(_graph_digest(g).encode())
    h.update(repr((fam.paths, fam.ring_cycles, fam.start_vertex())).encode())
    assert (len(fam.paths), fam.start_vertex()) == (segments, start)
    assert h.hexdigest() == digest


def test_aldous_broder_walks_are_pinned():
    fam = lower_bound_family(3000, 3, 1, seed=17)
    assert (
        _walk_digest(fam.graph, (1, 2, 3), fam.start_vertex())
        == "5efa9276f800ef482b3086ec8cd95406e50549bc0577d8118b7f57943190a2f7"
    )
    assert (
        _walk_digest(complete_graph(64), (1, 2, 3, 4))
        == "3721f4d2c5cdd43573b862cdef31479f6162d1e5ad4bba94fe4ec6444325d073"
    )
    assert (
        _walk_digest(random_regular_graph(256, 3, seed=5), (1, 2, 3, 4))
        == "a57a35dc72ed4c973bbd2549e2715cfc95f1cdefb1f454688954e1aac46e1362"
    )


@pytest.mark.parametrize(
    "n, p, graph_seed, phases, outcomes, digest",
    [
        # Dense enough that every walk covers twice.
        (200, 0.5, 3, 2, [(True, None, 2653, 2), (True, None, 2051, 2),
                          (True, None, 1927, 2), (True, None, 1896, 2)],
         "5b2676399e86ff66a3d34db9ab218c57a466424a6a962e9d28edc6114057fedd"),
        # Sparse: every walk strands in its second phase.
        (100, 0.3, 4, 2, [(False, 9, 628, 1), (False, 57, 753, 1),
                          (False, 27, 416, 1), (False, 35, 842, 1)],
         "c508f903751698ad8feb6df2b3d1cdf1006b2ca89a727c7eef146f98a54a0eec"),
    ],
    ids=["covers", "strands"],
)
def test_process_bp_on_walks_are_pinned(n, p, graph_seed, phases, outcomes, digest):
    oriented = direct_edges_dp(gnp_graph(n, p, seed=graph_seed), p, seed=graph_seed)
    h = hashlib.sha256()
    seen = []
    for s in range(len(outcomes)):
        r = process_bp_on(oriented, s, phases=phases)
        seen.append((r.success, r.stuck_vertex, r.steps_taken, len(r.trees)))
        for tree in r.trees:
            h.update(repr(tree.root).encode())
            h.update(tree.parent.tobytes())
            h.update(tree.parent_edge.tobytes())
    assert seen == outcomes
    assert h.hexdigest() == digest


def test_random_policy_routes_are_pinned():
    g = complete_graph(40)
    failed = [(u, v) for u, v in g.iter_edges() if (u * 7 + v * 3) % 5 == 0]
    state = build_routing(splice(g, 4, seed=9).source_trees, failed)
    h = hashlib.sha256()
    switches = 0
    for s in range(40):
        r = route(state, s, (s * 13 + 1) % 40, seed=s)
        switches += r.switches
        h.update(repr((r.delivered, r.hops, r.switches, r.path)).encode())
    assert switches == 43
    assert h.hexdigest() == "32c705b026cabe1471c9f44b4acda9f23ea66a5feebf27193836aa8858e4ddd3"
