"""Pinned outputs of the scalar walk kernels and of failover routing.

The digests were recorded from the per-step ``below`` draws the kernels used
before they reduced raw words inline.  Both read the same 64-bit words and
apply the same exact rejection, so every tree, trace, step count and route
must stay byte-identical; a change here changes the sampled streams.
"""

import hashlib

import pytest

from treesplice.generators import complete_graph, direct_edges_dp, gnp_graph, random_regular_graph
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
    state = build_routing(splice(g, 4, seed=9).source_trees)
    failed = [(u, v) for u, v in g.iter_edges() if (u * 7 + v * 3) % 5 == 0]
    h = hashlib.sha256()
    switches = 0
    for s in range(40):
        r = route(state, s, (s * 13 + 1) % 40, failed=failed, seed=s)
        switches += r.switches
        h.update(repr((r.delivered, r.hops, r.switches, r.path)).encode())
    assert switches == 43
    assert h.hexdigest() == "32c705b026cabe1471c9f44b4acda9f23ea66a5feebf27193836aa8858e4ddd3"
