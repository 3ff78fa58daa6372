"""Error contracts: wrong inputs raise ValueError, stochastic failures SamplingError."""

import pytest

from treesplice.generators import complete_graph, gnp_graph, path_graph
from treesplice.graph import Graph, Orientation, SamplingError
from treesplice.lowerbound import lower_bound_family
from treesplice.routing import reliability_experiment, stretch_stats
from treesplice.sampler import process_bp_on, sample_trees
from treesplice.splice import splice, union_trees
from treesplice.verify import coupling_distance_estimate


def test_lower_bound_family_too_tight_is_sampling_error():
    with pytest.raises(SamplingError, match="too tight"):
        lower_bound_family(100, 3, 200, seed=1)


def test_process_walk_with_no_out_arcs_fails_immediately():
    oriented = Orientation(Graph(3, [(1, 2)]), [True], [False])  # 0 has no way out
    res = process_bp_on(oriented, seed=1)
    assert not res.success
    assert res.stuck_vertex == 0
    assert res.steps_taken == 0


def test_sample_trees_requires_positive_k():
    with pytest.raises(ValueError):
        sample_trees(complete_graph(4), 0, seed=1)


def test_union_trees_requires_input():
    with pytest.raises(ValueError):
        union_trees([])


def test_splice_propagates_sampler_errors():
    from treesplice.graph import Graph

    disconnected = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(SamplingError):
        splice(disconnected, 2, seed=1)


def test_coupling_estimate_validates_arguments():
    with pytest.raises(ValueError):
        coupling_distance_estimate(1, 0.5, 10, seed=0)
    with pytest.raises(ValueError):
        coupling_distance_estimate(8, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        coupling_distance_estimate(8, 0.5, 0, seed=0)


def test_reliability_validates_arguments():
    g = complete_graph(8)
    with pytest.raises(ValueError):
        reliability_experiment(g, (1,), 1.5, pairs=5, trials=2, seed=0)
    with pytest.raises(ValueError):
        reliability_experiment(g, (1,), 0.1, pairs=0, trials=2, seed=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        reliability_experiment(g, (0, 2), 0.1, pairs=5, trials=2, seed=0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            reliability_experiment(Graph(n, []), (1,), 0.1, pairs=5, trials=2, seed=0)


def test_stretch_validates_pairs():
    with pytest.raises(ValueError):
        stretch_stats(12, gnp_graph(12, 0.5, seed=1), pairs=0, seed=0)


def test_stretch_rejects_tiny_graphs_and_foreign_support():
    for n in (0, 1):
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            stretch_stats(n, Graph(n, []), pairs=5, seed=0)
    with pytest.raises(ValueError, match="vertex sets differ"):
        stretch_stats(5, path_graph(6), pairs=50, seed=0)
