"""Random spanning trees, splicers, and the experiments built on them."""

from .graph import (
    ConvergenceError,
    Graph,
    GraphFormatError,
    Orientation,
    SamplingError,
    cut_edges,
)
from .generators import (
    complete_graph,
    cycle_graph,
    direct_edges_dp,
    gnp_graph,
    hamiltonian_regular_graph,
    orientation_probabilities,
    path_graph,
    petersen_graph,
    prism_graph,
    random_regular_graph,
    wheel_graph,
)
from .linalg import (
    effective_resistance_exact,
    effective_resistances,
    laplacian_dense,
    laplacian_sparse,
    spanning_tree_count,
)
from .sampler import (
    ProcessBResult,
    SpanningTree,
    WalkTrace,
    aldous_broder,
    process_bp,
    process_bp_on,
    sample_trees,
    tree_edge_frequencies,
)
from .seeds import child_seed, substream
from .splice import WeightedGraph, sparsify_gnp, splice, splice_gnp, union_trees
from .lowerbound import (
    LowerBoundFamily,
    forced_cut_events,
    forced_cut_probability_bound,
    lower_bound_family,
    validate_family,
)
from .cuts import (
    edge_expansion_exact,
    sampled_cut_ratios,
    sparsifier_quality,
    spectral_lower_bounds,
    vertex_expansion_exact,
)
from .verify import (
    chernoff_tail_check,
    coupling_distance_estimate,
    enumerate_trees,
    negative_correlation_check,
)
from .routing import (
    RouteResult,
    RoutingState,
    build_routing,
    reliability_experiment,
    route,
    stretch_stats,
)
from .experiments import ExperimentConfig, PRESETS, run_preset

__version__ = "0.1.0"
