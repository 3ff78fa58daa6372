"""Per-layer metrics: which public functions the traced run wraps, and what it reports.

Each metric is ``<module>.<function>.<quantity>``.  ``self_s`` is the time in
a call minus the time in the wrapped calls it made; per-unit costs divide a
function's self time by the work it reports (walk steps, walks, cuts, pairs,
routes).  The ``experiments.<preset>.wall_s`` and ``cli.<command>.wall_s``
values are the benchmark's own timings of each operation in the untraced
round of a pair, in reference seconds (``speed.py``); the rest come from the
traced round, in raw seconds.  Metrics of a workload
that does not reach a function read 0; a function that no longer exists is
listed as absent.

The wrapped functions are the names the ``treesplice`` package exports, plus
``cli.main`` and ``io.parse_graph``, the entry points of the CLI workload.
"""

from __future__ import annotations

import spans
from spans import Target

PRESETS = (
    "thm-random-graph", "thm-tail-bound", "thm-lower-bound", "thm-sparsifier",
    "thm-bounded-degree", "thm-complete-graph", "stretch-diameter",
    "routing-reliability",
)
CLI_COMMANDS = ("verify", "expansion")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _trials_at(pos: int):
    return lambda a, k, r: {"walks": _arg(a, k, pos, "trials")}


TARGETS = [
    Target("seeds.substream"),
    Target("graph.cut_edges"),
    Target("generators.complete_graph"),
    Target("generators.gnp_graph"),
    Target("generators.random_regular_graph"),
    Target("generators.direct_edges_dp"),
    Target("sampler.aldous_broder", count=lambda a, k, r: {"steps": r[1].steps}),
    Target("sampler.process_bp_on",
           count=lambda a, k, r: {"steps": r.steps_taken, "stuck": int(not r.success)}),
    Target("sampler.sequential_two_trees_bp",
           count=lambda a, k, r: {"steps": r.steps_taken, "success": int(r.success)}),
    Target("sampler.tree_edge_frequencies", count=_trials_at(1)),
    Target("splice.splice"),
    Target("splice.union_trees"),
    Target("splice.sparsify_gnp"),
    Target("cuts.sampled_cut_ratios", count=lambda a, k, r: {"cuts": len(r)}),
    Target("cuts.sparsifier_quality"),
    Target("cuts.spectral_lower_bound"),
    Target("cuts.edge_expansion_exact"),
    Target("cuts.vertex_expansion_exact"),
    Target("linalg.effective_resistance"),
    Target("linalg.spanning_tree_count"),
    Target("verify.enumerate_trees", count=lambda a, k, r: {"trees": len(r)}),
    Target("verify.negative_correlation_check"),
    Target("verify.chernoff_tail_check", count=_trials_at(2)),
    Target("verify.coupling_distance_estimate", count=_trials_at(2)),
    Target("lowerbound.lower_bound_family"),
    Target("lowerbound.forced_cut_event"),
    Target("routing.stretch_stats",
           count=lambda a, k, r: {"pairs": _arg(a, k, 2, "pairs")}),
    Target("routing.build_routing",
           count=lambda a, k, r: {"max_table_bytes": r.next_hop.nbytes}),
    Target("routing.route", count=lambda a, k, r: {"delivered": int(r.delivered)}),
    Target("routing.reliability_experiment"),
    Target("io.parse_graph"),
    Target("experiments.run_preset",
           label=lambda a, k: "experiments." + _arg(a, k, 0, "cfg").preset),
    Target("cli.main", label=lambda a, k: "cli." + _arg(a, k, 0, "argv")[0]),
]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _per(counter: str, scale: float):
    """Self time per unit of work, scaled to the metric's unit."""
    return lambda a, wall: _ratio(a["self_s"], a["counts"].get(counter, 0), scale)


def _share(counter: str):
    return lambda a, wall: _ratio(a["counts"].get(counter, 0), a["calls"])


# quantity -> (unit, better, value from (span aggregate, untraced wall of the label))
QUANTITIES = {
    "calls": ("count", "lower", lambda a, wall: a["calls"]),
    "self_s": ("s", "lower", lambda a, wall: a["self_s"]),
    "wall_s": ("s", "lower", lambda a, wall: wall),
    "steps": ("count", "lower", lambda a, wall: a["counts"].get("steps", 0)),
    "cuts": ("count", "lower", lambda a, wall: a["counts"].get("cuts", 0)),
    "trees": ("count", "lower", lambda a, wall: a["counts"].get("trees", 0)),
    "attempts": ("count", "lower",
                 lambda a, wall: a["children"].get("sampler.sequential_two_trees_bp", 0)),
    "ns_per_step": ("ns", "lower", _per("steps", 1e9)),
    "us_per_walk": ("us", "lower", _per("walks", 1e6)),
    "us_per_trial": ("us", "lower", _per("walks", 1e6)),
    "us_per_cut": ("us", "lower", _per("cuts", 1e6)),
    "us_per_pair": ("us", "lower", _per("pairs", 1e6)),
    "us_per_route": ("us", "lower", lambda a, wall: _ratio(a["self_s"], a["calls"], 1e6)),
    "ms_per_edge": ("ms", "lower", lambda a, wall: _ratio(a["self_s"], a["calls"], 1e3)),
    "stuck_frac": ("ratio", "lower", _share("stuck")),
    "success_frac": ("ratio", "higher", _share("success")),
    "delivered_frac": ("ratio", "higher", _share("delivered")),
    "table_mb": ("MB", "lower",
                 lambda a, wall: a["counts"].get("max_table_bytes", 0) / 2**20),
}

LAYERS = {
    "seeds.substream": ("calls", "self_s"),
    "sampler.aldous_broder": ("calls", "self_s", "steps", "ns_per_step"),
    "sampler.process_bp_on": ("calls", "self_s", "steps", "ns_per_step", "stuck_frac"),
    "sampler.sequential_two_trees_bp": ("calls", "self_s", "steps", "success_frac"),
    "verify.chernoff_tail_check": ("self_s", "us_per_walk"),
    "sampler.tree_edge_frequencies": ("self_s", "us_per_walk"),
    "splice.splice": ("calls", "self_s"),
    "splice.union_trees": ("calls", "self_s"),
    "splice.sparsify_gnp": ("calls", "attempts"),
    "cuts.sampled_cut_ratios": ("calls", "self_s", "cuts", "us_per_cut"),
    "cuts.sparsifier_quality": ("self_s",),
    "cuts.spectral_lower_bound": ("calls", "self_s"),
    "cuts.edge_expansion_exact": ("self_s",),
    "cuts.vertex_expansion_exact": ("calls", "self_s"),
    "routing.stretch_stats": ("calls", "self_s", "us_per_pair"),
    "routing.build_routing": ("calls", "self_s", "table_mb"),
    "routing.route": ("calls", "self_s", "us_per_route", "delivered_frac"),
    "routing.reliability_experiment": ("self_s",),
    "linalg.effective_resistance": ("calls", "self_s", "ms_per_edge"),
    "linalg.spanning_tree_count": ("calls", "self_s"),
    "verify.enumerate_trees": ("calls", "self_s", "trees"),
    "verify.negative_correlation_check": ("calls", "self_s"),
    "verify.coupling_distance_estimate": ("self_s", "us_per_trial"),
    "lowerbound.lower_bound_family": ("calls", "self_s"),
    "lowerbound.forced_cut_event": ("calls", "self_s"),
    "generators.complete_graph": ("calls", "self_s"),
    "generators.gnp_graph": ("calls", "self_s"),
    "generators.random_regular_graph": ("calls", "self_s"),
    "generators.direct_edges_dp": ("calls", "self_s"),
    "graph.cut_edges": ("calls", "self_s"),
    **{f"experiments.{p}": ("wall_s", "self_s") for p in PRESETS},
    "io.parse_graph": ("calls", "self_s"),
    **{f"cli.{c}": ("wall_s",) for c in CLI_COMMANDS},
}

METRICS = [
    (f"{layer}.{q}", *QUANTITIES[q][:2]) for layer, qs in LAYERS.items() for q in qs
]

# Reported by the traced run about itself, after the layer metrics.
TRACE_METRICS = [
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in report order."""
    return [{"name": n, "unit": u, "better": b} for n, u, b in METRICS + TRACE_METRICS]


def layer_values(agg: dict, op_walls: dict) -> dict:
    """Metric values from a span aggregate and the untraced per-operation walls."""
    return {
        f"{layer}.{q}": float(QUANTITIES[q][2](agg.get(layer, spans.EMPTY),
                                               op_walls.get(layer, 0.0)))
        for layer, qs in LAYERS.items()
        for q in qs
    }
