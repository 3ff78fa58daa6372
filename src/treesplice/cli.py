"""Command-line interface.

One process, subcommand style:

    treesplice generate | sample-tree | splice | sparsify | expansion |
               verify | route-sim | preset

Exit codes: 0 on success, 1 when an embedded assertion, a sampling step or
a numerical iteration (Lanczos for lambda_2) fails or memory runs out, 2 on
usage or input errors, including a file that cannot be read or written and
an option the command does not read (``--meta-out`` for a kind other than
lower-bound, ``--graph`` for the coupling check, ``--n`` or ``--p`` for a
graph check).  Each of these failures prints one line to stderr.

``generate`` and ``verify`` dispatch from one table each, kind or check ->
call.  Each check returns the JSON payload the CLI prints, less ``check``
and ``seed``: ``verify``'s uniformity, negative-correlation and tail-bound
checks and exact ``expansion`` take theirs from the library, and the
one-number checks (resistance, min-edge-prob, coupling) build theirs in
their table entry.  ``verify`` adds ``check`` and ``seed`` (``expansion``
the seed) and emits; of a report's fields it reads only the flags that
decide exit 1, negative-correlation's ``inclusion_ok`` and ``exclusion_ok``
and tail-bound's ``passed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import generators, io as gio
from .cuts import (
    EXACT_SCAN_MAX_N,
    edge_expansion_exact,
    spectral_lower_bounds,
    vertex_expansion_exact,
)
from .experiments import (
    ExperimentConfig,
    PRESETS,
    rows_csv,
    run_preset,
    summary_json,
)
from .graph import ConvergenceError, Graph, GraphFormatError, SamplingError
from .linalg import effective_resistances
from .lowerbound import lower_bound_family, validate_family
from .routing import reliability_experiment
from .sampler import aldous_broder, tree_edge_frequencies
from .seeds import substream
from .splice import sparsify_gnp, splice
from .verify import (
    chernoff_tail_check,
    coupling_distance_estimate,
    negative_correlation_check,
    uniformity_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return gio.parse_graph(fh.read())


def _emit(args, payload: dict, rows: list[dict]) -> None:
    if args.format == "csv":
        _write(args.out, rows_csv(rows))
    else:
        _write(args.out, summary_json(payload))


def _lower_bound(args) -> tuple[Graph, dict]:
    fam = lower_bound_family(args.n, args.d, args.ell, args.seed)
    validate_family(fam)
    meta = {
        "n": fam.n,
        "d": fam.d,
        "ell": fam.ell,
        "segments": [list(p) for p in fam.paths],
        "rings": [list(r) for r in fam.ring_cycles],
    }
    return fam.graph, meta


# kind -> (its graph, the metadata that --meta-out writes or None), from the
# parsed arguments
_GENERATORS = {
    "complete": lambda a: (generators.complete_graph(a.n), None),
    "gnp": lambda a: (generators.gnp_graph(a.n, a.p, a.seed), None),
    "regular": lambda a: (generators.random_regular_graph(a.n, a.d, a.seed), None),
    "cycle": lambda a: (generators.cycle_graph(a.n), None),
    "path": lambda a: (generators.path_graph(a.n), None),
    "petersen": lambda a: (generators.petersen_graph(), None),
    "wheel": lambda a: (generators.wheel_graph(a.n), None),
    "prism": lambda a: (generators.prism_graph(), None),
    "lower-bound": _lower_bound,
}


def _cmd_generate(args) -> int:
    graph, meta = _GENERATORS[args.kind](args)
    if meta is None and args.meta_out:
        raise ValueError(f"--meta-out is written for --kind lower-bound only, not {args.kind}")
    _write(args.out, gio.serialize_graph(graph))
    if args.meta_out:
        _write(args.meta_out, summary_json(meta))
    return EXIT_OK


def _cmd_sample_tree(args) -> int:
    g = _load_graph(args.graph)
    tree, trace = aldous_broder(g, args.seed, start=args.start)
    _write(args.out, gio.serialize_tree(tree))
    if args.trace_out:
        _write(args.trace_out, "\n".join(str(v) for v in trace.vertices.tolist()) + "\n")
    return EXIT_OK


def _cmd_splice(args) -> int:
    g = _load_graph(args.graph)
    _write(args.out, gio.serialize_graph(splice(g, args.k, args.seed)))
    return EXIT_OK


def _cmd_sparsify(args) -> int:
    g = _load_graph(args.graph)
    wg = sparsify_gnp(g, args.p, args.seed)
    _write(args.out, gio.serialize_weighted(wg))
    return EXIT_OK


def _cmd_expansion(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "exact":
        if g.n > EXACT_SCAN_MAX_N:
            raise ValueError(f"exact expansion is capped at n = {EXACT_SCAN_MAX_N}; "
                             "use --method spectral for an edge-expansion bound at this scale")
        report = (edge_expansion_exact if args.kind == "edge" else vertex_expansion_exact)(g)
    else:
        if args.kind != "edge":
            raise ValueError("the spectral certificate bounds edge expansion only; "
                             "use --method exact for --kind vertex")
        lam = float(spectral_lower_bounds([g])[0])
        report = {"kind": "edge", "method": "spectral-bound", "lambda2": lam, "value": lam / 2.0}
    payload = {**report, "seed": args.seed}
    _emit(args, payload, [payload])
    return EXIT_OK


def _graph(args) -> Graph:
    if args.graph is None:
        raise ValueError(f"--graph is required for the {args.check} check")
    return _load_graph(args.graph)


def _resistance(args) -> dict:
    g = _graph(args)
    freqs = tree_edge_frequencies(g, args.trials, args.seed)
    worst = float(np.abs(freqs - effective_resistances(g)).max(initial=0.0))
    return {"trials": args.trials, "max_abs_error": worst}


def _negative_correlation(args) -> dict:
    g = _graph(args)
    if g.m < 2:
        raise ValueError("the negative-correlation check needs at least 2 edges")
    pair = substream(args.seed, "pair-choice").choice(g.m, size=2, replace=False)
    return negative_correlation_check(g, pair.tolist(), args.trials, args.seed)


def _tail_bound(args) -> dict:
    g = _graph(args)
    cut = substream(args.seed, "cut-choice").choice(g.n, size=g.n // 2, replace=False)
    return chernoff_tail_check(g, [cut], args.trials, args.seed)


def _min_edge_prob(args) -> dict:
    freqs = tree_edge_frequencies(_graph(args), args.trials, args.seed)
    return {"trials": args.trials, "min_probability": float(freqs.min())}


def _coupling(args) -> dict:
    if args.n is None:
        raise ValueError("--n is required for the coupling check")
    p = args.p if args.p is not None else 1.0
    estimate = coupling_distance_estimate(args.n, p, args.trials, args.seed)
    return {"n": args.n, "p": p, "trials": args.trials, "estimate": estimate}


# check -> (its report from the parsed arguments, the report's flags that
# must all hold for exit 0)
_CHECKS = {
    "uniformity": (lambda a: uniformity_check(_graph(a), a.trials, a.seed), ()),
    "resistance": (_resistance, ()),
    "negative-correlation": (_negative_correlation, ("inclusion_ok", "exclusion_ok")),
    "tail-bound": (_tail_bound, ("passed",)),
    "min-edge-prob": (_min_edge_prob, ()),
    "coupling": (_coupling, ()),
}


def _cmd_verify(args) -> int:
    unread = ("--graph",) if args.check == "coupling" else ("--n", "--p")
    given = [flag for flag in unread if getattr(args, flag[2:]) is not None]
    if given:
        raise ValueError(f"the {args.check} check does not read {' or '.join(given)}")
    call, flags = _CHECKS[args.check]
    report = call(args)
    # A check with a verdict lists check and seed after its report's fields,
    # the others lead with check: that is the order of the CSV columns.
    lead = {} if flags else {"check": args.check}
    payload = {**lead, **report, "check": args.check, "seed": args.seed}
    _emit(args, payload, [payload])
    return EXIT_OK if all(report[f] for f in flags) else EXIT_FAIL


def _cmd_route_sim(args) -> int:
    g = _load_graph(args.graph)
    (summary,) = reliability_experiment(
        g, (args.k,), args.failure_prob, args.pairs, args.trials, args.seed
    )
    rows = summary.csv_rows(args.seed)
    payload = {
        "k": args.k,
        "failure_prob": args.failure_prob,
        "pairs": args.pairs,
        "trials": args.trials,
        "delivered_fraction": summary.delivered_fraction,
        "ceiling_fraction": summary.ceiling_fraction,
        "seed": args.seed,
    }
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_text(fh.read())
        if args.name and args.name != cfg.preset:
            raise ValueError("preset name conflicts with the config file")
    else:
        if not args.name:
            raise ValueError("name a preset or pass --config")
        cfg = ExperimentConfig(preset=args.name)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_json:
        cfg.out_json = args.out_json
    if args.out_csv:
        cfg.out_csv = args.out_csv
    summary, status = run_preset(cfg)
    if not cfg.out_json:
        sys.stdout.write(summary_json(summary))
    return status


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treesplice",
        description="Random spanning trees, splicers, and their experiments.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-")
        if fmt:  # only the commands that write JSON reports can write CSV instead
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("generate", help="write a graph as an edge list")
    p.add_argument(
        "--kind",
        required=True,
        choices=list(_GENERATORS),
    )
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--meta-out", default=None)
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample-tree", help="sample one uniform spanning tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--trace-out", default=None, help="also dump the walk trace")
    common(p)
    p.set_defaults(func=_cmd_sample_tree)

    p = sub.add_parser("splice", help="union of k random spanning trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("sparsify", help="two-tree weighted sparsifier")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("expansion", help="edge/vertex expansion reports")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=["edge", "vertex"], default="edge")
    p.add_argument("--method", choices=["exact", "spectral"], default="exact")
    common(p, fmt=True)
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("verify", help="distributional checks")
    p.add_argument(
        "--check",
        required=True,
        choices=list(_CHECKS),
    )
    p.add_argument("--graph")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--trials", type=int, default=100_000)
    common(p, fmt=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("route-sim", help="failure/reliability routing experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--failure-prob", type=float, default=0.05)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--trials", type=int, default=10)
    common(p, fmt=True)
    p.set_defaults(func=_cmd_route_sim)

    p = sub.add_parser("preset", help="run a named experiment preset")
    p.add_argument("name", nargs="?", help=f"one of: {', '.join(sorted(PRESETS))}")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.set_defaults(func=_cmd_preset)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SamplingError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
