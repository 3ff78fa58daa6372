"""Command-line interface.

One process, subcommand style:

    treesplice generate | sample-tree | splice | sparsify | expansion |
               verify | route-sim | preset

Exit codes: 0 on success, 1 when an embedded assertion, a sampling step or
a numerical iteration (Lanczos for lambda_2) fails or memory runs out, 2 on
usage or input errors, including a file that cannot be read or written.
Each of these failures prints one line to stderr.
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
from .routing import reliability_experiment
from .sampler import aldous_broder, tree_edge_frequencies
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


def _emit(args, payload: dict, rows: list[dict] | None = None) -> None:
    if args.format == "csv" and rows is not None:
        _write(args.out, rows_csv(rows))
    else:
        _write(args.out, summary_json(payload))


def _cmd_generate(args) -> int:
    kind = args.kind
    if kind == "complete":
        g = generators.complete_graph(args.n)
    elif kind == "gnp":
        g = generators.gnp_graph(args.n, args.p, args.seed)
    elif kind == "regular":
        g = generators.random_regular_graph(args.n, args.d, args.seed)
    elif kind == "cycle":
        g = generators.cycle_graph(args.n)
    elif kind == "path":
        g = generators.path_graph(args.n)
    elif kind == "petersen":
        g = generators.petersen_graph()
    elif kind == "wheel":
        g = generators.wheel_graph(args.n)
    elif kind == "prism":
        g = generators.prism_graph()
    elif kind == "lower-bound":
        from .lowerbound import lower_bound_family, validate_family

        fam = lower_bound_family(args.n, args.d, args.ell, args.seed)
        validate_family(fam)
        _write(args.out, gio.serialize_graph(fam.graph))
        if args.meta_out:
            meta = {
                "n": fam.n,
                "d": fam.d,
                "ell": fam.ell,
                "segments": [list(p) for p in fam.paths],
                "rings": [list(r) for r in fam.ring_cycles],
            }
            _write(args.meta_out, summary_json(meta))
        return EXIT_OK
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind}")
    _write(args.out, gio.serialize_graph(g))
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
        rep = (edge_expansion_exact if args.kind == "edge" else vertex_expansion_exact)(g)
        payload = rep.to_dict()
        payload["seed"] = args.seed
    else:
        if args.kind != "edge":
            raise ValueError("the spectral certificate bounds edge expansion only; "
                             "use --method exact for --kind vertex")
        lam = float(spectral_lower_bounds([g])[0])
        payload = {
            "kind": "edge",
            "method": "spectral-bound",
            "lambda2": lam,
            "value": lam / 2.0,
            "seed": args.seed,
        }
    _emit(args, payload, rows=[payload])
    return EXIT_OK


def _cmd_verify(args) -> int:
    check = args.check
    if check == "coupling":
        if args.n is None:
            raise ValueError("--n is required for the coupling check")
        p = args.p if args.p is not None else 1.0
        est = coupling_distance_estimate(args.n, p, args.trials, args.seed)
        payload = {
            "check": check,
            "n": args.n,
            "p": p,
            "trials": args.trials,
            "estimate": est,
            "seed": args.seed,
        }
        _emit(args, payload, rows=[payload])
        return EXIT_OK
    if args.graph is None:
        raise ValueError(f"--graph is required for the {check} check")
    g = _load_graph(args.graph)
    if check == "uniformity":
        rep = uniformity_check(g, args.trials, args.seed)
        payload = {"check": check, **rep, "seed": args.seed}
        _emit(args, payload, rows=[payload])
        return EXIT_OK
    if check == "resistance":
        from .linalg import effective_resistances

        freqs = tree_edge_frequencies(g, args.trials, args.seed)
        worst = float(np.abs(freqs - effective_resistances(g)).max(initial=0.0))
        payload = {
            "check": check,
            "trials": args.trials,
            "max_abs_error": worst,
            "seed": args.seed,
        }
        _emit(args, payload, rows=[payload])
        return EXIT_OK
    if check == "negative-correlation":
        from .seeds import substream

        if g.m < 2:
            raise ValueError("the negative-correlation check needs at least 2 edges")
        rng = substream(args.seed, "pair-choice")
        e1, e2 = (int(x) for x in rng.choice(g.m, size=2, replace=False))
        rep = negative_correlation_check(g, [e1, e2], args.trials, args.seed)
        payload = dict(rep.to_dict(), check=check, seed=args.seed)
        _emit(args, payload, rows=[payload])
        return EXIT_OK if rep.inclusion_ok and rep.exclusion_ok else EXIT_FAIL
    if check == "tail-bound":
        from .seeds import substream

        rng = substream(args.seed, "cut-choice")
        subset = np.sort(rng.choice(g.n, size=g.n // 2, replace=False)).tolist()
        rep = chernoff_tail_check(g, [subset], args.trials, args.seed)
        payload = dict(rep.to_dict(), check=check, seed=args.seed)
        _emit(args, payload, rows=[payload])
        return EXIT_OK if rep.passed else EXIT_FAIL
    if check == "min-edge-prob":
        val = float(tree_edge_frequencies(g, args.trials, args.seed).min())
        payload = {
            "check": check,
            "trials": args.trials,
            "min_probability": val,
            "seed": args.seed,
        }
        _emit(args, payload, rows=[payload])
        return EXIT_OK
    raise ValueError(f"unknown check {check!r}")


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
    _emit(args, payload, rows=rows)
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
        choices=[
            "complete", "gnp", "regular", "cycle", "path",
            "petersen", "wheel", "prism", "lower-bound",
        ],
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
        choices=[
            "uniformity", "resistance", "negative-correlation",
            "tail-bound", "min-edge-prob", "coupling",
        ],
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
