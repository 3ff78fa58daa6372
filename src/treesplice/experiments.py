"""Named, seeded experiment presets with machine-readable output.

Each preset binds generators, samplers, and checks for one headline claim,
runs its embedded assertions, and emits a JSON summary plus CSV detail.  All
randomness flows from the single config seed through named substreams, so any
sub-result is independently replayable.  Wall-clock facts live in a separate
"meta" field; everything else in the summary is byte-reproducible.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from .cuts import (
    EXACT_SCAN_MAX_N,
    sampled_cut_ratios,
    spectral_lower_bounds,
    sparsifier_quality,
    vertex_expansion_exact,
)
from .generators import complete_graph, gnp_graph, random_regular_graph
from .lowerbound import (
    forced_cut_events,
    forced_cut_probability_bound,
    lower_bound_family,
    validate_family,
)
from . import routing
from .routing import reliability_experiment, stretch_stats
from .sampler import aldous_broder, process_bp
from .seeds import child_seed, substream
from .splice import sparsify_gnp, splice, splice_gnp
from .verify import bernoulli_se, chernoff_tail_check, coupling_distance_estimate


_COUNT_FIELDS = ("n", "d", "k", "ell", "trials", "samples")
_INT_FIELDS = _COUNT_FIELDS + ("seed",)
_FLOAT_FIELDS = ("p", "failure_prob")


@dataclass
class ExperimentConfig:
    preset: str
    seed: int = 0
    n: int | None = None
    p: float | None = None
    d: int | None = None
    k: int | None = None
    ell: int | None = None
    trials: int | None = None
    samples: int | None = None
    failure_prob: float | None = None
    out_json: str | None = None
    out_csv: str | None = None

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            kind = int if key in _INT_FIELDS else float if key in _FLOAT_FIELDS else str
            try:
                values[key] = kind(val)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad {kind.__name__} value {val!r} for {key}"
                ) from None
        if "preset" not in values:
            raise ValueError("config must name a preset")
        return cls(**values)


def _ge(name, value, bound, se=None) -> dict:
    """One summary assertion, value >= bound, with its standard error if given."""
    out = {"name": name, "passed": bool(value >= bound), "value": float(value),
           "bound": float(bound), "direction": ">="}
    if se is not None:
        out["std_error"] = se
    return out


def _le(name, value, bound) -> dict:
    return {"name": name, "passed": bool(value <= bound), "value": float(value),
            "bound": float(bound), "direction": "<="}


def _regular_host(n: int, d: int, seed: int, *path):
    """A random d-regular host, redrawn once under "graph-retry" if disconnected."""
    g = random_regular_graph(n, d, child_seed(seed, "graph", *path))
    if not g.is_connected():
        g = random_regular_graph(n, d, child_seed(seed, "graph-retry", *path))
    return g


def _run_bounded_degree(cfg: ExperimentConfig):
    n, d = cfg.n, cfg.d
    alpha = 81.0
    bound = 1.0 / (alpha * math.log(n))
    rows = []
    worst = math.inf
    for s in range(cfg.trials):
        g = _regular_host(n, d, cfg.seed, s)
        u = splice(g, cfg.k, child_seed(cfg.seed, "splice", s))
        ratios = sampled_cut_ratios(g, u, cfg.samples, child_seed(cfg.seed, "cuts", s))
        m = float(ratios.min())
        worst = min(worst, m)
        rows.append({"seed_index": s, "min_ratio": m, "cuts": len(ratios)})
    assertions = [_ge("min cut ratio across seeds", worst, bound)]
    return assertions, rows, {"alpha": alpha, "bound": bound}


def _run_lower_bound(cfg: ExperimentConfig):
    fam = lower_bound_family(cfg.n, cfg.d, cfg.ell, child_seed(cfg.seed, "family"))
    validate_family(fam)
    start = fam.start_vertex()
    bound = forced_cut_probability_bound(cfg.d, cfg.ell)
    paths = len(fam.paths)
    trees_needed = cfg.trials or -(-cfg.samples // paths)
    hits = 0
    total = 0
    rows = []
    for t in range(trees_needed):
        _tree, trace = aldous_broder(
            fam.graph, child_seed(cfg.seed, "tree", t), start=start
        )
        tree_hits = int(forced_cut_events(fam, trace).sum())
        hits += tree_hits
        total += paths
        rows.append({"tree": t, "events": tree_hits, "paths": paths})
    rate = hits / total
    se = bernoulli_se(rate, total)
    assertions = [
        _ge("structural invariants hold", 1.0, 1.0),
        _ge("forced-cut event rate", rate, bound - 4.0 * se, se),
    ]
    return assertions, rows, {
        "segments": paths,
        "trees": trees_needed,
        "observations": total,
        "event_bound": bound,
    }


def _run_complete_graph(cfg: ExperimentConfig):
    n, k, seeds = cfg.n, cfg.k, cfg.trials
    if n > EXACT_SCAN_MAX_N:
        raise ValueError(
            f"thm-complete-graph scans every cut exactly, so its n is capped at "
            f"{EXACT_SCAN_MAX_N} (got n = {n})"
        )
    rows = []
    good = 0
    for s in range(seeds):
        value = vertex_expansion_exact(splice(n, k, child_seed(cfg.seed, "splice", s)))["value"]
        ok = value >= 0.5
        good += ok
        rows.append(
            {
                "kind": "exact-vertex-expansion",
                "n": n,
                "seed_index": s,
                "value": value,
                "passed": int(ok),
            }
        )
    rate = good / seeds
    assertions = [
        _ge(
            "vertex expansion >= 1/2 seed fraction",
            rate,
            0.95,
            bernoulli_se(rate, seeds),
        )
    ]
    ladder = [n * 8, n * 16, n * 32, n * 64]
    means = []
    lam_min = math.inf
    for size in ladder:
        vals = spectral_lower_bounds(
            [
                splice(size, k, child_seed(cfg.seed, "spectral", size, s))
                for s in range(cfg.samples)
            ]
        ).tolist()
        for s, lam in enumerate(vals):
            lam_min = min(lam_min, lam)
            rows.append(
                {
                    "kind": "lambda2",
                    "n": size,
                    "seed_index": s,
                    "value": lam,
                    "passed": int(lam >= 0.15),
                }
            )
        means.append(float(np.mean(vals)))
    assertions.append(_ge("min lambda2 across ladder", lam_min, 0.15))
    assertions.append(
        _ge("lambda2 trend (last mean / first mean)", means[-1] / means[0], 0.8)
    )
    return assertions, rows, {"ladder": ladder, "ladder_means": means}


def _run_random_graph(cfg: ExperimentConfig):
    n, runs = cfg.n, cfg.trials
    p = cfg.p if cfg.p is not None else min(20.0 * math.log(n) / n, 1.0)
    successes = 0
    rows = []
    for t in range(runs):
        host = gnp_graph(n, p, child_seed(cfg.seed, "host", t))
        res = process_bp(host, p, child_seed(cfg.seed, "walk", t), phases=2)
        successes += res.success
        rows.append({"kind": "two-tree-run", "index": t, "success": int(res.success)})
    rate = successes / runs
    assertions = [
        _ge("two-tree success rate", rate, 0.9, bernoulli_se(rate, runs))
    ]
    tv = coupling_distance_estimate(6, 1.0, cfg.samples, child_seed(cfg.seed, "tv"))
    assertions.append(_le("tree distribution TV at n=6, p=1", tv, 0.02))
    rows.append({"kind": "tv", "index": 0, "success": tv})
    unions = [
        splice_gnp(
            gnp_graph(n, p, child_seed(cfg.seed, "lam-host", s)),
            p,
            child_seed(cfg.seed, "lam-walk", s),
        )
        for s in range(min(20, runs))
    ]
    lams = spectral_lower_bounds(unions).tolist()
    for s, lam in enumerate(lams):
        rows.append({"kind": "lambda2", "index": s, "success": lam})
    assertions.append(_ge("min lambda2 of two-tree unions", min(lams), 0.15))
    return assertions, rows, {"p": p, "tv_trials": cfg.samples}


def _run_sparsifier(cfg: ExperimentConfig):
    n = cfg.n
    p = cfg.p if cfg.p is not None else min(10.0 * math.log(n) / n, 1.0)
    rows = []
    c_low_all = math.inf
    c_high_all = 0.0
    size_ok = True
    for s in range(cfg.trials):
        host = gnp_graph(n, p, child_seed(cfg.seed, "host", s))
        wg = sparsify_gnp(host, p, child_seed(cfg.seed, "sparsify", s))
        c_low, c_high = sparsifier_quality(
            host, wg, cfg.samples, child_seed(cfg.seed, "cuts", s)
        )
        size_ok = size_ok and wg.graph.m <= 2 * (n - 1)
        c_low_all = min(c_low_all, c_low)
        c_high_all = max(c_high_all, c_high)
        rows.append(
            {"seed_index": s, "c_low": c_low, "c_high": c_high, "edges": wg.graph.m}
        )
    assertions = [
        _ge("min cut-weight ratio (c_low band)", c_low_all, 0.05),
        _le("max log-normalized ratio (c_high band)", c_high_all, 50.0),
        _ge("support size <= 2(n-1) in all seeds", float(size_ok), 1.0),
    ]
    return assertions, rows, {"p": p}


def _run_tail_bound(cfg: ExperimentConfig):
    n, d, trials = cfg.n, cfg.d, cfg.trials
    g = _regular_host(n, d, cfg.seed)
    pick = substream(cfg.seed, "cuts")
    subsets = [pick.choice(n, size=n // 2, replace=False) for _ in range(cfg.samples)]
    rep = chernoff_tail_check(g, subsets, trials, child_seed(cfg.seed, "tail", 0))
    rows = [
        {"cut": c, "lambda": lam, "empirical": emp, "bound": bnd, "std_error": se}
        for c in range(cfg.samples)
        for lam, emp, bnd, se in zip(
            rep["lambdas"][c].tolist(), rep["empirical"][c].tolist(),
            rep["bounds"][c].tolist(), rep["std_errors"][c].tolist(),
        )
    ]
    assertions = [_ge("tail bound holds on all cuts", float(rep["passed"]), 1.0)]
    return assertions, rows, {"trials": trials, "cuts": cfg.samples}


def _run_stretch(cfg: ExperimentConfig):
    n, pairs = cfg.n, cfg.samples
    if n > routing.DIAMETER_MAX_N:
        raise ValueError(
            f"stretch-diameter measures exact diameters up to n = {routing.DIAMETER_MAX_N}"
        )
    small = max(n // 4, 8)
    diameter_cap = 4.0 * math.log2(n)
    rows = []
    big_stretches = []
    small_stretches = []
    dia_max = 0
    for s in range(cfg.trials):
        one = splice(n, 1, child_seed(cfg.seed, "one-tree", n, s))
        ms, _ = stretch_stats(n, one, pairs, child_seed(cfg.seed, "pairs", n, s))
        big_stretches.append(ms)
        rows.append({"kind": "single-tree-stretch", "n": n, "seed_index": s, "value": ms})
        one_s = splice(small, 1, child_seed(cfg.seed, "one-tree", small, s))
        ms_s, _ = stretch_stats(small, one_s, pairs, child_seed(cfg.seed, "pairs", small, s))
        small_stretches.append(ms_s)
        rows.append(
            {"kind": "single-tree-stretch", "n": small, "seed_index": s, "value": ms_s}
        )
        two = splice(n, 2, child_seed(cfg.seed, "two-tree", s))
        _, dia = stretch_stats(n, two, pairs, child_seed(cfg.seed, "dia-pairs", s))
        dia_max = max(dia_max, int(dia))
        rows.append({"kind": "two-splicer-diameter", "n": n, "seed_index": s, "value": dia})
    ratio = float(np.mean(big_stretches)) / float(np.mean(small_stretches))
    assertions = [
        _ge("stretch growth ratio lower", ratio, 1.6),
        _le("stretch growth ratio upper", ratio, 2.4),
        _le("two-splicer diameter", float(dia_max), diameter_cap),
    ]
    return assertions, rows, {"small_n": small, "ratio": ratio}


def _run_routing(cfg: ExperimentConfig):
    k = cfg.k
    g = complete_graph(cfg.n)
    args = (cfg.failure_prob, cfg.samples, cfg.trials, child_seed(cfg.seed, "routes"))
    base, multi = reliability_experiment(g, (1, k), *args)
    ceiling_ok = all((s.delivered <= s.ceiling + 1e-12).all() for s in (base, multi))
    gain = multi.delivered_fraction - base.delivered_fraction
    assertions = [
        _ge(f"delivery gain of k={k} over k=1", gain, 0.05),
        _ge("delivery never exceeds ceiling", float(ceiling_ok), 1.0),
    ]
    rows = [dict(r, k=1) for r in base.csv_rows(cfg.seed)] + [
        dict(r, k=k) for r in multi.csv_rows(cfg.seed)
    ]
    return assertions, rows, {
        "delivery_k1": base.delivered_fraction,
        f"delivery_k{k}": multi.delivered_fraction,
    }


# Per preset, its runner and the default of every config key the runner reads;
# None marks a value the runner derives when it is unset (p from n, and
# thm-lower-bound's tree count, trials, from its observation target, samples).
PRESETS = {
    "thm-bounded-degree": (
        _run_bounded_degree, dict(n=256, d=3, k=2, trials=20, samples=10_000)
    ),
    "thm-lower-bound": (
        _run_lower_bound, dict(n=3000, d=3, ell=1, trials=None, samples=100_000)
    ),
    "thm-complete-graph": (_run_complete_graph, dict(n=16, k=2, trials=100, samples=20)),
    "thm-random-graph": (
        _run_random_graph, dict(n=1024, p=None, trials=100, samples=1_000_000)
    ),
    "thm-sparsifier": (_run_sparsifier, dict(n=1000, p=None, trials=20, samples=10_000)),
    "thm-tail-bound": (_run_tail_bound, dict(n=64, d=3, trials=100_000, samples=10)),
    "stretch-diameter": (_run_stretch, dict(n=1024, trials=20, samples=2000)),
    "routing-reliability": (
        _run_routing, dict(n=256, k=2, failure_prob=0.05, trials=50, samples=200)
    ),
}


def _plain(obj):
    """Recursively turn numpy arrays into lists and strip numpy scalar types,
    for stable JSON/CSV text."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def summary_json(summary: dict) -> str:
    return json.dumps(_plain(summary), sort_keys=True, indent=2) + "\n"


def strip_meta(summary_text: str) -> str:
    """Summary bytes with the wall-clock meta field removed, for comparisons."""
    data = json.loads(summary_text)
    data.pop("meta", None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def rows_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: (repr(v) if isinstance(v, float) else v)
                for k, v in _plain(row).items()
            }
        )
    return buf.getvalue()


def run_preset(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Run a preset; returns (summary, exit status).

    Status 0 when every embedded assertion passes, 1 otherwise.  An unknown
    preset, a key the preset does not read, or a count field (n, d, k, ell,
    trials, samples) below 1 raises ValueError (a usage error).  Unset keys
    take the preset's defaults, and the summary's ``parameters`` lists every
    key the preset reads at its resolved value (null where the runner derives
    it; the derived value is under ``derived``).  Writes the JSON summary and
    CSV detail when the config names output paths.
    """
    if cfg.preset not in PRESETS:
        raise ValueError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    runner, defaults = PRESETS[cfg.preset]
    given = {
        key: val for key, val in vars(cfg).items()
        if val is not None and key not in ("preset", "seed", "out_json", "out_csv")
    }
    unread = sorted(set(given) - set(defaults))
    if unread:
        raise ValueError(
            f"preset {cfg.preset} does not read {', '.join(unread)}; "
            f"it reads {', '.join(defaults)}"
        )
    for key in _COUNT_FIELDS:
        if key in given and given[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {given[key]}")
    params = {**defaults, **given}
    t0 = time.time()
    assertions, rows, extra = runner(replace(cfg, **params))
    passed = all(a["passed"] for a in assertions)
    summary = {
        "preset": cfg.preset,
        "seed": cfg.seed,
        "parameters": params,
        "derived": extra,
        "assertions": assertions,
        "passed": passed,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "duration_s": round(time.time() - t0, 3),
        },
    }
    if cfg.out_json:
        with open(cfg.out_json, "w", encoding="utf-8") as fh:
            fh.write(summary_json(summary))
    if cfg.out_csv:
        with open(cfg.out_csv, "w", encoding="utf-8") as fh:
            fh.write(rows_csv(rows))
    return summary, 0 if passed else 1
