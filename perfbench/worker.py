"""The workload process: set up, run rounds of a workload's operations, report.

Started by ``run.py`` with the package sources on ``PYTHONPATH``.  Set-up is
everything before the first timed call: imports and the workload's own
inputs.  With ``--setup-only`` the process stops there and reports when it
was ready, so the launcher can time set-up several times.

Untraced mode repeats the workload round after round until ``--seconds``
have passed and reports the median round, in reference seconds (see
``speed.py``).  Traced mode runs one warm-up round, then repeats pairs of an
untraced round and a traced round, and reports per-layer metrics as medians
over the pairs.  Every round must reproduce the pinned outcomes and the same
output digests; tracing must not change them.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import treesplice  # noqa: F401  (set-up cost: the package and its imports)
import treesplice.cli  # noqa: F401

import layers
import spans
import speed
import workloads


def run_round(ops: list, failures: list, tag: dict, sampler: speed.Sampler) -> dict:
    """One pass over the ops while ``sampler`` times the reference loop.

    Returns the ops' wall and CPU seconds scaled to the reference speed
    (``wall_s``, ``cpu_s``) and raw (``raw_wall_s``, ``raw_cpu_s``), the
    digest per op, and the scaled wall per per-layer label.  Each op that
    raises or departs from its pinned outcome adds one entry, marked with
    ``tag``, to ``failures``.
    """
    out = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0,
           "digests": {}, "walls": {}}
    for op in ops:
        sampler.drain()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception:  # the op is counted as failed and the run goes on
            failures.append(dict(tag, op=op.name, error=traceback.format_exc(limit=4)))
            result = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        samples = sampler.drain()
        in_loop = sum(samples)
        samples = samples or [speed.reference_s()]
        wall_ref = speed.scaled(wall - in_loop, samples)
        out["raw_wall_s"] += wall
        out["raw_cpu_s"] += cpu
        out["wall_s"] += wall_ref
        out["cpu_s"] += speed.scaled(cpu - in_loop, samples)
        out["walls"][op.label] = out["walls"].get(op.label, 0.0) + wall_ref
        if result is None:
            out["digests"][op.name] = None
            continue
        bad = op.mismatches(result)
        if bad:
            failures.append(dict(tag, op=op.name, mismatch=bad))
        out["digests"][op.name] = result.digest
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
        ops = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        ready = time.monotonic()
        if args.setup_only:
            Path(args.result).write_text(
                json.dumps({"ready": ready, "refs_after": speed.samples()})
            )
            return 0
        refs_after = speed.samples()
        report = measure(ops, args.seconds, args.trace == 1)
    report["ready"] = ready
    report["refs_after"] = refs_after
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(report))
    return 0


TIMES = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")


def run_one(ops: list, failures: list, i: int, traced: bool, sampler) -> dict:
    """Round ``i``: untraced, then (in traced mode) traced with its layer metrics."""
    entry = run_round(ops, failures, {"round": i, "pass": "untraced"}, sampler)
    if traced:
        tracer = spans.Tracer()
        tracer.install(layers.TARGETS)
        try:
            entry["traced"] = run_round(ops, failures, {"round": i, "pass": "traced"}, sampler)
        finally:
            tracer.uninstall()
        entry.update(
            layers=layers.layer_values(spans.aggregate(tracer.spans), entry["walls"]),
            spans=len(tracer.spans),
            absent=tracer.absent,
            hook_errors=tracer.hook_errors,
        )
    return entry


def measure(ops: list, seconds: float, traced: bool) -> dict:
    failures: list = []
    rounds: list = []
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        if traced:
            # Cold caches and lazy imports would otherwise land on the first
            # untraced round and hide the tracing overhead.
            warm = run_round(ops, failures, {"round": -1, "pass": "warm-up"}, sampler)
        while True:
            rounds.append(run_one(ops, failures, len(rounds), traced, sampler))
            if time.perf_counter() - start >= seconds:
                break

    # Same code and seed must give the same outputs in every round, traced or not.
    first = rounds[0]["digests"]
    passes = [(i, "untraced", r["digests"]) for i, r in enumerate(rounds)]
    if traced:
        passes += [(i, "traced", r["traced"]["digests"]) for i, r in enumerate(rounds)]
        passes.append((-1, "warm-up", warm["digests"]))
    for i, pass_, digests in passes:
        for op, digest in digests.items():
            if digest != first[op]:
                failures.append(
                    {"round": i, "pass": pass_, "op": op,
                     "mismatch": [f"digest {digest} differs from round 0 ({first[op]})"]}
                )
    attempted = (len(rounds) * 2 + 1 if traced else len(rounds)) * len(ops)
    failed = len({(f["round"], f["pass"], f["op"]) for f in failures})
    report = {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "ok_frac": (attempted - failed) / attempted,
        "failures": failures,
        "digests": first,
        "pinned": {
            op.name: {"status": op.expect_status, "assertions": op.expect_assertions,
                      "reasons": op.reasons}
            for op in ops
        },
    }
    for key in TIMES:
        report[f"round_{key}"] = [r[key] for r in rounds]
        report[key] = statistics.median(r[key] for r in rounds)
    if traced:
        per_layer = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name in rounds[0]["layers"]
        }
        untraced = report["wall_s"]
        traced_wall = statistics.median(r["traced"]["wall_s"] for r in rounds)
        per_layer.update({
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced,
            "trace.overhead_frac": (traced_wall - untraced) / untraced,
            "trace.spans": statistics.median(r["spans"] for r in rounds),
        })
        report["per_layer"] = per_layer
        report["absent"] = rounds[0]["absent"]
        report["hook_errors"] = rounds[0]["hook_errors"]
    return report


if __name__ == "__main__":
    sys.exit(main())
