"""Benchmark launcher: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload walk-mc --seed 1 --seconds 15 --trace 0

It times set-up in several fresh processes, then runs the workload in one
more (``worker.py``), with BLAS threads capped at ``nproc`` through that
child's environment.  Times are reported in reference seconds, scaled by a
reference loop timed all through each measurement (``speed.py``); the raw
times are in the full report.  It prints the environment record, each operation's
output digest, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full report is
also written to ``perfbench/.work/``.  Exits 2 without a result when the
checkout holds no package sources, and 1 when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 3            # set-up-only processes; the workload process adds one more
DEADLINE_S = 170            # whole run, inside the 180 s a run may take
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cap = nproc()
    for var in BLAS_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def git_revision() -> str:
    """HEAD's commit read from .git; a plain source checkout has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env: dict, versions: dict) -> dict:
    return dict(
        versions,
        nproc=nproc(),
        git_revision=git_revision(),
        blas_threads={var: env[var] for var in BLAS_VARS},
    )


def run_worker(args, env: dict, result: Path, deadline: float, setup_only: bool) -> dict:
    """Start one workload process, wait for it, and return its report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(WORK), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    result.unlink(missing_ok=True)
    refs_before = speed.samples()
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - started),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    report = json.loads(result.read_text())
    report["raw_setup_s"] = report["ready"] - started
    report["setup_s"] = speed.scaled(report["raw_setup_s"], refs_before + report["refs_after"])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "treesplice" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a non-negative integer", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = WORK / f"{tag}.json"
    try:
        probes = [
            run_worker(args, env, result, deadline, setup_only=True)
            for _ in range(SETUP_PROBES)
        ]
        report = run_worker(args, env, result, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        result.unlink(missing_ok=True)
    probes.append(report)
    setups = [p["setup_s"] for p in probes]

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = {
            spec["name"]: {"value": report["per_layer"][spec["name"]], "unit": spec["unit"]}
            for spec in layers.per_layer_spec()
        }
    else:
        values = {
            "wall_s": report["wall_s"],
            "cpu_s": report["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": report["ok_frac"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(env, report["versions"]),
        "setup_samples_s": setups, "raw_setup_samples_s": [p["raw_setup_s"] for p in probes],
        **{k: v for k, v in report.items()
           if k not in ("ready", "refs_after", "setup_s", "raw_setup_s")},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for op, digest in report["digests"].items():
        print(f"digest {op} {digest}")
    for f in report["failures"]:
        print("failure " + json.dumps(f), file=sys.stderr)
    if report.get("absent"):
        print("absent " + " ".join(report["absent"]))
    if report.get("hook_errors"):
        print("hook-errors " + json.dumps(report["hook_errors"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
