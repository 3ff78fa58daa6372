"""Tests of the benchmark's own arithmetic: spans, failure counting, absent names.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    a = tr.open("a")              # a: 0..10
    clock.now = 1
    b = tr.open("b")              # b: 1..4, inside a
    clock.now = 2
    c = tr.open("c")              # c: 2..3, inside b
    clock.now = 3
    tr.close(c)
    clock.now = 4
    tr.close(b)
    clock.now = 5
    d = tr.open("b")              # second b: 5..7, inside a
    clock.now = 7
    tr.close(d)
    clock.now = 10
    tr.close(a)
    assert spans.self_times(tr.spans) == [5.0, 2.0, 1.0, 2.0]
    agg = spans.aggregate(tr.spans)
    assert agg["a"]["calls"] == 1 and agg["a"]["self_s"] == 5.0
    assert agg["b"]["calls"] == 2 and agg["b"]["self_s"] == 4.0
    assert agg["a"]["children"] == {"b": 2}
    assert agg["b"]["children"] == {"c": 1}


def test_self_time_clips_overlapping_children():
    # [name, parent, start, end, counts]: children overlap each other and
    # run past the parent; only the covered part of the parent counts.
    recs = [
        ["p", -1, 0.0, 10.0, {}],
        ["x", 0, 2.0, 6.0, {}],
        ["y", 0, 4.0, 12.0, {}],
    ]
    assert spans.self_times(recs)[0] == pytest.approx(2.0)


def test_wrapped_calls_nest_and_count():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def inner(x):
        clock.now += 1
        return x * 2

    def outer(x):
        clock.now += 2
        return w_inner(x) + 1

    w_inner = tr.wrap(spans.Target("m.inner", count=lambda a, k, r: {"units": a[0]}), inner)
    w_outer = tr.wrap(spans.Target("m.outer"), outer)
    assert w_outer(3) == 7
    agg = spans.aggregate(tr.spans)
    assert agg["m.outer"]["self_s"] == 2.0
    assert agg["m.inner"]["self_s"] == 1.0
    assert agg["m.inner"]["counts"] == {"units": 3}


def test_hook_errors_are_reported_not_raised():
    tr = spans.Tracer()
    wrapped = tr.wrap(spans.Target("m.f", count=lambda a, k, r: {"n": r.missing}), lambda: 5)
    assert wrapped() == 5
    assert tr.hook_errors == {"m.f": 1}


def test_absent_names_are_listed_and_present_ones_rebound():
    def f():
        return "real"

    home = types.ModuleType("treesplice.fake")
    home.f = f
    user = types.ModuleType("treesplice.user")
    user.alias = f                     # as after ``from .fake import f as alias``
    modules = {"treesplice.fake": home, "treesplice.user": user}
    tr = spans.Tracer()
    tr.install([spans.Target("fake.f"), spans.Target("fake.gone"),
                spans.Target("nomodule.g")], modules)
    assert tr.absent == ["fake.gone", "nomodule.g"]
    assert home.f is not f and user.alias is not f
    assert user.alias() == "real"
    assert [s[spans.NAME] for s in tr.spans] == ["fake.f"]
    tr.uninstall()
    assert home.f is f and user.alias is f


def test_absent_function_reads_zero_in_every_metric():
    values = layers.layer_values({}, {})
    assert set(values) == {m[0] for m in layers.METRICS}
    assert all(v == 0.0 for v in values.values())


def _op(name, run_fn, status=0, assertions=None):
    return Op(name, f"experiments.{name}", run_fn, status, assertions or {})


def test_failed_operations_are_counted_and_the_run_goes_on():
    good = _op("good", lambda: Outcome(0, {"a": True}, {"c": True}, "d1"), 0, {"a": True})

    def boom():
        raise RuntimeError("eigenvalue iteration did not converge")

    raising = _op("raising", boom)
    wrong_status = _op("wrong-status", lambda: Outcome(1, {}, {}, "d2"))
    failed_check = _op("failed-check", lambda: Outcome(0, {}, {"c": False}, "d3"))
    report = worker.measure([good, raising, wrong_status, failed_check], 0.0, traced=False)
    assert report["attempted"] == 4
    assert report["failed"] == 3
    assert report["ok_frac"] == pytest.approx(0.25)
    assert {f["op"] for f in report["failures"]} == {"raising", "wrong-status", "failed-check"}


def test_output_that_changes_under_tracing_is_a_failure():
    calls = []

    def drifting():
        calls.append(1)
        return Outcome(0, {}, {}, f"digest-{len(calls)}")

    report = worker.measure([_op("drift", drifting)], 0.0, traced=True)
    assert report["attempted"] == 3          # warm-up, untraced and traced passes
    assert report["failed"] == 2
    assert {f["pass"] for f in report["failures"]} == {"traced", "warm-up"}
    assert report["per_layer"]["trace.spans"] == 0


def test_scaled_time_is_relative_to_the_reference_loop():
    nominal = speed.NOMINAL_S
    assert speed.scaled(3.0, [nominal, nominal]) == pytest.approx(3.0)
    # The loop ran at half speed on average across the op: half the time.
    assert speed.scaled(3.0, [1.5 * nominal, 2.5 * nominal]) == pytest.approx(1.5)


def test_sampler_times_the_loop_while_active_and_then_stops():
    with speed.Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        samples = sampler.drain()
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    time.sleep(0.03)
    assert sampler.drain() == []


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_false_assertion_has_a_reason(name, tmp_path):
    for op in workloads.WORKLOADS[name](1, tmp_path):
        expected_false = {a for a, ok in op.expect_assertions.items() if not ok}
        assert expected_false == set(op.reasons), op.name
        assert op.expect_status == (1 if expected_false else 0), op.name


def test_own_inputs_are_simple_connected_regular_graphs():
    edges = inputs.regular_edges(24, 3, np.random.default_rng([5, 24]))
    again = inputs.regular_edges(24, 3, np.random.default_rng([5, 24]))
    assert np.array_equal(edges, again)
    assert len(edges) == 36 and (edges[:, 0] < edges[:, 1]).all()
    assert len({tuple(e) for e in edges.tolist()}) == 36
    assert (np.bincount(edges.ravel(), minlength=24) == 3).all()
    assert inputs.is_connected(24, edges)
    assert len(inputs.petersen_edges()) == 15 and len(inputs.wheel_edges(11)) == 20


def test_witness_ratio_on_a_cycle():
    cycle = np.array([(i, (i + 1) % 6) for i in range(6)])
    cycle = np.sort(cycle, axis=1)
    assert inputs.witness_ratio(6, cycle, [0, 1, 2], "edge") == pytest.approx(2 / 3)
    assert inputs.witness_ratio(6, cycle, [0, 1, 2], "vertex") == pytest.approx(2 / 3)
    assert inputs.witness_ratio(6, cycle, [0, 2], "vertex") == pytest.approx(3 / 2)
