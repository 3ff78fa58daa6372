import hashlib
import json

import pytest

from treesplice.experiments import (
    ExperimentConfig,
    PRESETS,
    rows_csv,
    run_preset,
    strip_meta,
    summary_json,
)


def test_config_text_roundtrip_bit_faithful():
    cfg = ExperimentConfig(
        preset="thm-tail-bound",
        seed=7,
        n=32,
        p=0.12345678901234567,
        trials=5000,
        samples=2,
        out_json="x.json",
    )
    text = (
        "preset=thm-tail-bound\nseed=7\nn=32\np=0.12345678901234567\n"
        "trials=5000\nsamples=2\nout_json=x.json\n"
    )
    assert ExperimentConfig.from_text(text) == cfg


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError, match="unknown key"):
        ExperimentConfig.from_text("preset=thm-tail-bound\nbogus=3\n")
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig.from_text("preset=thm-tail-bound\nseed=1\nseed=2\n")
    with pytest.raises(ValueError, match="preset"):
        ExperimentConfig.from_text("seed=1\n")
    with pytest.raises(ValueError, match="key=value"):
        ExperimentConfig.from_text("preset thm-tail-bound\n")


def test_config_ignores_comments_and_blanks():
    cfg = ExperimentConfig.from_text("# comment\n\npreset=thm-tail-bound\nseed=3\n")
    assert cfg.preset == "thm-tail-bound"
    assert cfg.seed == 3


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset(ExperimentConfig(preset="nope"))


def test_preset_writes_outputs_and_status(tmp_path):
    out_json = tmp_path / "summary.json"
    out_csv = tmp_path / "detail.csv"
    cfg = ExperimentConfig(
        preset="thm-tail-bound",
        seed=5,
        n=32,
        trials=20_000,
        samples=2,
        out_json=str(out_json),
        out_csv=str(out_csv),
    )
    summary, status = run_preset(cfg)
    assert status == 0
    assert summary["passed"] is True
    data = json.loads(out_json.read_text())
    assert data["preset"] == "thm-tail-bound"
    assert data["seed"] == 5
    assert "timestamp" in data["meta"]
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("cut,lambda,empirical")
    assert len(lines) == 1 + 2 * 4  # header + 2 cuts x 4 grid points


ALL_PRESET_SMALL = {
    "thm-bounded-degree": dict(n=32, trials=2, samples=200),
    "thm-lower-bound": dict(n=400, trials=10),
    "thm-complete-graph": dict(n=8, trials=5, samples=1),
    "thm-random-graph": dict(n=64, trials=5, samples=5_000),
    "thm-sparsifier": dict(n=150, trials=2, samples=200),
    "thm-tail-bound": dict(n=24, trials=15_000, samples=2),
    "stretch-diameter": dict(n=64, trials=2, samples=200),
    "routing-reliability": dict(n=48, trials=3, samples=40),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_repeat_runs_are_byte_identical(name):
    cfg = ExperimentConfig(preset=name, seed=11, **ALL_PRESET_SMALL[name])
    s1, _ = run_preset(cfg)
    s2, _ = run_preset(cfg)
    assert strip_meta(summary_json(s1)) == strip_meta(summary_json(s2))
    _, defaults = PRESETS[name]
    assert s1["parameters"] == {**defaults, **ALL_PRESET_SMALL[name]}


def test_stretch_preset_builds_no_complete_graph(monkeypatch):
    from treesplice import experiments

    def no_graph(n):
        raise AssertionError("K_n built for stretch-diameter")

    monkeypatch.setattr(experiments, "complete_graph", no_graph)
    small = ALL_PRESET_SMALL["stretch-diameter"]
    summary, _ = run_preset(ExperimentConfig(preset="stretch-diameter", seed=11, **small))
    # The summary it gave when it built K_64 and K_16 for their sizes.
    digest = hashlib.sha256(strip_meta(summary_json(summary)).encode()).hexdigest()
    assert digest == "d937b7d9d72a41d389eb58b96f0a36f443b9eec56444fba1ea3e0d4d48f9a8ed"


def test_default_run_records_every_key_it_reads():
    summary, _ = run_preset(ExperimentConfig(preset="routing-reliability", seed=1))
    assert summary["parameters"] == {
        "n": 256, "k": 2, "failure_prob": 0.05, "trials": 50, "samples": 200,
    }


def test_derived_parameters_are_null_with_values_under_derived():
    summary, _ = run_preset(
        ExperimentConfig(preset="thm-lower-bound", seed=11, n=400, samples=500)
    )
    assert summary["parameters"]["trials"] is None
    assert summary["derived"]["trees"] == -(-500 // summary["derived"]["segments"])


@pytest.mark.parametrize(
    "preset, key, value",
    [
        ("thm-bounded-degree", "trials", -1),
        ("thm-sparsifier", "samples", 0),
        ("thm-tail-bound", "ell", 2),
        ("stretch-diameter", "p", 0.5),
    ],
)
def test_bad_or_unread_keys_are_rejected_by_name(preset, key, value, tmp_path):
    from treesplice.cli import main

    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        run_preset(ExperimentConfig(preset=preset, **{key: value}))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"preset={preset}\n{key}={value}\n")
    assert main(["preset", "--config", str(cfg)]) == 2


def test_different_seed_changes_summary():
    cfg1 = ExperimentConfig(preset="routing-reliability", seed=1, n=48, trials=2, samples=40)
    cfg2 = ExperimentConfig(preset="routing-reliability", seed=2, n=48, trials=2, samples=40)
    s1, _ = run_preset(cfg1)
    s2, _ = run_preset(cfg2)
    assert strip_meta(summary_json(s1)) != strip_meta(summary_json(s2))


def test_rows_csv_float_repr_stable():
    rows = [{"a": 1.0, "b": "x"}, {"a": 0.30000000000000004, "b": "y"}]
    text = rows_csv(rows)
    assert "0.30000000000000004" in text
    assert text == rows_csv(rows)


def test_summary_assertions_carry_bounds():
    cfg = ExperimentConfig(preset="routing-reliability", seed=3, n=48, trials=3, samples=40)
    summary, _ = run_preset(cfg)
    for a in summary["assertions"]:
        assert {"name", "passed", "value", "bound", "direction"} <= set(a)
