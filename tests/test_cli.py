import hashlib
import json
import time

import pytest

from treesplice.cli import main
from treesplice.generators import complete_graph
from treesplice.graph import Graph
from treesplice.io import parse_graph, serialize_graph


def run(argv):
    return main(argv)


def test_generate_and_sample_roundtrip(tmp_path):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    trpath = tmp_path / "trace.txt"
    assert run(["generate", "--kind", "petersen", "--out", str(gpath)]) == 0
    g = parse_graph(gpath.read_text())
    assert g.n == 10 and g.m == 15
    assert (
        run(
            [
                "sample-tree", "--graph", str(gpath), "--seed", "3",
                "--out", str(tpath), "--trace-out", str(trpath),
            ]
        )
        == 0
    )
    # A tree file is "tree n root" and its edge rows, read here as a graph.
    header, *rows = tpath.read_text().splitlines()
    assert header == "tree 10 0"
    tree = parse_graph("\n".join([f"10 {len(rows)}", *rows]))
    assert tree.n == 10 and tree.m == 9 and tree.is_connected()
    trace_ids = [int(x) for x in trpath.read_text().split()]
    assert trace_ids[0] == 0
    assert set(trace_ids) == set(range(10))


def test_generate_usage_errors():
    assert run(["generate", "--kind", "complete", "--n", "1", "--out", "-"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["generate"])  # missing --kind
    assert exc.value.code == 2


def test_splice_and_expansion(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    assert run(["generate", "--kind", "complete", "--n", "12", "--out", str(gpath)]) == 0
    assert run(["splice", "--graph", str(gpath), "--k", "2", "--seed", "4", "--out", str(spath)]) == 0
    support = parse_graph(spath.read_text())
    assert 12 <= support.m <= 22
    assert run(["expansion", "--graph", str(spath), "--kind", "vertex"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exact"
    assert payload["value"] > 0


def test_expansion_spectral_on_larger_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "gnp", "--n", "80", "--p", "0.2", "--seed", "7", "--out", str(gpath)]) == 0
    assert run(["expansion", "--graph", str(gpath), "--method", "spectral"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda2"] > 0


def test_expansion_spectral_rejects_vertex_kind(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "cycle", "--n", "4", "--out", str(gpath)]) == 0
    capsys.readouterr()
    argv = ["expansion", "--graph", str(gpath), "--kind", "vertex", "--method", "spectral"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the spectral certificate bounds edge expansion only")
    assert err.count("\n") == 1


def test_expansion_exact_above_its_cap_points_to_spectral(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "cycle", "--n", "25", "--out", str(gpath)]) == 0
    capsys.readouterr()
    assert run(["expansion", "--graph", str(gpath), "--method", "exact"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: exact expansion is capped at n = 24")
    assert "--method spectral" in err
    assert err.count("\n") == 1


def test_lanczos_non_convergence_is_a_one_line_failure(tmp_path, capsys, monkeypatch):
    from treesplice import cuts

    # A cap of 4 iterations on 80 vertices: Lanczos stops unconverged.
    monkeypatch.setattr(cuts, "_LANCZOS_ITERS", 0.05)
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "gnp", "--n", "80", "--p", "0.2", "--seed", "7", "--out", str(gpath)]) == 0
    capsys.readouterr()
    assert run(["expansion", "--graph", str(gpath), "--method", "spectral"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: eigenvalue iteration did not converge")
    assert err.count("\n") == 1


def test_out_of_memory_is_a_one_line_failure(tmp_path, capsys):
    # 2^62 vertices: the uniformity check's first allocation fails at once,
    # whatever the host's overcommit setting.
    gpath = tmp_path / "huge.txt"
    gpath.write_text("4611686018427387904 0\n")
    assert run(["verify", "--check", "uniformity", "--graph", str(gpath)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1


def test_memory_error_of_any_command_exits_one(tmp_path, capsys, monkeypatch):
    from treesplice import cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "_cmd_route_sim", exhausted)
    assert run(["route-sim", "--graph", str(tmp_path / "g.txt"), "--k", "2"]) == 1
    assert capsys.readouterr().err == "out of memory: Unable to allocate 745. GiB for an array\n"


def test_sparsify_cli(tmp_path):
    gpath = tmp_path / "g.txt"
    wpath = tmp_path / "w.txt"
    assert run(["generate", "--kind", "gnp", "--n", "150", "--p", "0.5", "--seed", "2", "--out", str(gpath)]) == 0
    assert run(["sparsify", "--graph", str(gpath), "--p", "0.5", "--seed", "3", "--out", str(wpath)]) == 0
    # A weighted file is a graph file with a weight ending each edge row.
    header, *rows = wpath.read_text().splitlines()
    support = parse_graph("\n".join([header, *(r.rsplit(" ", 1)[0] for r in rows)]))
    weights = [float(r.split()[2]) for r in rows]
    assert support.m <= 2 * 149
    assert weights[0] == 0.5 * 150


def test_sparsify_disconnected_graph_fails_fast(tmp_path, capsys):
    # Two disjoint copies of K_300: no oriented walk can cover, so sparsify
    # fails before its first attempt rather than after every retry.
    edges = list(complete_graph(300).iter_edges())
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(Graph(600, edges + [(u + 300, v + 300) for u, v in edges])))
    t0 = time.perf_counter()
    status = run(["sparsify", "--graph", str(gpath), "--p", "1", "--seed", "1", "--out", "-"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert status == 1
    assert "disconnected" in err and err.count("\n") == 1
    assert elapsed < 1.0


def test_endpoint_beyond_the_int32_edge_arrays_is_usage_error(tmp_path, capsys):
    # Wrapped into int32, the edge (0, 2^32 + 1) would become (0, 1) and
    # splice would call the graph disconnected (exit 1).
    gpath = tmp_path / "wide.txt"
    gpath.write_text(f"{2**33} 1\n0 {2**32 + 1}\n")
    assert run(["splice", "--graph", str(gpath), "--seed", "1", "--out", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "2^31" in err and err.count("\n") == 1


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n2 2\n")
    assert run(["expansion", "--graph", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "self-loop" in err


def test_missing_file_is_usage_error(tmp_path):
    assert run(["expansion", "--graph", str(tmp_path / "nope.txt")]) == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    assert run(["generate", "--kind", "complete", "--n", "4", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sampling_failure_is_a_one_line_failure(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 2\n0 1\n1 2\n")  # vertex 3 is isolated
    assert run(["sample-tree", "--graph", str(gpath), "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sampling failure: ") and err.count("\n") == 1


def test_sample_tree_on_disjoint_cycles_fails_fast(tmp_path, capsys):
    n = 8000
    edges = [(v, (v + 1) % n) for v in range(n)]
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(Graph(2 * n, edges + [(u + n, v + n) for u, v in edges])))
    t0 = time.perf_counter()
    assert run(["sample-tree", "--graph", str(gpath), "--seed", "1"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "disconnected" in capsys.readouterr().err


def test_verify_checks(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "complete", "--n", "4", "--out", str(gpath)]) == 0
    assert run(["verify", "--check", "uniformity", "--graph", str(gpath), "--trials", "40000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["enumerated"] == payload["trees"] == 16
    assert payload["tv_distance"] < 0.05
    assert run(["verify", "--check", "uniformity", "--graph", str(gpath), "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert run(["verify", "--check", "resistance", "--graph", str(gpath), "--trials", "40000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_abs_error"] < 0.02
    coupling = ["verify", "--check", "coupling", "--n", "6", "--p", "1.0", "--trials", "20000"]
    assert run(coupling) == 0
    payload = json.loads(capsys.readouterr().out)
    # Multinomial noise floor over 1296 trees is ~sqrt(1296/(2 pi 2e4)) ~ 0.1.
    assert 0.0 < payload["estimate"] <= 0.15
    assert run(coupling) == 0
    assert json.loads(capsys.readouterr().out) == payload
    assert run(["verify", "--check", "coupling"]) == 2  # missing --n


@pytest.mark.parametrize(
    "check", ["uniformity", "resistance", "negative-correlation", "tail-bound", "min-edge-prob"]
)
def test_graph_checks_without_graph_are_usage_errors(capsys, check):
    assert run(["verify", "--check", check]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --graph is required for the {check} check\n"


def test_tail_bound_payload_lists_one_entry_per_cut(tmp_path, capsys):
    gpath = tmp_path / "petersen.txt"
    assert run(["generate", "--kind", "petersen", "--out", str(gpath)]) == 0
    argv = ["verify", "--check", "tail-bound", "--graph", str(gpath), "--trials", "10000"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["subsets"]) == len(payload["cut_sizes"]) == len(payload["p_bar"]) == 1
    assert len(payload["subsets"][0]) == 5
    for key in ("lambdas", "empirical", "bounds", "std_errors"):
        assert len(payload[key]) == 1 and len(payload[key][0]) == 4
    assert payload["passed"] is True and payload["trials"] == 10_000


def test_uniformity_check_tests_the_edge_cap_before_counting_trees(
    tmp_path, capsys, monkeypatch
):
    from treesplice import verify

    def no_count(graph):
        raise AssertionError("tree count run on a graph above the edge cap")

    monkeypatch.setattr(verify, "spanning_tree_count", no_count)
    gpath = tmp_path / "k7.txt"
    assert run(["generate", "--kind", "complete", "--n", "7", "--out", str(gpath)]) == 0
    assert run(["verify", "--check", "uniformity", "--graph", str(gpath)]) == 2
    assert "enumerable" in capsys.readouterr().err


def test_negative_correlation_check_needs_two_edges(tmp_path, capsys):
    gpath = tmp_path / "k2.txt"
    assert run(["generate", "--kind", "complete", "--n", "2", "--out", str(gpath)]) == 0
    assert run(["verify", "--check", "negative-correlation", "--graph", str(gpath)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the negative-correlation check needs at least 2 edges\n"


def test_route_sim_csv(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "complete", "--n", "24", "--out", str(gpath)]) == 0
    assert (
        run(
            [
                "route-sim", "--graph", str(gpath), "--k", "2",
                "--failure-prob", "0.1", "--pairs", "20", "--trials", "2",
                "--format", "csv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("seed,trial,failure_prob")
    assert "np.float64" not in out
    # k = 3 is the smallest k whose failover reads the route stream.
    pinned = {
        ("1", "json"): "70c6c59a85cab8e5e3e9ff0e072564838afbc9f1aa137df3c67a112aaafdfba9",
        ("1", "csv"): "b27bf21bbe1d10d0b0baa5cbb562345a421a65708aa6801e97086ad42f796721",
        ("3", "json"): "175e9595e9f67db520fed013c7cf1d568fb1723b56f910da047632ece6e1f259",
        ("3", "csv"): "e43daccfc6bfa921388f027490d46d47e314907e2a48519f4f8479a2c50cbe1c",
    }
    for (k, fmt), digest in pinned.items():
        argv = [
            "route-sim", "--graph", str(gpath), "--k", k,
            "--failure-prob", "0.1", "--pairs", "20", "--trials", "2", "--format", fmt,
        ]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (k, fmt)


def test_commands_without_reports_reject_format(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["generate", "--kind", "complete", "--n", "6", "--out", str(gpath)]) == 0
    graph = ["--graph", str(gpath)]
    for argv in (
        ["generate", "--kind", "cycle", "--n", "5"],
        ["sample-tree", *graph],
        ["splice", *graph],
        ["sparsify", *graph, "--p", "1.0"],
    ):
        assert run(argv + ["--out", str(tmp_path / "out.txt")]) == 0
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


def test_preset_cli_with_config_and_exit_codes(tmp_path):
    cfgpath = tmp_path / "cfg.txt"
    outpath = tmp_path / "out.json"
    cfgpath.write_text(
        "preset=thm-tail-bound\nseed=4\nn=24\ntrials=15000\nsamples=2\n"
        f"out_json={outpath}\n"
    )
    assert run(["preset", "--config", str(cfgpath)]) == 0
    assert json.loads(outpath.read_text())["passed"] is True
    assert run(["preset", "unknown-name"]) == 2
    assert run(["preset"]) == 2
    # Conflicting names: config says tail-bound.
    assert run(["preset", "stretch-diameter", "--config", str(cfgpath)]) == 2


def test_config_bad_value_names_its_line(tmp_path, capsys):
    cfgpath = tmp_path / "cfg.txt"
    for text, want in (
        ("preset=thm-tail-bound\nseed=1\nn=abc\n", "line 3: bad int value 'abc' for n"),
        ("preset=thm-random-graph\np=1e\n", "line 2: bad float value '1e' for p"),
    ):
        cfgpath.write_text(text)
        assert run(["preset", "--config", str(cfgpath)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"


def test_stretch_preset_above_the_diameter_cap_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    from treesplice import experiments, routing

    def no_graph(n):
        raise AssertionError("K_n built for an n above the diameter cap")

    monkeypatch.setattr(routing, "DIAMETER_MAX_N", 16)
    monkeypatch.setattr(experiments, "complete_graph", no_graph)
    cfgpath = tmp_path / "cfg.txt"
    cfgpath.write_text("preset=stretch-diameter\nn=32\ntrials=1\nsamples=10\n")
    assert run(["preset", "--config", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n = 16" in err


def test_complete_graph_preset_above_the_scan_cap_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    from treesplice import experiments

    def no_graph(n):
        raise AssertionError("K_n built for an n above the scan cap")

    monkeypatch.setattr(experiments, "complete_graph", no_graph)
    cfgpath = tmp_path / "cfg.txt"
    cfgpath.write_text("preset=thm-complete-graph\nn=30\n")
    assert run(["preset", "--config", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "thm-complete-graph" in err and "n is capped at 24" in err


def test_preset_rerun_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    from treesplice.experiments import strip_meta

    outs = []
    for run in (0, 1):
        out = tmp_path / f"out{run}.json"
        cfg_small = tmp_path / "small.txt"
        cfg_small.write_text(
            f"preset=thm-tail-bound\nseed=6\nn=24\ntrials=15000\nsamples=2\nout_json={out}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "treesplice.cli", "preset", "--config", str(cfg_small)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(strip_meta(out.read_text()))
    assert outs[0] == outs[1]


def test_generate_lower_bound_with_meta(tmp_path):
    gpath = tmp_path / "g.txt"
    mpath = tmp_path / "meta.json"
    assert (
        run(
            [
                "generate", "--kind", "lower-bound", "--n", "400", "--d", "3",
                "--ell", "1", "--seed", "5", "--out", str(gpath),
                "--meta-out", str(mpath),
            ]
        )
        == 0
    )
    g = parse_graph(gpath.read_text())
    assert g.n == 400
    meta = json.loads(mpath.read_text())
    assert meta["ell"] == 1
    assert len(meta["segments"]) >= 400 // 9
