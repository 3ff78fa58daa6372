"""Pinned stdout bytes and exit codes of the report commands, of generate and
of sample-tree, whose walk trace file is pinned too.

Each command runs on small fixed graphs at a fixed seed; the SHA-256 of its
stdout and its exit status must not move.  A change here changes what a
command prints: a field, its order, its value or its formatting.
"""

import hashlib

import pytest

from treesplice.cli import main
from treesplice.generators import complete_graph, petersen_graph, random_regular_graph
from treesplice.io import serialize_graph
from treesplice.splice import splice


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    made = {
        "petersen": petersen_graph(),
        "rr32": random_regular_graph(32, 3, seed=5),
        "rr80": random_regular_graph(80, 4, seed=6),
        "u14": splice(complete_graph(14), 2, seed=7),
    }
    paths = {}
    for name, g in made.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(serialize_graph(g))
    return paths


def _stdout_digest(argv, capsys) -> tuple[int, str]:
    status = main(argv)
    out = capsys.readouterr().out
    return status, hashlib.sha256(out.encode()).hexdigest()[:16]


# (argv less --graph, the graph it reads, exit status, stdout digest)
REPORTS = [
    (["expansion", "--kind", "edge", "--method", "exact", "--seed", "3"], "u14", 0,
     "cccc65a5e5ecce1e"),
    (["expansion", "--kind", "vertex", "--method", "exact"], "u14", 0, "bc8baa4bab341be2"),
    (["expansion", "--kind", "vertex", "--method", "exact", "--format", "csv"], "u14", 0,
     "5f699053f0278855"),
    (["expansion", "--kind", "edge", "--method", "spectral", "--seed", "2"], "rr80", 0,
     "54d496971c12ab26"),
    (["verify", "--check", "uniformity", "--trials", "3000", "--seed", "1"], "petersen", 0,
     "6e45419c14e94acd"),
    (["verify", "--check", "uniformity", "--trials", "3000", "--format", "csv"], "petersen", 0,
     "df1922364ac64ce9"),
    (["verify", "--check", "resistance", "--trials", "2000", "--seed", "2"], "rr32", 0,
     "a3f1a16c6db96668"),
    (["verify", "--check", "negative-correlation", "--seed", "4"], "rr32", 0,
     "624932d82e5db8d5"),
    (["verify", "--check", "negative-correlation", "--trials", "3000", "--seed", "4"], "rr80",
     0, "8bea0d8f5936110c"),
    (["verify", "--check", "negative-correlation", "--format", "csv", "--seed", "4"], "rr32", 0,
     "66387ccec8fdb5b9"),
    (["verify", "--check", "tail-bound", "--trials", "10000", "--seed", "5"], "rr32", 0,
     "1a08803271b8703f"),
    (["verify", "--check", "tail-bound", "--trials", "10000", "--format", "csv"], "rr32", 0,
     "8cc52d6001346248"),
    (["verify", "--check", "min-edge-prob", "--trials", "2000", "--seed", "6"], "rr32", 0,
     "d7b16ed206e59def"),
    (["route-sim", "--k", "2", "--failure-prob", "0.1", "--pairs", "30", "--trials", "4",
      "--seed", "8"], "rr32", 0, "3c0e65cfecd2e67d"),
    (["route-sim", "--k", "3", "--pairs", "20", "--trials", "3", "--format", "csv"], "rr80", 0,
     "3c1120e7fc39b703"),
]


@pytest.mark.parametrize("argv, graph, status, digest", REPORTS)
def test_graph_reports_are_pinned(graphs, capsys, argv, graph, status, digest):
    argv = [*argv, "--graph", str(graphs[graph])]
    assert _stdout_digest(argv, capsys) == (status, digest)


COUPLING = [
    (["--n", "6", "--trials", "2000", "--seed", "1"], "a20b40afe72c57ac"),
    (["--n", "6", "--p", "1.0", "--trials", "2000", "--format", "csv"], "bb4a0e383b41723e"),
    (["--n", "24", "--p", "0.6", "--trials", "4", "--seed", "2"], "38a1cd252339262b"),
]


@pytest.mark.parametrize("argv, digest", COUPLING)
def test_coupling_reports_are_pinned(capsys, argv, digest):
    assert _stdout_digest(["verify", "--check", "coupling", *argv], capsys) == (0, digest)


GENERATED = [
    (["--kind", "complete", "--n", "7"], "51ac8588af7eae34"),
    (["--kind", "gnp", "--n", "30", "--p", "0.3", "--seed", "2"], "b0e7cc8d2efe90f9"),
    (["--kind", "regular", "--n", "20", "--d", "3", "--seed", "3"], "34a6166dcace31e5"),
    (["--kind", "cycle", "--n", "9"], "2879e840ac36ada4"),
    (["--kind", "path", "--n", "9"], "7c40fa908b2a0284"),
    (["--kind", "petersen"], "d350eadbc18c7772"),
    (["--kind", "wheel", "--n", "8"], "1499f2c90d945855"),
    (["--kind", "prism"], "f731fd534197dc73"),
    (["--kind", "lower-bound", "--n", "60", "--d", "3", "--ell", "1", "--seed", "4"],
     "9035e655a77462d9"),
]


@pytest.mark.parametrize("argv, digest", GENERATED)
def test_generated_graphs_are_pinned(capsys, argv, digest):
    assert _stdout_digest(["generate", *argv], capsys) == (0, digest)


def test_lower_bound_metadata_is_pinned(tmp_path, capsys):
    meta = tmp_path / "lb.json"
    argv = ["generate", "--kind", "lower-bound", "--n", "60", "--seed", "4",
            "--meta-out", str(meta)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(meta.read_bytes()).hexdigest()[:16] == "d1ebcc8e454d9520"


@pytest.fixture(scope="module")
def walk_graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("walks")
    made = {"rr20": random_regular_graph(20, 3, seed=3), "k12": complete_graph(12)}
    paths = {}
    for name, g in made.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(serialize_graph(g))
    return paths


# (argv less --graph, the graph it reads, exit status, stdout digest, trace
# file digest).  K_12's file lists its edges in triu order, so its walk is
# the closed-form one.
SAMPLED = [
    (["--seed", "4", "--start", "5"], "rr20", 0, "ea0daee3fa935e67", "df5485acca0af8c0"),
    (["--seed", "9"], "k12", 0, "7cef600eef3fbb95", "c4b5a308f2a55883"),
]


@pytest.mark.parametrize("argv, graph, status, digest, trace_digest", SAMPLED)
def test_sampled_tree_and_trace_are_pinned(
    walk_graphs, tmp_path, capsys, argv, graph, status, digest, trace_digest
):
    trace = tmp_path / "trace.txt"
    argv = ["sample-tree", *argv, "--graph", str(walk_graphs[graph]), "--trace-out", str(trace)]
    assert _stdout_digest(argv, capsys) == (status, digest)
    assert hashlib.sha256(trace.read_bytes()).hexdigest()[:16] == trace_digest
