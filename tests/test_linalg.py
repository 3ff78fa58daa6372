import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from treesplice.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
)
from treesplice.graph import Graph
from treesplice.linalg import (
    _bareiss_det,
    effective_resistance_exact,
    effective_resistances,
    laplacian_dense,
    spanning_tree_count,
)


def brute_force_tree_count(g: Graph) -> int:
    """Independent oracle: scan all (n-1)-edge subsets with union-find."""
    n, m = g.n, g.m
    eu, ev = g.edge_u.tolist(), g.edge_v.tolist()
    total = 0
    for subset in combinations(range(m), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            a, b = find(eu[e]), find(ev[e])
            if a == b:
                ok = False
                break
            parent[a] = b
        total += ok
    return total


def test_count_k4_and_cycle():
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(cycle_graph(5)) == 5


def test_count_matches_cayley_formula():
    for n in range(2, 10):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)


def test_count_petersen_vs_brute_force():
    g = petersen_graph()
    assert brute_force_tree_count(g) == 2000
    assert spanning_tree_count(g) == 2000


def test_count_random_graphs_vs_brute_force():
    for s in range(4):
        g = gnp_graph(7, 0.5, seed=500 + s)
        assert spanning_tree_count(g) == brute_force_tree_count(g)


def test_count_disconnected_is_zero():
    assert spanning_tree_count(Graph(4, [(0, 1), (2, 3)])) == 0


def test_resistance_complete_graph_edges():
    for n in (4, 10, 16):
        g = complete_graph(n)
        assert effective_resistance_exact(g, 0, 1) == Fraction(2, n)
    k10 = complete_graph(10)
    assert effective_resistances(k10)[k10.edge_id(0, 1)] == pytest.approx(0.2, abs=1e-12)


def test_resistance_cycle_series_parallel():
    assert effective_resistance_exact(cycle_graph(4), 0, 1) == Fraction(3, 4)
    for n in (5, 8, 30):
        g = cycle_graph(n)
        assert effective_resistance_exact(g, 0, 1) == Fraction(n - 1, n)


def test_resistance_bridge_is_one():
    assert effective_resistances(path_graph(6)) == pytest.approx(np.ones(5), abs=1e-12)


def test_resistance_requires_connected_and_edge():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        effective_resistances(g)
    with pytest.raises(ValueError):
        effective_resistance_exact(cycle_graph(5), -1, 0)  # would read the ground row


def test_foster_sum_is_n_minus_one():
    for g in (complete_graph(9), petersen_graph(), gnp_graph(30, 0.3, seed=8)):
        if not g.is_connected():
            continue
        assert effective_resistances(g).sum() == pytest.approx(g.n - 1, rel=1e-10)


def test_float_path_matches_cycle_closed_form():
    n = 100
    r = effective_resistances(cycle_graph(n))
    assert np.abs(r - (n - 1) / n).max() <= 1e-9 * ((n - 1) / n)


def test_all_edges_of_a_dense_host_in_one_call_are_memory_bounded():
    g = gnp_graph(400, 0.3, seed=9)
    assert g.is_connected()
    tracemalloc.start()
    try:
        r = effective_resistances(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One padded 400^2 inverse peaks near 2.6 MiB for all 23,852 edges; a
    # right-hand side of one column per edge peaked at 292 MiB.
    assert peak < 8 << 20
    assert r.sum() == pytest.approx(g.n - 1, rel=1e-10)  # Foster's theorem


def test_bareiss_adjugate_inverts_integer_matrices():
    rng = np.random.default_rng(21)
    mats = [[[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 1], [1, 1, 0]]]  # need row swaps
    mats += [rng.integers(-4, 5, size=(k, k)).tolist() for k in range(1, 7) for _ in range(5)]
    for mat in mats:
        k = len(mat)
        det = _bareiss_det(mat)
        assert det == round(np.linalg.det(np.array(mat, dtype=float)))
        det2, adj = _bareiss_det(mat, adjugate=True)
        assert det2 == det
        if det == 0:
            assert adj is None
            continue
        prod = [[sum(adj[i][t] * mat[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        assert prod == [[det * (i == j) for j in range(k)] for i in range(k)]


def test_laplacian_row_sums_zero():
    g = gnp_graph(20, 0.4, seed=3)
    lap = laplacian_dense(g)
    assert np.allclose(lap.sum(axis=1), 0)
    assert np.allclose(lap, lap.T)
