"""Text formats: plain edge lists, rooted trees, weighted edge lists.

Plain graphs: first line "n m", then m lines "u v" with 0-based ids and
u < v.  Trees: header "tree n root" then the n-1 edges.  Weighted graphs:
"n m" then "u v w" with the weight printed to 17 significant digits, which
round-trips floats bit-exactly.  Readers reject self-loops and duplicates and
name the offending line.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from .graph import Graph, GraphFormatError
from .sampler import SpanningTree
from .splice import WeightedGraph


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.iter_edges())
    return "\n".join(lines) + "\n"


def _parse_header(line: str, lineno: int, want_fields: int) -> list[int]:
    parts = line.split()
    if len(parts) != want_fields:
        raise GraphFormatError(
            f"expected {want_fields} header fields, got {len(parts)}", lineno
        )
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header field: {exc}", lineno) from exc


def _parse_edge_lines(
    lines: list[str], first_lineno: int, n: int, m: int, extra_field: bool
):
    edges = []
    extras = []
    seen: set[tuple[int, int]] = set()
    for i, raw in enumerate(lines):
        lineno = first_lineno + i
        parts = raw.split()
        want = 3 if extra_field else 2
        if len(parts) != want:
            raise GraphFormatError(f"expected {want} fields, got {len(parts)}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer vertex id: {exc}", lineno) from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex id out of range in '{raw}'", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        if u > v:
            raise GraphFormatError(f"endpoints must satisfy u < v in '{raw}'", lineno)
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
        if extra_field:
            try:
                extras.append(float(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(f"bad weight: {exc}", lineno) from exc
    if len(edges) != m:
        raise GraphFormatError(
            f"header promised {m} edges, found {len(edges)}", first_lineno + len(lines)
        )
    return edges, extras


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input", 1)
    n, m = _parse_header(lines[0], 1, 2)
    edges, _ = _parse_edge_lines(lines[1 : m + 1], 2, n, m, extra_field=False)
    if len(lines) > m + 1:
        raise GraphFormatError("trailing content after edge list", m + 2)
    return Graph(n, edges)


def serialize_tree(tree: SpanningTree) -> str:
    lines = [f"tree {tree.n} {tree.root}"]
    lines.extend(f"{u} {v}" for u, v in sorted(tree.edges()))
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> SpanningTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input", 1)
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != "tree":
        raise GraphFormatError("expected header 'tree n root'", 1)
    try:
        n, root = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}", 1) from exc
    if not 0 <= root < n:
        raise GraphFormatError("root out of range", 1)
    edges, _ = _parse_edge_lines(lines[1:], 2, n, n - 1, extra_field=False)
    graph = Graph(n, edges)
    if not graph.is_connected():
        raise GraphFormatError("edges do not form a spanning tree", 1)
    pred = csgraph.breadth_first_order(graph._adjacency(), root)[1]
    parent = np.maximum(pred, -1).astype(np.int32)
    # A tree edge is the parent edge of whichever end has the other as parent.
    child = np.where(parent[graph.edge_v] == graph.edge_u, graph.edge_v, graph.edge_u)
    parent_edge = np.full(n, -1, dtype=np.int32)
    parent_edge[child] = np.arange(graph.m)
    return SpanningTree(root, parent, parent_edge)


def serialize_weighted(wg: WeightedGraph) -> str:
    g = wg.graph
    lines = [f"{g.n} {g.m}"]
    lines.extend(
        f"{u} {v} {format(float(w), '.17g')}"
        for (u, v), w in zip(g.iter_edges(), wg.weights)
    )
    return "\n".join(lines) + "\n"


def parse_weighted(text: str) -> WeightedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input", 1)
    n, m = _parse_header(lines[0], 1, 2)
    edges, weights = _parse_edge_lines(lines[1 : m + 1], 2, n, m, extra_field=True)
    if len(lines) > m + 1:
        raise GraphFormatError("trailing content after edge list", m + 2)
    return WeightedGraph(Graph(n, edges), np.array(weights))

