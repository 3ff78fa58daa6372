"""Text formats: plain edge lists, rooted trees, weighted edge lists.

Plain graphs: first line "n m", then m lines "u v" with 0-based ids and
u < v.  Trees: header "tree n root" then the n-1 edges.  Weighted graphs:
"n m" then "u v w" with the weight printed to 17 significant digits, which
round-trips floats bit-exactly.  Graphs are read and written; trees and
weighted graphs are written only, and their edge rows read back as a plain
graph.  The reader rejects self-loops, duplicates and a vertex count above
2^31 (``Graph`` keeps vertex ids below 2^31) and names the offending line.
"""

from __future__ import annotations

from .graph import Graph, GraphFormatError
from .sampler import SpanningTree
from .splice import WeightedGraph


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.iter_edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input", 1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise GraphFormatError(f"expected 2 header fields, got {len(parts)}", 1)
    try:
        n, m = (int(p) for p in parts)
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header field: {exc}", 1) from exc
    if n > 1 << 31:
        raise GraphFormatError(f"vertex count {n} is above 2^31, the limit of vertex ids", 1)
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1 : m + 1], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 2 fields, got {len(parts)}", lineno)
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
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}", len(lines) + 1)
    if len(lines) > m + 1:
        raise GraphFormatError("trailing content after edge list", m + 2)
    return Graph(n, edges)


def serialize_tree(tree: SpanningTree) -> str:
    lines = [f"tree {tree.n} {tree.root}"]
    lines.extend(f"{u} {v}" for u, v in sorted(tree.edges()))
    return "\n".join(lines) + "\n"


def serialize_weighted(wg: WeightedGraph) -> str:
    g = wg.graph
    lines = [f"{g.n} {g.m}"]
    lines.extend(
        f"{u} {v} {format(float(w), '.17g')}"
        for (u, v), w in zip(g.iter_edges(), wg.weights)
    )
    return "\n".join(lines) + "\n"
