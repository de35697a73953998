"""Exhaustive reference detector used to cross-check the matcher.

This is the slow, obviously-correct route: it enumerates every injective
assignment of pattern nodes to system nodes outright and keeps those whose
induced edge images all land in the system edge set, instead of searching
edge by edge the way the matcher does.  The two share result types but no
search logic, so a bug in one is unlikely to hide in the other.  Inputs
are size-guarded: the system because the enumeration is factorial in its
node count, the pattern because every level walks all of its edge
combinations.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .graph import EdgeTuple
from .matcher import (
    DetectionReport,
    EmptyPatternError,
    LevelOutOfRangeError,
    MatchRow,
    MatchTable,
)

__all__ = ["OracleSizeError", "oracle_find_matches", "oracle_detect"]

DEFAULT_MAX_EDGES = 12
DEFAULT_MAX_NODES = 8


class OracleSizeError(ValueError):
    """The input exceeds the configured brute-force size guard."""


def _connected(edges: Iterable[EdgeTuple]) -> bool:
    """Union-find connectivity, kept separate from the graph module's BFS so
    the oracle's connectivity answers are independently derived."""
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for edge in edges:
        for node in (edge.source, edge.target):
            parent.setdefault(node, node)
        parent[find(edge.source)] = find(edge.target)
    roots = {find(node) for node in parent}
    return len(roots) == 1


def oracle_find_matches(
    system_edges: Iterable[EdgeTuple],
    pattern_edges: Iterable[EdgeTuple],
    n: int,
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> MatchTable:
    """Level-``n`` occurrences computed by brute force.

    Semantics match ``matcher.find_matches``; only the enumeration strategy
    differs.  Raises ``OracleSizeError`` when the system exceeds the size
    guard (``max_edges`` system edges / ``max_nodes`` system nodes) or the
    pattern has more than ``max_edges`` edges.
    """
    system = frozenset(system_edges)
    pattern = frozenset(pattern_edges)
    if not pattern:
        raise EmptyPatternError("pattern has no edges")
    if not 0 < n <= len(pattern):
        raise LevelOutOfRangeError(f"level must be in 1..{len(pattern)}, got {n}")
    system_nodes = sorted({node for edge in system for node in (edge.source, edge.target)})
    if len(system) > max_edges or len(system_nodes) > max_nodes:
        raise OracleSizeError(
            f"system of {len(system)} edges / {len(system_nodes)} nodes exceeds the "
            f"brute-force guard of {max_edges} edges / {max_nodes} nodes"
        )
    if len(pattern) > max_edges:
        raise OracleSizeError(
            f"pattern of {len(pattern)} edges exceeds the brute-force guard of {max_edges} edges"
        )
    by_endpoints = {(e.source, e.target, e.relation): e for e in system}
    found: dict[frozenset[EdgeTuple], MatchRow] = {}
    for fragment in itertools.combinations(sorted(pattern), n):
        if n < len(pattern) and not _connected(fragment):
            continue
        fragment_nodes = sorted(
            {node for edge in fragment for node in (edge.source, edge.target)}
        )
        for image in itertools.permutations(system_nodes, len(fragment_nodes)):
            assignment = dict(zip(fragment_nodes, image))
            images: list[EdgeTuple] = []
            for edge in fragment:
                hit = by_endpoints.get(
                    (assignment[edge.source], assignment[edge.target], edge.relation)
                )
                if hit is None:
                    break
                images.append(hit)
            else:
                key = frozenset(images)
                if len(key) != n or key in found or not _connected(images):
                    continue
                found[key] = MatchRow(fragment, tuple(images))
    rows = tuple(sorted(found.values(), key=MatchRow.system_key))
    return MatchTable(level=n, rows=rows)


def oracle_detect(
    system_edges: Iterable[EdgeTuple],
    pattern_edges: Iterable[EdgeTuple],
    pattern_name: str = "",
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> DetectionReport:
    """Brute-force counterpart of ``matcher.detect``; same level descent."""
    system = frozenset(system_edges)
    pattern = frozenset(pattern_edges)
    if not pattern:
        raise EmptyPatternError("pattern has no edges")
    for level in range(len(pattern), 0, -1):
        table = oracle_find_matches(
            system, pattern, level, max_edges=max_edges, max_nodes=max_nodes
        )
        if table.rows:
            return DetectionReport(pattern_name, len(pattern), table)
    return DetectionReport(pattern_name, len(pattern), MatchTable(level=0))
