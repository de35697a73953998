"""Typed directed multigraph primitives built on a 4-field edge encoding.

A class model is a named graph whose nodes are class identifiers and whose
edges carry one of three relationship kinds (association, dependency,
generalization) plus a derived self-loop flag.  Edges are tuples with
value semantics: a graph never holds two identical 4-field edges, and
hashing, equality and ordering of edges run at tuple speed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter

__all__ = [
    "RelationKind",
    "EdgeTuple",
    "ClassGraph",
    "InvalidNodeError",
    "GraphIntegrityError",
    "EmptyEdgeSetError",
    "make_edge",
    "is_weakly_connected",
]


class InvalidNodeError(ValueError):
    """A node identifier is empty or contains forbidden characters."""


class GraphIntegrityError(ValueError):
    """A graph references a node that is not in its node set."""


class EmptyEdgeSetError(ValueError):
    """An operation that needs at least one edge received none."""


class RelationKind(IntEnum):
    """Names for the relation codes that class-model edges carry."""

    ASSOCIATION = 1
    DEPENDENCY = 2
    GENERALIZATION = 3


def _check_identifier(value: str, what: str = "node identifier") -> str:
    # Identifiers must survive the whitespace-tokenized, '#'-commented text
    # format unchanged, hence the character restrictions.
    if not isinstance(value, str) or not value:
        raise InvalidNodeError(f"{what} must be a non-empty string")
    if "#" in value or value.split() != [value]:
        raise InvalidNodeError(f"{what} {value!r} may not contain whitespace or '#'")
    return value


class EdgeTuple(tuple):
    """A directed edge as the 4-field value (source, target, relation, self_loop).

    An edge is a plain ``tuple`` underneath, so hashing, equality and
    ordering run in C, and an edge compares equal to its ``as_tuple()``
    form.  Ordering is lexicographic over the four fields, which doubles as
    the canonical edge order wherever output must be deterministic.
    ``relation`` is accepted as ``RelationKind`` accepts it and stored as
    the plain ``int`` code, which the members of ``RelationKind`` compare
    equal to.  Tuples built from an edge's fields, such as the matcher's
    index keys, then hold only ``str`` and ``int``, and the cyclic garbage
    collector stops tracking such tuples; an edge itself, a ``tuple``
    subclass, stays tracked either way.  ``self_loop`` is derived from the
    endpoints (1 iff source == target) and cannot be supplied by callers,
    so an inconsistent flag is unrepresentable.
    """

    __slots__ = ()

    def __new__(cls, source: str, target: str, relation: RelationKind | int) -> "EdgeTuple":
        _check_identifier(source)
        _check_identifier(target)
        return tuple.__new__(
            cls, (source, target, int(RelationKind(relation)), 1 if source == target else 0)
        )

    def __getnewargs__(self) -> tuple[str, str, int]:
        return self[:3]

    source = property(itemgetter(0), doc="Source class identifier.")
    target = property(itemgetter(1), doc="Target class identifier.")
    relation = property(itemgetter(2), doc="Relation code: 1, 2 or 3.")
    self_loop = property(itemgetter(3), doc="1 iff source == target, else 0.")

    def __repr__(self) -> str:
        return (
            f"EdgeTuple(source={self[0]!r}, target={self[1]!r}, "
            f"relation={self[2]!r}, self_loop={self[3]!r})"
        )

    def as_tuple(self) -> tuple[str, str, int, int]:
        return tuple(self)


def make_edge(source: str, target: str, relation: RelationKind | int) -> EdgeTuple:
    """Build an edge, deriving the self-loop flag from the endpoints."""
    return EdgeTuple(source, target, relation)


@dataclass(frozen=True)
class ClassGraph:
    """A named set of class nodes plus the edge set connecting them.

    Nodes without any relationship are allowed; multiple edges between the
    same ordered pair are allowed when their relation codes differ.  The
    name may be empty for anonymous graphs.
    """

    name: str
    nodes: frozenset[str]
    edges: frozenset[EdgeTuple]

    def __post_init__(self) -> None:
        if self.name:
            _check_identifier(self.name, "model name")
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for node in self.nodes:
            _check_identifier(node)
        missing = {
            endpoint
            for edge in self.edges
            for endpoint in (edge.source, edge.target)
            if endpoint not in self.nodes
        }
        if missing:
            raise GraphIntegrityError(
                f"edges reference undeclared nodes: {', '.join(sorted(missing))}"
            )

    @classmethod
    def from_edges(
        cls,
        name: str,
        edges: Iterable[EdgeTuple],
        isolated: Iterable[str] = (),
    ) -> "ClassGraph":
        """Build a graph whose node set is collected from the edges."""
        edge_pool = frozenset(edges)
        nodes = {e.source for e in edge_pool} | {e.target for e in edge_pool}
        nodes.update(isolated)
        return cls(name=name, nodes=frozenset(nodes), edges=edge_pool)


def is_weakly_connected(edges: Iterable[EdgeTuple]) -> bool:
    """True iff the edges form one connected component ignoring direction.

    A single edge, including a self-loop, counts as connected.  Raises
    ``EmptyEdgeSetError`` for an empty collection because connectivity of
    nothing is undefined here.
    """
    edges = tuple(edges)
    if not edges:
        raise EmptyEdgeSetError("connectivity is undefined for an empty edge set")
    neighbors: dict[str, set[str]] = {}
    for edge in edges:
        neighbors.setdefault(edge.source, set()).add(edge.target)
        neighbors.setdefault(edge.target, set()).add(edge.source)
    start = edges[0].source
    seen = {start}
    stack = [start]
    while stack:
        for other in neighbors[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(neighbors)
