"""Typed directed multigraph primitives built on a 4-field edge encoding.

A class model is a named graph whose nodes are class identifiers and whose
edges carry one of three relationship kinds (association, dependency,
generalization) plus a derived self-loop flag.  Edges are tuples with
value semantics: a graph never holds two identical 4-field edges, and
hashing, equality and ordering of edges run at tuple speed.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import IntEnum
from operator import attrgetter, itemgetter

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


def _check_identifier(value: str, what: str = "node identifier") -> None:
    # Identifiers must survive the whitespace-tokenized, '#'-commented text
    # format unchanged, hence the character restrictions.
    if not isinstance(value, str) or not value:
        raise InvalidNodeError(f"{what} must be a non-empty string")
    if "#" in value or value.split() != [value]:
        raise InvalidNodeError(f"{what} {value!r} may not contain whitespace or '#'")


class EdgeTuple(tuple):
    """A directed edge as the 4-field value (source, target, relation, self_loop).

    An edge is a plain ``tuple`` underneath, so hashing, equality and
    ordering run in C, and an edge compares equal to its ``as_tuple()``
    form.  Ordering is lexicographic over the four fields, which doubles as
    the canonical edge order wherever output must be deterministic.
    ``relation`` is accepted as ``RelationKind`` accepts it and stored as
    the plain ``int`` code, so tuples built from an edge's fields, such as
    the matcher's index keys, hold only ``str`` and ``int`` and the cyclic
    garbage collector stops tracking them.  ``self_loop`` is derived from
    the endpoints (1 iff source == target) and cannot be supplied by
    callers, so an inconsistent flag is unrepresentable.  Both identifiers
    are checked here, but not for ``parse_model`` (see ``_assemble``).
    """

    __slots__ = ()

    def __new__(cls, source: str, target: str, relation: RelationKind | int) -> "EdgeTuple":
        _check_identifier(source)
        _check_identifier(target)
        return _assemble(cls, source, target, int(RelationKind(relation)))

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


def _assemble(cls: type[EdgeTuple], source: str, target: str, code: int) -> EdgeTuple:
    """The edge of type ``cls`` with these fields, unchecked (see ``parse_model``)."""
    return tuple.__new__(cls, (source, target, code, 1 if source == target else 0))


def make_edge(source: str, target: str, relation: RelationKind | int) -> EdgeTuple:
    """Build an edge, deriving the self-loop flag from the endpoints."""
    return EdgeTuple(source, target, relation)


class _Record:
    """Base of the package's immutable records: ``ClassGraph``,
    ``PatternCatalog``, ``MatchRow``, ``MatchTable``, ``DetectionReport``
    and ``cli.ReportDocument``.

    A record's ``__slots__`` name its fields in order, and they are all it
    stores.  Records compare equal when they are of the same class with
    equal fields, hash as the tuple of their fields, and show as
    ``Name(field=value, ...)``.  Assignment and deletion raise
    ``AttributeError``, so a record's ``__init__`` stores its fields with
    ``_assign``, through the setters of the slots themselves; pickle,
    ``copy`` and ``deepcopy`` rebuild a record through its constructor.
    The methods are written out once here rather than generated for each
    class, so defining a record executes no generated source and imports
    no module to generate it.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__slots__
        if not fields:  # a subclass that adds no slot keeps its base's fields
            return
        cls.__match_args__ = fields
        cls._stores = tuple(getattr(cls, name).__set__ for name in fields)
        cls._values = property(attrgetter(*fields), doc="The field values, in order.")

    def _assign(self, *values: object) -> None:
        for store, value in zip(self._stores, values):
            store(self, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ClassGraph(_Record):
    """A named set of class nodes plus the edge set connecting them.

    Nodes without any relationship are allowed; multiple edges between the
    same ordered pair are allowed when their relation codes differ.  The
    name may be empty for anonymous graphs.  Each node is checked here, once.
    """

    __slots__ = ("name", "nodes", "edges")

    name: str
    nodes: frozenset[str]
    edges: frozenset[EdgeTuple]

    def __init__(self, name: str, nodes: Iterable[str], edges: Iterable[EdgeTuple]) -> None:
        if name:
            _check_identifier(name, "model name")
        nodes, edges = frozenset(nodes), frozenset(edges)
        for node in nodes:
            _check_identifier(node)
        starts, ends = map(itemgetter(0), edges), map(itemgetter(1), edges)
        if not (nodes.issuperset(starts) and nodes.issuperset(ends)):
            missing = {end for edge in edges for end in edge[:2]} - nodes
            raise GraphIntegrityError(
                f"edges reference undeclared nodes: {', '.join(sorted(missing))}"
            )
        self._assign(name, nodes, edges)

    @classmethod
    def from_edges(
        cls,
        name: str,
        edges: Iterable[EdgeTuple],
        isolated: Iterable[str] = (),
    ) -> "ClassGraph":
        """Build a graph whose node set is collected from the edges."""
        edge_pool = frozenset(edges)
        nodes = {end for edge in edge_pool for end in edge[:2]}.union(isolated)
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
    for source, target, _, _ in edges:
        neighbors.setdefault(source, set()).add(target)
        neighbors.setdefault(target, set()).add(source)
    start = edges[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for other in neighbors[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(neighbors)
