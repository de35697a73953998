"""Pattern catalog: built-in pattern graphs plus user-supplied definitions.

Pattern names are case-insensitive and stored lowercase.  The built-ins are
written in the model format, like every user pattern, and parsed the same
way.  User catalogs are directories of ``.cg`` files (or a single file); a
user entry whose name collides with a built-in shadows it.  Every pattern,
whether loaded from a file or passed to ``PatternCatalog`` directly, needs
at least one edge, and its edges must form one weakly connected piece.
Isolated nodes in a pattern file are legal but never constrain matching,
which works on edges alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from pathlib import Path

from .graph import ClassGraph, _Record, is_weakly_connected
from .model import ModelSyntaxError, parse_model

__all__ = ["CatalogError", "PatternCatalog", "builtin_catalog", "load_catalog"]


class CatalogError(ValueError):
    """A catalog path, entry or pattern definition is unusable."""


def _pattern_fault(graph: ClassGraph) -> str | None:
    """Why ``graph`` cannot be a catalog pattern, or None if it can.

    A pattern needs at least one edge, and its edges must form one weakly
    connected piece: a disconnected pattern could never exist completely,
    because an injective map sends its parts onto node-disjoint edges.
    """
    if not graph.edges:
        return "has no edges"
    if not is_weakly_connected(graph.edges):
        return "is not weakly connected"
    return None


class PatternCatalog(_Record):
    """Mapping from lowercase pattern name to its pattern graph."""

    __slots__ = ("entries", "user_names")

    entries: dict[str, ClassGraph]
    user_names: frozenset[str]

    def __init__(
        self, entries: Mapping[str, ClassGraph], user_names: Iterable[str] = frozenset()
    ) -> None:
        entries, user_names = dict(entries), frozenset(user_names)
        for name, graph in entries.items():
            if name != name.lower():
                raise CatalogError(f"catalog keys must be lowercase, got {name!r}")
            fault = _pattern_fault(graph)
            if fault:
                raise CatalogError(f"pattern {name!r} {fault}")
        unknown = user_names - set(entries)
        if unknown:
            raise CatalogError(f"user names missing from entries: {', '.join(sorted(unknown))}")
        self._assign(entries, user_names)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def get(self, name: str) -> ClassGraph | None:
        return self.entries.get(name.lower())

    def is_user_defined(self, name: str) -> bool:
        return name.lower() in self.user_names

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


# The built-in patterns, one model text each, as README's table lists them.
_BUILTINS = (
    "model composite\nassoc c a\ngen b a\ngen c a\n",
    "model facade\nassoc P Q\n",
    "model prototype\nassoc b a\ngen c a\n",
    "model singleton\nselfassoc A\n",
)


def builtin_catalog() -> PatternCatalog:
    """The four pattern graphs the detector ships with."""
    return PatternCatalog(entries={graph.name: graph for graph in map(parse_model, _BUILTINS)})


def load_catalog(source: str | Path | None = None) -> PatternCatalog:
    """Built-ins merged with user definitions from ``source``.

    ``source`` may be None (built-ins only), a ``.cg`` file, or a directory
    scanned for ``*.cg`` in sorted order.  Each entry is named by its
    ``model`` header, falling back to the filename stem.  Raises
    ``CatalogError`` for an empty path, which would otherwise name the
    working directory, unreadable paths, entries that are not UTF-8 or do
    not parse, duplicate user names, and patterns that have no edges or are
    not weakly connected.
    """
    builtins = builtin_catalog()
    if source is None:
        return builtins
    if source == "":
        raise CatalogError("catalog path is empty")
    path = Path(source)
    if path.is_dir():
        files = sorted(path.glob("*.cg"))
    elif path.is_file():
        files = [path]
    else:
        raise CatalogError(f"catalog path not found: {path}")
    user: dict[str, ClassGraph] = {}
    for file in files:
        try:
            graph = parse_model(file.read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError, ModelSyntaxError) as err:
            raise CatalogError(f"catalog entry {file.name!r}: {err}") from err
        name = (graph.name or file.stem).lower()
        fault = _pattern_fault(graph)
        if fault:
            raise CatalogError(f"catalog entry {file.name!r}: pattern {fault}")
        if name in user:
            raise CatalogError(f"catalog entry {file.name!r}: duplicate pattern name {name!r}")
        user[name] = graph
    return PatternCatalog(entries={**builtins.entries, **user}, user_names=frozenset(user))
