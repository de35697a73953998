"""Line-based text format for class models: scanning, parsing, rendering.

One directive per line: ``model <name>`` (optional header, first directive
if present), ``class <id>``, ``assoc <src> <dst>``, ``dep <src> <dst>``,
``gen <src> <dst>`` and ``selfassoc <id>``.  Lines end at ``\n``, ``\r\n``
or ``\r`` only; other characters that ``str.splitlines`` breaks at, such as
form feed or U+2028, are whitespace inside a line.  ``#`` starts a comment
that runs to the end of the line.  Relationship directives auto-declare class
names they mention, so small fixtures stay short; an explicit ``class``
line is only required for isolated classes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import ClassGraph, EdgeTuple, RelationKind, make_edge

__all__ = [
    "ModelSyntaxError",
    "Declaration",
    "ModelDocument",
    "scan_declarations",
    "parse_model",
    "render_model",
]


class ModelSyntaxError(ValueError):
    """A model file line the scanner or graph builder cannot accept."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_RELATION_FOR = {
    "assoc": RelationKind.ASSOCIATION,
    "dep": RelationKind.DEPENDENCY,
    "gen": RelationKind.GENERALIZATION,
}
_ARITY = {"class": 1, "selfassoc": 1, "assoc": 2, "dep": 2, "gen": 2}
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class Declaration:
    """One parsed directive; ``line`` is diagnostic only and never compared."""

    kind: str
    operands: tuple[str, ...]
    line: int = field(default=0, compare=False)

    def render(self) -> str:
        return " ".join((self.kind, *self.operands))


@dataclass(frozen=True)
class ModelDocument:
    """A model file as an ordered list of declarations plus its name."""

    name: str
    declarations: tuple[Declaration, ...]

    def render(self) -> str:
        lines = [f"model {self.name}"] if self.name else []
        lines.extend(d.render() for d in self.declarations)
        return "\n".join(lines) + "\n" if lines else ""

    def to_graph(self) -> ClassGraph:
        """Build the graph, collapsing repeated edges into set membership.

        An explicit ``class`` line for a name already auto-declared by a
        relationship is fine; a second explicit line for the same name is
        a duplicate and rejected.
        """
        nodes: set[str] = set()
        explicit: set[str] = set()
        edges: set[EdgeTuple] = set()
        for decl in self.declarations:
            if decl.kind == "class":
                (cname,) = decl.operands
                if cname in explicit:
                    raise ModelSyntaxError(f"duplicate class {cname!r}", decl.line)
                explicit.add(cname)
                nodes.add(cname)
            elif decl.kind == "selfassoc":
                (cname,) = decl.operands
                nodes.add(cname)
                edges.add(make_edge(cname, cname, RelationKind.ASSOCIATION))
            else:
                src, dst = decl.operands
                nodes.update((src, dst))
                edges.add(make_edge(src, dst, _RELATION_FOR[decl.kind]))
        return ClassGraph(name=self.name, nodes=frozenset(nodes), edges=frozenset(edges))


def scan_declarations(text: str) -> ModelDocument:
    """Tokenize model text into an ordered declaration list.

    Raises ``ModelSyntaxError`` (with the offending line number) for unknown
    directives, wrong operand counts, or a misplaced/duplicate header.
    """
    name = ""
    seen_header = False
    declarations: list[Declaration] = []
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *operands = line.split()
        if kind == "model":
            if seen_header:
                raise ModelSyntaxError("duplicate model header", lineno)
            if declarations:
                raise ModelSyntaxError("model header must be the first directive", lineno)
            if len(operands) != 1:
                raise ModelSyntaxError("'model' expects exactly one name", lineno)
            name = operands[0]
            seen_header = True
            continue
        arity = _ARITY.get(kind)
        if arity is None:
            raise ModelSyntaxError(f"unknown directive {kind!r}", lineno)
        if len(operands) != arity:
            raise ModelSyntaxError(
                f"{kind!r} expects {arity} operand(s), got {len(operands)}", lineno
            )
        declarations.append(Declaration(kind, tuple(operands), lineno))
    return ModelDocument(name=name, declarations=tuple(declarations))


def parse_model(text: str) -> ClassGraph:
    """Parse model text into a graph; see ``scan_declarations`` for errors."""
    return scan_declarations(text).to_graph()


def _edge_directive(edge: EdgeTuple) -> str:
    if edge.relation is RelationKind.ASSOCIATION and edge.self_loop:
        return f"selfassoc {edge.source}"
    word = {
        RelationKind.ASSOCIATION: "assoc",
        RelationKind.DEPENDENCY: "dep",
        RelationKind.GENERALIZATION: "gen",
    }[edge.relation]
    return f"{word} {edge.source} {edge.target}"


def render_model(graph: ClassGraph) -> str:
    """Canonical text for a graph: header, sorted classes, sorted edges.

    Association self-loops render as ``selfassoc``.  The header line is
    omitted for anonymous graphs so that rendering stays parseable; parsing
    the result reproduces the graph exactly.
    """
    lines = [f"model {graph.name}"] if graph.name else []
    lines.extend(f"class {node}" for node in sorted(graph.nodes))
    lines.extend(_edge_directive(edge) for edge in sorted(graph.edges))
    return "\n".join(lines) + "\n" if lines else ""
