"""Line-based text format for class models: parsing and rendering.

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

from .graph import ClassGraph, EdgeTuple, RelationKind, _assemble

__all__ = ["ModelSyntaxError", "parse_model", "render_model"]


class ModelSyntaxError(ValueError):
    """A model file line the parser cannot accept."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# Each directive word with its operand count and the relation code of the
# edge it adds.  ``selfassoc x`` is ``assoc x x``: an edge runs from the
# first operand to the last.
_DIRECTIVES = {
    "class": (1, None),
    "selfassoc": (1, RelationKind.ASSOCIATION.value),
    "assoc": (2, RelationKind.ASSOCIATION.value),
    "dep": (2, RelationKind.DEPENDENCY.value),
    "gen": (2, RelationKind.GENERALIZATION.value),
}
_WORD_FOR = {relation: word for word, (arity, relation) in _DIRECTIVES.items() if arity == 2}


def parse_model(text: str) -> ClassGraph:
    """Parse model text into a graph in one pass over its lines.

    Repeated edges collapse into set membership.  An explicit ``class``
    line for a name already auto-declared by a relationship is fine; a
    second explicit line for the same name is a duplicate.  Raises
    ``ModelSyntaxError``, with its line number, for the first line in file
    order that holds an unknown directive, a wrong operand count, a
    misplaced or duplicate header, or a duplicate class.  Tokens come from
    ``str.split()`` of a line cut at ``#``, so they keep the identifier
    rule: edges are assembled unchecked, and ``ClassGraph`` checks each node.
    """
    name = ""
    nodes: set[str] = set()
    explicit: set[str] = set()
    edges: set[EdgeTuple] = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, *operands = tokens
        if kind == "model":
            if name:
                raise ModelSyntaxError("duplicate model header", lineno)
            # Every other directive declares at least one class.
            if nodes:
                raise ModelSyntaxError("model header must be the first directive", lineno)
            if len(operands) != 1:
                raise ModelSyntaxError("'model' expects exactly one name", lineno)
            name = operands[0]
            continue
        if kind not in _DIRECTIVES:
            raise ModelSyntaxError(f"unknown directive {kind!r}", lineno)
        arity, relation = _DIRECTIVES[kind]
        if len(operands) != arity:
            raise ModelSyntaxError(
                f"{kind!r} expects {arity} operand(s), got {len(operands)}", lineno
            )
        if relation is None:
            if operands[0] in explicit:
                raise ModelSyntaxError(f"duplicate class {operands[0]!r}", lineno)
            explicit.add(operands[0])
        else:
            edges.add(_assemble(EdgeTuple, operands[0], operands[-1], relation))
        nodes.update(operands)
    return ClassGraph(name=name, nodes=frozenset(nodes), edges=frozenset(edges))


def _edge_directive(edge: EdgeTuple) -> str:
    if edge.relation == RelationKind.ASSOCIATION and edge.self_loop:
        return f"selfassoc {edge.source}"
    return f"{_WORD_FOR[edge.relation]} {edge.source} {edge.target}"


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
