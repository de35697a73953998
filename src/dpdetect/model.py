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


# Each directive word with its token count, the word included, and the
# relation code of the edge it adds, 0 for ``class``.  ``selfassoc x`` is
# ``assoc x x``: an edge runs from the first operand to the last.
_DIRECTIVES = {
    "class": (2, 0),
    "selfassoc": (2, RelationKind.ASSOCIATION.value),
    "assoc": (3, RelationKind.ASSOCIATION.value),
    "dep": (3, RelationKind.DEPENDENCY.value),
    "gen": (3, RelationKind.GENERALIZATION.value),
}
_WORD_FOR = {relation: word for word, (count, relation) in _DIRECTIVES.items() if count == 3}


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

    A parsed graph holds one ``str`` object per class name, the first token
    read for it, in its nodes and in every edge.  Dict lookups and ``str``
    equality return at once when both sides are one object, so the
    matcher's index probes and injectivity tests and the report's name and
    edge lookups hit without comparing characters, and no duplicate of a
    name is stored.
    """
    name = ""
    nodes: dict[str, str] = {}  # each name's one object, keyed on itself
    intern = nodes.setdefault
    explicit: set[str] = set()
    edges: set[EdgeTuple] = set()
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if not tokens:
            continue
        count, relation = _DIRECTIVES.get(tokens[0], (0, 0))
        if len(tokens) != count:
            kind, got = tokens[0], len(tokens) - 1
            if count:
                fault = f"{kind!r} expects {count - 1} operand(s), got {got}"
            elif kind != "model":
                fault = f"unknown directive {kind!r}"
            elif name:
                fault = "duplicate model header"
            elif nodes:  # every other directive declares at least one class
                fault = "model header must be the first directive"
            elif got != 1:
                fault = "'model' expects exactly one name"
            else:
                name = tokens[1]
                continue
            raise ModelSyntaxError(fault, lineno)
        elif relation:
            source, target = intern(tokens[1], tokens[1]), intern(tokens[-1], tokens[-1])
            edges.add(_assemble(EdgeTuple, source, target, relation))
        elif tokens[1] in explicit:
            raise ModelSyntaxError(f"duplicate class {tokens[1]!r}", lineno)
        else:
            explicit.add(intern(tokens[1], tokens[1]))
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
