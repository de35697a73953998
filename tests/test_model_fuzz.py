"""``parse_model`` on generated text.

Whatever the text, parsing ends in a graph or in ``ModelSyntaxError``,
which the CLI turns into one error line; any other exception would end in
a traceback.  The parser assembles its edges without ``EdgeTuple``'s
checks, so every parsed edge must equal the edge ``make_edge`` builds from
its fields, and it must agree with a plain line-by-line reference parser.
Hypothesis is a test-only dependency.
"""

import sys

import pytest

from dpdetect import ClassGraph, EdgeTuple, ModelSyntaxError, make_edge, parse_model

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Every character ``str.split`` treats as whitespace, among them
# \x1c-\x1f, \x85 and \u2028, which ``str.splitlines`` would break a line
# at, but not the parser's line breaks.
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\r\n")
BREAKS = ("\n", "\r", "\r\n")

# Each directive word with its operand count.
ARITY = {"class": 1, "selfassoc": 1, "assoc": 2, "dep": 2, "gen": 2}

identifiers = st.text(st.characters(blacklist_characters="#" + SPACES + "\r\n"), min_size=1, max_size=3)
names = st.one_of(st.sampled_from(("a", "b", "c", "café", "nul\x00")), identifiers)
gaps = st.text(alphabet=SPACES, min_size=1, max_size=2)


@st.composite
def model_texts(draw):
    """An optional header, then directive lines whose tokens stand apart by
    any whitespace, some with a comment, each ended by any line break.  One
    line in ten has a wrong operand count, and one in ten is any text."""
    text = "model" + draw(gaps) + draw(names) + draw(st.sampled_from(BREAKS)) if draw(st.booleans()) else ""
    for _ in range(draw(st.integers(0, 8))):
        word = draw(st.sampled_from(sorted(ARITY)))
        count = draw(st.integers(0, 3)) if draw(st.integers(0, 9)) == 0 else ARITY[word]
        line = draw(st.text(alphabet=SPACES, max_size=2)) + word
        line += "".join(draw(gaps) + draw(names) for _ in range(count))
        if draw(st.integers(0, 9)) == 0:
            line = draw(st.text(max_size=6))
        if draw(st.booleans()):
            line += "#" + draw(st.text(max_size=4))
        text += line + draw(st.sampled_from(BREAKS))
    return text


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(model_texts())
def test_parse_raises_only_syntax_errors_and_builds_checked_edges(text):
    try:
        graph = parse_model(text)
    except ModelSyntaxError:
        return
    for edge in graph.edges:
        assert type(edge) is EdgeTuple and type(edge[2]) is int
        assert edge == make_edge(*edge[:3])


# Each directive word with its operand count and its relation code.
REFERENCE_DIRECTIVES = {
    "class": (1, None), "selfassoc": (1, 1), "assoc": (2, 1), "dep": (2, 2), "gen": (2, 3),
}


def reference_parse(text):
    """The model format's rules read off one line at a time: a fresh token
    list per line, cut at ``#``, each rule tested on its own, and an edge
    built from the tokens themselves."""
    name = ""
    nodes = set()
    explicit = set()
    edges = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, *operands = tokens
        if kind == "model":
            if name:
                raise ModelSyntaxError("duplicate model header", lineno)
            if nodes:
                raise ModelSyntaxError("model header must be the first directive", lineno)
            if len(operands) != 1:
                raise ModelSyntaxError("'model' expects exactly one name", lineno)
            name = operands[0]
            continue
        if kind not in REFERENCE_DIRECTIVES:
            raise ModelSyntaxError(f"unknown directive {kind!r}", lineno)
        arity, relation = REFERENCE_DIRECTIVES[kind]
        if len(operands) != arity:
            raise ModelSyntaxError(
                f"{kind!r} expects {arity} operand(s), got {len(operands)}", lineno
            )
        if relation is None:
            if operands[0] in explicit:
                raise ModelSyntaxError(f"duplicate class {operands[0]!r}", lineno)
            explicit.add(operands[0])
        else:
            edges.add(make_edge(operands[0], operands[-1], relation))
        nodes.update(operands)
    return ClassGraph(name=name, nodes=frozenset(nodes), edges=frozenset(edges))


@st.composite
def commented_texts(draw):
    """A model text with ``#`` put in at a few places: inside a token, right
    after one, at the start of a line or where a comment already is."""
    text = draw(model_texts())
    for _ in range(draw(st.integers(1, 4))):
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "#" + text[cut:]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ModelSyntaxError as err:
        return str(err), err.line


# One text for each message, a second header after a class line too, and one
# text that parses are checked on every run, each with a '#' inside or right
# after a token.
@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(st.one_of(model_texts(), commented_texts()))
@hypothesis.example("model m\nassoc a#b c d\n")
@hypothesis.example("gen a b#c\nclass a\nclass a\n")
@hypothesis.example("model m # x\nmodel n\n")
@hypothesis.example("model m\nclass a#b\nmodel n\n")
@hypothesis.example("class a#\nmodel m\n")
@hypothesis.example("model#\n")
@hypothesis.example("model m\nfriend a# b\n")
@hypothesis.example("#model m\nclass a#b\nselfassoc a #\n")
def test_parse_agrees_with_the_reference_parser(text):
    assert _outcome(parse_model, text) == _outcome(reference_parse, text)
