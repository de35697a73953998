"""``parse_model`` on generated text.

Whatever the text, parsing ends in a graph or in ``ModelSyntaxError``,
which the CLI turns into one error line; any other exception would end in
a traceback.  The parser assembles its edges without ``EdgeTuple``'s
checks, so every parsed edge must equal the edge ``make_edge`` builds from
its fields.  Hypothesis is a test-only dependency.
"""

import sys

import pytest

from dpdetect import EdgeTuple, ModelSyntaxError, make_edge, parse_model

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
