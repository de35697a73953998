"""``dpdetect detect --verify`` on generated model and catalog files.

Every run must end in exit 0 or 1, never in an exception, and an exit 1
must say why in exactly one stderr line.  The inputs are kept small enough
that the brute-force reference runs on every pattern, so an exit 0 has an
empty stderr, and a detector that disagreed with the reference would exit
2.  Hypothesis is a test-only dependency.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from dpdetect.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

WORDS = ("assoc", "dep", "gen")
MODEL_NODES = ("a", "b", "c", "d", "e")
PATTERN_NODES = tuple(f"p{i}" for i in range(6))

# Lines the parser rejects (a second header, a late one or a duplicate
# class), and bytes that are not UTF-8.
BAD_LINES = (
    "frobnicate a b", "assoc a", "gen a b c", "model x y", "class a\nclass a", "model late"
)
NOT_UTF8 = (b"\xff", b"\xc3\x28", b"\x80assoc a b")

words = st.sampled_from(WORDS)


def edge_lists(nodes, min_size, max_size):
    nodes = st.sampled_from(nodes)
    return st.lists(st.tuples(words, nodes, nodes), min_size=min_size, max_size=max_size)


@st.composite
def chains(draw):
    steps = draw(st.lists(st.tuples(words, st.booleans()), min_size=1, max_size=8))
    return [
        (word, f"p{i}", f"p{i + 1}") if forward else (word, f"p{i + 1}", f"p{i}")
        for i, (word, forward) in enumerate(steps)
    ]


@st.composite
def stars(draw):
    """Leaves around one hub, all pointing the same way, so the leaves of
    each relation are twins."""
    inward = draw(st.booleans())
    leaves = draw(st.lists(words, min_size=1, max_size=8))
    return [
        (word, f"leaf{i}", "hub") if inward else (word, "hub", f"leaf{i}")
        for i, word in enumerate(leaves)
    ]


# A model has at most 6 edges on 5 nodes and a pattern at most 8 edges, so
# patterns are often larger than their model.  Random edge lists also give
# empty and disconnected patterns and self-loops.
models = edge_lists(MODEL_NODES, 0, 6)
patterns = st.one_of(
    edge_lists(PATTERN_NODES, 0, 8),
    chains(),
    stars(),
    edge_lists(PATTERN_NODES[:3], 5, 8),
)


@st.composite
def files(draw, edges, names):
    """The bytes of one ``.cg`` file: mostly valid, sometimes with a line
    the parser rejects or bytes that are not UTF-8."""
    name = draw(names)
    lines = [f"model {name}"] if draw(st.booleans()) else []
    lines += [" ".join(edge) for edge in draw(edges)]
    fault = draw(st.sampled_from((None,) * 10 + ("line", "bytes")))
    if fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    data = ("\n".join(lines) + "\n").encode()
    if fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(
    files(models, st.just("m")),
    st.lists(files(patterns, st.sampled_from(("x", "y", "facade"))), min_size=1, max_size=3),
    st.booleans(),
)
def test_verified_detect_exits_cleanly(model, catalog, json_format):
    with tempfile.TemporaryDirectory() as work:
        model_path, catalog_path = Path(work, "model.cg"), Path(work, "patterns")
        model_path.write_bytes(model)
        catalog_path.mkdir()
        for number, data in enumerate(catalog):
            (catalog_path / f"p{number}.cg").write_bytes(data)
        argv = ["detect", str(model_path), "--catalog", str(catalog_path), "--verify"]
        if json_format:
            argv += ["--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1
        assert out.getvalue() == ""
    else:
        assert code == 0, err.getvalue()
        assert err.getvalue() == ""
        assert out.getvalue()
