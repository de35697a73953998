"""Model text format: parsing, canonical rendering, round-trips."""

import random
import string

import pytest

from dpdetect import (
    ClassGraph,
    ModelSyntaxError,
    RelationKind,
    builtin_catalog,
    make_edge,
    parse_model,
    render_model,
)
from helpers import SAMPLE_SYSTEM, edges


def test_parse_sample_system(sample_system_text):
    graph = parse_model(sample_system_text)
    assert graph.name == "sample-system"
    assert graph.nodes == {"a", "b", "c", "d", "e"}
    assert graph.edges == SAMPLE_SYSTEM


def test_selfassoc_builds_association_loop():
    graph = parse_model("class A\nselfassoc A\n")
    assert graph.edges == edges(("A", "A", 1))


def test_assoc_with_equal_endpoints_equals_selfassoc():
    assert parse_model("assoc a a\n").edges == parse_model("selfassoc a\n").edges


def test_empty_text_is_empty_graph():
    graph = parse_model("")
    assert graph.name == ""
    assert graph.nodes == frozenset()
    assert graph.edges == frozenset()


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nmodel demo\nclass a  # trailing comment\n\n# more\nassoc a b\n"
    graph = parse_model(text)
    assert graph.name == "demo"
    assert graph.edges == edges(("a", "b", 1))


def test_line_separator_inside_a_comment_stays_in_the_comment():
    assert parse_model("class a\n# note \u2028 x\nassoc a b\n").edges == edges(("a", "b", 1))
    with pytest.raises(ModelSyntaxError, match="line 3: unknown directive 'bogus'"):
        parse_model("class a\n# note \u2028 x\nbogus a\n")


def test_relationships_auto_declare_classes():
    graph = parse_model("assoc a b\ngen c b\n")
    assert graph.nodes == {"a", "b", "c"}


def test_explicit_class_after_auto_declaration_is_fine():
    graph = parse_model("assoc a b\nclass a\n")
    assert graph.nodes == {"a", "b"}


@pytest.mark.parametrize(
    "text, line",
    [
        ("assoc a\n", 1),
        ("class\n", 1),
        ("assoc a b c\n", 1),
        ("class a\nfriend a b\n", 2),
        ("class a\nclass a\n", 2),
        # The first bad line in file order is reported.
        ("class a\nclass a\nfriend a b\n", 2),
        ("model m\nclass a\nmodel m2\n", 3),
        ("class a\nmodel late\n", 2),
        ("model\n", 1),
        ("class a\r\nassoc a\r\n", 2),
        ("class a\rassoc a\r", 2),
        # Only \n, \r\n and \r end a line, though str.splitlines breaks at each of these.
        *((f"class a{sep}\nassoc a\n", 2) for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    ],
)
def test_syntax_errors_carry_line_numbers(text, line):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_render_empty_named_graph_is_header_only():
    graph = ClassGraph(name="empty", nodes=frozenset(), edges=frozenset())
    assert render_model(graph) == "model empty\n"


def test_render_anonymous_empty_graph_is_empty_text():
    graph = ClassGraph(name="", nodes=frozenset(), edges=frozenset())
    assert render_model(graph) == ""


def test_render_is_canonical_and_sorted():
    graph = ClassGraph.from_edges(
        "demo",
        [make_edge("c", "b", 1), make_edge("a", "b", 3), make_edge("a", "b", 1),
         make_edge("b", "b", 1)],
        isolated=["z"],
    )
    assert render_model(graph) == (
        "model demo\n"
        "class a\nclass b\nclass c\nclass z\n"
        "assoc a b\ngen a b\nselfassoc b\nassoc c b\n"
    )


def test_render_facade_builtin_lines():
    text = render_model(builtin_catalog().get("facade"))
    assert text.splitlines() == ["model facade", "class P", "class Q", "assoc P Q"]


def test_render_parse_round_trip_on_sample(sample_system):
    assert parse_model(render_model(sample_system)) == sample_system


def test_render_is_stable():
    graph = builtin_catalog().get("composite")
    assert render_model(graph) == render_model(graph)


def _random_graph(rng):
    alphabet = string.ascii_lowercase + string.digits
    count = rng.randint(0, 12)
    names = set()
    while len(names) < count:
        names.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))))
    names = sorted(names)
    pool = set()
    if names:
        for _ in range(rng.randint(0, 14)):
            pool.add(make_edge(rng.choice(names), rng.choice(names),
                               rng.choice(tuple(RelationKind))))
    graph_name = rng.choice(["", "m-" + "".join(rng.choice(alphabet) for _ in range(4))])
    return ClassGraph(name=graph_name, nodes=frozenset(names), edges=frozenset(pool))


def test_round_trip_on_random_graphs():
    rng = random.Random(404)
    for _ in range(60):
        graph = _random_graph(rng)
        assert parse_model(render_model(graph)) == graph


def test_parse_then_graph_equivalence_between_fixtures(sample_system, sample_system_alt):
    # Only the orientation of the a/c association differs between the fixtures.
    flipped = {make_edge("c", "a", 1)}
    assert sample_system.edges - sample_system_alt.edges == {make_edge("a", "c", 1)}
    assert sample_system_alt.edges - sample_system.edges == flipped
