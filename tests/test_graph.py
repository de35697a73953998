"""Edge encoding, graph construction, and connectivity."""

import copy
import itertools
import pickle
import random
import re

import pytest

from dpdetect import (
    ClassGraph,
    EdgeTuple,
    EmptyEdgeSetError,
    GraphIntegrityError,
    InvalidNodeError,
    RelationKind,
    is_weakly_connected,
    make_edge,
)
from helpers import SAMPLE_SYSTEM, edges


def test_make_edge_plain_association():
    edge = make_edge("a", "b", RelationKind.ASSOCIATION)
    assert edge.as_tuple() == ("a", "b", 1, 0)


def test_make_edge_self_loop_flag_is_derived():
    assert make_edge("A", "A", 1).as_tuple() == ("A", "A", 1, 1)
    assert make_edge("d", "c", RelationKind.DEPENDENCY).as_tuple() == ("d", "c", 2, 0)


def test_self_loop_cannot_be_supplied():
    with pytest.raises(TypeError):
        EdgeTuple("a", "b", RelationKind.ASSOCIATION, 1)


@pytest.mark.parametrize("bad", ["", "two words", "tab\there", "no#hash", None, 7])
def test_bad_identifiers_rejected(bad):
    with pytest.raises(InvalidNodeError):
        make_edge(bad, "b", 1)
    with pytest.raises(InvalidNodeError):
        make_edge("a", bad, 1)


def test_relation_codes_are_exactly_three():
    assert [int(k) for k in RelationKind] == [1, 2, 3]
    with pytest.raises(ValueError):
        make_edge("a", "b", 4)
    with pytest.raises(ValueError):
        make_edge("a", "b", 0)


def test_edges_store_the_plain_relation_code():
    edge = make_edge("a", "b", RelationKind.DEPENDENCY)
    assert type(edge[2]) is int and type(edge.relation) is int
    assert edge.relation == RelationKind.DEPENDENCY


@pytest.mark.parametrize(
    "relation", [1, 3, RelationKind.DEPENDENCY, True, 2.0, 0, 4, 1.5, "1", None, [1]]
)
def test_edges_accept_what_relation_kind_accepts(relation):
    try:
        expected = int(RelationKind(relation))
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            make_edge("a", "b", relation)
    else:
        assert make_edge("a", "b", relation).relation == expected


def test_edges_have_set_semantics():
    pool = {make_edge("a", "b", 1), make_edge("a", "b", 1)}
    assert len(pool) == 1
    # same endpoints, different relation: distinct edges
    pool.add(make_edge("a", "b", 3))
    assert len(pool) == 2


def test_edge_ordering_is_canonical():
    shuffled = [
        make_edge("c", "b", 1),
        make_edge("a", "c", 1),
        make_edge("a", "b", 3),
        make_edge("a", "b", 1),
    ]
    assert [e.as_tuple() for e in sorted(shuffled)] == [
        ("a", "b", 1, 0),
        ("a", "b", 3, 0),
        ("a", "c", 1, 0),
        ("c", "b", 1, 0),
    ]


def test_self_loop_flag_matches_equality_on_random_ids():
    rng = random.Random(11)
    names = [f"x{i}" for i in range(5)]
    for _ in range(200):
        src, tgt = rng.choice(names), rng.choice(names)
        edge = make_edge(src, tgt, rng.choice(tuple(RelationKind)))
        assert edge.self_loop == (1 if src == tgt else 0)


def _random_edges(rng, count):
    names = ["a", "b", "c", "a1", "b\u00e9", "\u4e2d"]
    return [
        make_edge(rng.choice(names), rng.choice(names), rng.choice(tuple(RelationKind)))
        for _ in range(count)
    ]


def test_edges_survive_pickle_and_copy():
    for edge in (make_edge("a", "b", 2), make_edge("x", "x", 1)):
        clones = [pickle.loads(pickle.dumps(edge, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        clones += [copy.copy(edge), copy.deepcopy(edge)]
        for clone in clones:
            assert type(clone) is EdgeTuple
            assert clone == edge and hash(clone) == hash(edge)
            assert clone.as_tuple() == edge.as_tuple()
            assert clone.relation is edge.relation


def test_edge_value_semantics_agree_with_as_tuple():
    rng = random.Random(5)
    pool = _random_edges(rng, 300)
    assert [e.as_tuple() for e in sorted(pool)] == sorted(e.as_tuple() for e in pool)
    for left, right in zip(pool, reversed(pool)):
        assert (left == right) == (left.as_tuple() == right.as_tuple())
        assert (left < right) == (left.as_tuple() < right.as_tuple())
        if left == right:
            assert hash(left) == hash(right)
    assert len(set(pool)) == len({e.as_tuple() for e in pool})


def test_edges_are_tuples_equal_to_their_as_tuple_form():
    rng = random.Random(6)
    for edge in _random_edges(rng, 50):
        assert isinstance(edge, tuple)
        assert edge == edge.as_tuple() and hash(edge) == hash(edge.as_tuple())


def _consistent(edge):
    return edge.self_loop == (1 if edge.source == edge.target else 0)


def test_no_public_attribute_yields_an_inconsistent_edge():
    edge = make_edge("a", "b", 1)
    attempts = [((), {}), (("a",), {}), ((1,), {}), ((), {"target": "a"}),
                ((), {"self_loop": 1}), ((["a", "a", 1, 0],), {})]
    for name in dir(edge):
        if name.startswith("__"):
            continue
        with pytest.raises(AttributeError):
            setattr(edge, name, "a")
        attribute = getattr(edge, name)
        if not callable(attribute):
            continue
        for args, kwargs in attempts:
            try:
                result = attribute(*args, **kwargs)
            except (TypeError, ValueError):
                continue
            assert not isinstance(result, EdgeTuple) or _consistent(result)
    for operation in (lambda e: e + ("x",), lambda e: e * 2, lambda e: e[:3], lambda e: e[:]):
        try:
            result = operation(edge)
        except TypeError:
            continue
        assert not isinstance(result, EdgeTuple) or _consistent(result)
    assert _consistent(edge) and edge.self_loop == 0


def test_graph_requires_declared_endpoints():
    with pytest.raises(GraphIntegrityError):
        ClassGraph(name="g", nodes=frozenset({"a"}), edges=frozenset({make_edge("a", "b", 1)}))


def test_undeclared_nodes_are_named_once_each_in_sorted_order():
    pool = frozenset({make_edge("b", "a", 1), make_edge("b", "b", 1), make_edge("c", "a", 2)})
    with pytest.raises(GraphIntegrityError, match="^edges reference undeclared nodes: a, b$"):
        ClassGraph(name="g", nodes=frozenset({"c"}), edges=pool)


def test_graph_allows_isolated_nodes():
    graph = ClassGraph(name="g", nodes=frozenset({"a", "b", "lone"}),
                       edges=frozenset({make_edge("a", "b", 1)}))
    assert "lone" in graph.nodes


def test_from_edges_collects_nodes():
    graph = ClassGraph.from_edges("g", [make_edge("a", "b", 1)], isolated=["z"])
    assert graph.nodes == {"a", "b", "z"}
    assert graph.edges == edges(("a", "b", 1))


def test_edge_set_of_sample_system():
    graph = ClassGraph.from_edges("sample", SAMPLE_SYSTEM)
    assert graph.edges == SAMPLE_SYSTEM
    assert len(graph.edges) == 6


def test_edge_set_empty_graph():
    assert ClassGraph(name="", nodes=frozenset(), edges=frozenset()).edges == frozenset()


def test_single_edge_is_connected():
    assert is_weakly_connected(edges(("a", "b", 1)))
    assert is_weakly_connected(edges(("a", "a", 1)))


def test_direction_is_ignored():
    assert is_weakly_connected(edges(("a", "b", 1), ("c", "b", 3)))
    assert is_weakly_connected(edges(("b", "a", 1), ("b", "c", 3)))


def test_disjoint_edges_are_not_connected():
    assert not is_weakly_connected(edges(("a", "b", 1), ("e", "c", 3)))


def test_connectivity_needs_at_least_one_edge():
    with pytest.raises(EmptyEdgeSetError):
        is_weakly_connected(frozenset())


def _union_find_connected(edge_pool):
    parent = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for edge in edge_pool:
        parent.setdefault(edge.source, edge.source)
        parent.setdefault(edge.target, edge.target)
        parent[find(edge.source)] = find(edge.target)
    return len({find(node) for node in parent}) == 1


def test_connectivity_agrees_with_union_find_exhaustively():
    # All subsets of size 1..6 drawn from an 8-edge pool over 6 nodes.
    pool = sorted(edges(
        ("a", "b", 1), ("b", "c", 2), ("d", "e", 3), ("e", "f", 1),
        ("a", "c", 3), ("f", "d", 2), ("c", "c", 1), ("b", "f", 3),
    ))
    checked = 0
    for size in range(1, 7):
        for subset in itertools.combinations(pool, size):
            assert is_weakly_connected(subset) == _union_find_connected(subset)
            checked += 1
    assert checked == sum(len(list(itertools.combinations(pool, s))) for s in range(1, 7))


def test_relabeling_commutes_with_graph_operations():
    rng = random.Random(7)
    names = [f"n{i}" for i in range(6)]
    for _ in range(50):
        pool = frozenset(
            make_edge(rng.choice(names), rng.choice(names), rng.choice(tuple(RelationKind)))
            for _ in range(rng.randint(1, 8))
        )
        mapping = dict(zip(names, rng.sample([f"m{i}" for i in range(6)], 6)))
        relabeled = frozenset(
            make_edge(mapping[e.source], mapping[e.target], e.relation) for e in pool
        )
        # make_edge commutes: relabeled edges keep relation and loop flag
        assert {(e.relation, e.self_loop) for e in pool} == {
            (e.relation, e.self_loop) for e in relabeled
        }
        assert is_weakly_connected(pool) == is_weakly_connected(relabeled)
        graph = ClassGraph.from_edges("g", pool)
        relabeled_graph = ClassGraph.from_edges("g", relabeled)
        assert relabeled_graph.edges == relabeled
        assert len(graph.edges) == len(relabeled_graph.edges)
