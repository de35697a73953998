"""Every level against networkx's VF2 monomorphism search.

The brute-force oracle stops at 12 edges and 8 nodes; this reference has no
such guard, so it checks ``detect`` and ``find_matches`` on systems of
hundreds of edges, including the levels below the complete one that the
failing prefixes of failed searches prune.  An ordered node pair carries
the set of relations on its edges, and a pattern pair matches a system pair
whose set contains it.  networkx is a test-only reference and never a
dependency of dpdetect.
"""

import itertools
import random

import pytest

from dpdetect import Verdict, detect, find_matches, make_edge
from helpers import RELATIONS

networkx = pytest.importorskip("networkx")


def relation_graph(edges):
    graph = networkx.DiGraph()
    for edge in edges:
        graph.add_edge(edge.source, edge.target)
        graph.edges[edge.source, edge.target].setdefault("relations", set()).add(edge.relation)
    return graph


def reference_images(system, pattern):
    """The distinct system edge sets that ``pattern`` maps onto."""
    search = networkx.isomorphism.DiGraphMatcher(
        relation_graph(system),
        relation_graph(pattern),
        edge_match=lambda in_system, in_pattern: in_pattern["relations"] <= in_system["relations"],
    )
    images = set()
    for monomorphism in search.subgraph_monomorphisms_iter():
        image = {p_node: s_node for s_node, p_node in monomorphism.items()}
        images.add(
            frozenset(make_edge(image[e.source], image[e.target], e.relation) for e in pattern)
        )
    return images


def connected_pattern(rng, size):
    """A weakly connected pattern of ``size`` edges; each new edge touches
    the nodes placed so far, and some are self-loops."""
    nodes = ["p0"]
    out = set()
    while len(out) < size:
        source = rng.choice(nodes)
        roll = rng.random()
        if roll < 0.1:
            target = source
        elif roll < 0.6:
            target = f"p{len(nodes)}"
        else:
            target = rng.choice(nodes)
        if target not in nodes:
            nodes.append(target)
        if rng.random() < 0.5:
            source, target = target, source
        out.add(make_edge(source, target, rng.choice(RELATIONS)))
    return frozenset(out)


def random_large_system(rng, size, pattern):
    """``size`` random edges, with ``pattern`` planted under a random
    injective map in most trials."""
    names = [f"n{i}" for i in range(rng.randint(size // 5, size // 2))]
    out = set()
    if rng.random() < 0.7:
        pattern_nodes = sorted({n for e in pattern for n in (e.source, e.target)})
        image = dict(zip(pattern_nodes, rng.sample(names, len(pattern_nodes))))
        out.update(make_edge(image[e.source], image[e.target], e.relation) for e in pattern)
    while len(out) < size:
        source = rng.choice(names)
        target = source if rng.random() < 0.02 else rng.choice(names)
        out.add(make_edge(source, target, rng.choice(RELATIONS)))
    return frozenset(out)


@pytest.mark.parametrize("seed", range(20))
def test_complete_level_matches_networkx(seed):
    rng = random.Random(seed)
    pattern = connected_pattern(rng, rng.randint(2, 6))
    system = random_large_system(rng, rng.randint(100, 600), pattern)
    report = detect(system, pattern)
    ours = report.table.system_edge_sets() if report.verdict is Verdict.COMPLETE else set()
    assert ours == reference_images(system, pattern)


def connected(edges):
    """Whether ``edges`` hang together when their directions are ignored."""
    reached, stack = set(), [edges[0].source]
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack += (e.target if e.source == node else e.source for e in edges if node in e[:2])
    return all(e.source in reached for e in edges)


@pytest.mark.parametrize("seed", range(20))
def test_every_level_matches_networkx(seed):
    # At each level, the rows are the union of the images of the pattern's
    # connected fragments of that size, and detect stops at the largest
    # level whose union is not empty.
    rng = random.Random(seed)
    pattern = connected_pattern(rng, rng.randint(2, 6))
    system = random_large_system(rng, rng.randint(100, 600), pattern)
    expected = {}
    for n in range(1, len(pattern) + 1):
        fragments = filter(connected, itertools.combinations(sorted(pattern), n))
        expected[n] = set().union(*(reference_images(system, fragment) for fragment in fragments))
        assert find_matches(system, pattern, n).system_edge_sets() == expected[n]
    report = detect(system, pattern)
    assert report.level == max((n for n in expected if expected[n]), default=None)
    assert report.table.system_edge_sets() == expected.get(report.level, set())
