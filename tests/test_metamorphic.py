"""Metamorphic properties of ``detect`` on generated inputs.

Each property relates two runs whose answers are known to agree, so no
reference implementation is needed: renaming nodes, reordering the input
edges, or adding a system edge.  Hypothesis is a test-only dependency.
"""

import pytest

from dpdetect import detect, make_edge
from helpers import RELATIONS, relabel

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

NODES = ("a", "b", "c", "d", "e")

# Small examples keep each property to a fraction of a second; no example
# database is written to the working tree.
quick = hypothesis.settings(max_examples=60, deadline=None, database=None)

edge_specs = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.sampled_from(RELATIONS))
systems = st.lists(edge_specs, min_size=1, max_size=10)
patterns = st.lists(edge_specs, min_size=1, max_size=4)


def build(specs):
    return frozenset(make_edge(*spec) for spec in specs)


@quick
@hypothesis.given(systems, patterns, st.permutations(NODES), st.permutations(NODES))
def test_report_is_invariant_under_node_relabeling(system, pattern, system_names, pattern_names):
    system, pattern = build(system), build(pattern)
    rename_system = dict(zip(NODES, system_names))
    rename_pattern = dict(zip(NODES, pattern_names))
    before = detect(system, pattern)
    after = detect(relabel(system, rename_system), relabel(pattern, rename_pattern))
    assert after.verdict is before.verdict
    assert after.level == before.level
    assert after.table.system_edge_sets() == {
        relabel(row, rename_system) for row in before.table.system_edge_sets()
    }


@quick
@hypothesis.given(systems, patterns, st.randoms(use_true_random=False))
def test_report_is_invariant_under_input_edge_order(system, pattern, rng):
    edges_in = [make_edge(*spec) for spec in system]
    pattern_in = [make_edge(*spec) for spec in pattern]
    before = detect(edges_in, pattern_in)
    rng.shuffle(edges_in)
    rng.shuffle(pattern_in)
    # Whole-report equality: the witness of every row is unchanged too.
    assert detect(edges_in, pattern_in) == before


@quick
@hypothesis.given(systems, patterns, edge_specs)
def test_adding_a_system_edge_never_loses_ground(system, pattern, extra):
    system, pattern = build(system), build(pattern)
    before = detect(system, pattern)
    after = detect(system | {make_edge(*extra)}, pattern)
    assert (after.level or 0) >= (before.level or 0)
    if after.level == before.level:
        assert after.occurrences >= before.occurrences
