"""Matcher semantics: alignment, level search, verdicts, row checks."""

import copy
import gc
import itertools
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest

from dpdetect import (
    DetectionReport,
    EmptyPatternError,
    LevelOutOfRangeError,
    MatchRow,
    MatchTable,
    Verdict,
    builtin_catalog,
    check_table,
    detect,
    find_matches,
    is_weakly_connected,
    load_catalog,
    make_edge,
    oracle_detect,
    parse_model,
)
from dpdetect import matcher
from helpers import (
    RELATIONS,
    SAMPLE_SYSTEM,
    edges,
    pair_rows,
    random_instance,
    random_system,
    reports_agree,
    row_sets,
)

CATALOG = builtin_catalog()


# --- alignment rules ---------------------------------------------------------


def test_compatible_edge_extends_empty_mapping():
    table = find_matches(edges(("a", "b", 1)), edges(("P", "Q", 1)), 1)
    assert [row.mapping for row in table.rows] == [{"P": "a", "Q": "b"}]


def test_self_loop_flags_must_agree():
    assert find_matches(edges(("a", "b", 1)), edges(("A", "A", 1)), 1).rows == ()
    assert find_matches(edges(("a", "a", 1)), edges(("P", "Q", 1)), 1).rows == ()


def test_bound_endpoint_must_stay_consistent():
    # Both pattern edges end at a, so their images must share a target.
    pattern = edges(("c", "a", 3), ("d", "a", 3))
    assert find_matches(edges(("e", "c", 3), ("f", "b", 3)), pattern, 2).rows == ()
    table = find_matches(edges(("e", "c", 3), ("f", "c", 3)), pattern, 2)
    assert [row.mapping["a"] for row in table.rows] == ["c"]


def test_relation_codes_must_agree():
    assert find_matches(edges(("a", "b", 2)), edges(("P", "Q", 1)), 1).rows == ()


def test_injectivity_is_enforced():
    # P -> Q -> R would fold onto the 2-cycle if R could reuse P's node.
    system = edges(("a", "b", 1), ("b", "a", 1))
    assert find_matches(system, edges(("P", "Q", 1), ("Q", "R", 1)), 2).rows == ()


# --- find_matches golden tables -------------------------------------------


def test_facade_level_one_rows():
    table = find_matches(SAMPLE_SYSTEM, CATALOG.get("facade").edges, 1)
    assert pair_rows(table) == {
        frozenset({("a", "b")}),
        frozenset({("c", "b")}),
        frozenset({("a", "c")}),
    }


def test_composite_full_level_is_empty():
    assert find_matches(SAMPLE_SYSTEM, CATALOG.get("composite").edges, 3).rows == ()


def test_composite_level_two_rows():
    table = find_matches(SAMPLE_SYSTEM, CATALOG.get("composite").edges, 2)
    assert pair_rows(table) == {
        frozenset({("d", "b"), ("a", "b")}),
        frozenset({("d", "b"), ("c", "b")}),
        frozenset({("e", "c"), ("a", "c")}),
    }


def test_prototype_full_level_rows():
    table = find_matches(SAMPLE_SYSTEM, CATALOG.get("prototype").edges, 2)
    assert pair_rows(table) == {
        frozenset({("a", "b"), ("d", "b")}),
        frozenset({("a", "c"), ("e", "c")}),
        frozenset({("c", "b"), ("d", "b")}),
    }


def test_alt_orientation_flips_the_third_facade_row(sample_system_alt):
    table = find_matches(sample_system_alt.edges, CATALOG.get("facade").edges, 1)
    assert pair_rows(table) == {
        frozenset({("a", "b")}),
        frozenset({("c", "b")}),
        frozenset({("c", "a")}),
    }


@pytest.mark.parametrize("bad_level", [0, -1, 4])
def test_level_out_of_range(bad_level):
    with pytest.raises(LevelOutOfRangeError):
        find_matches(SAMPLE_SYSTEM, CATALOG.get("composite").edges, bad_level)


def test_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        find_matches(SAMPLE_SYSTEM, frozenset(), 1)
    with pytest.raises(EmptyPatternError):
        detect(SAMPLE_SYSTEM, frozenset())


# --- detect verdicts --------------------------------------------------------


def test_detect_golden_verdicts():
    expected = {
        "composite": (Verdict.PARTIAL, 2, 3),
        "facade": (Verdict.COMPLETE, 1, 3),
        "prototype": (Verdict.COMPLETE, 2, 3),
        "singleton": (Verdict.ABSENT, None, 0),
    }
    for name, (verdict, level, occurrences) in expected.items():
        report = detect(SAMPLE_SYSTEM, CATALOG.get(name).edges, pattern_name=name)
        assert report.verdict is verdict
        assert report.level == level
        assert report.occurrences == occurrences


def test_empty_system_is_absent():
    report = detect(frozenset(), CATALOG.get("facade").edges)
    assert report.verdict is Verdict.ABSENT
    assert report.occurrences == 0


def test_an_empty_system_is_absent_without_a_walk(monkeypatch):
    # Level 0 of a 12-edge chain would be grown, and the index of an empty
    # system would replace the kept one.
    model = edges(("a", "b", 3))
    kept = (model, matcher._SystemIndex(model))
    monkeypatch.setattr(matcher, "_kept", kept)
    grown = []
    monkeypatch.setattr(matcher, "_grown", lambda *args: grown.append(args) or [])
    chain = edges(*((f"c{i:02d}", f"c{i + 1:02d}", 3) for i in range(12)))
    report = detect(frozenset(), chain)
    assert grown == [] and matcher._kept is kept
    assert report == oracle_detect(frozenset(), chain)


def test_self_match_on_connected_systems():
    rng = random.Random(23)
    hits = 0
    while hits < 25:
        system = random_system(rng)
        if not is_weakly_connected(system):
            continue
        hits += 1
        report = detect(system, system)
        assert report.verdict is Verdict.COMPLETE
        assert report.occurrences >= 1


def test_singleton_counts_association_loops():
    system = edges(("x", "x", 1), ("y", "y", 1), ("x", "y", 2), ("z", "z", 3))
    report = detect(system, CATALOG.get("singleton").edges)
    assert report.verdict is Verdict.COMPLETE
    # the gen self-loop on z does not qualify
    assert report.occurrences == 2


def test_disconnected_pattern_cannot_exist_completely():
    pattern = edges(("p", "q", 1), ("r", "s", 2))
    system = edges(("x", "y", 1), ("u", "v", 2))
    report = detect(system, pattern)
    assert report.verdict is Verdict.PARTIAL
    assert report.level == 1
    assert report.occurrences == 2


@pytest.mark.parametrize(
    "system",
    [
        edges(("x", "y", 1), ("u", "v", 2)),
        # The same two pieces, joined into one component by a dependency.
        edges(("x", "y", 1), ("u", "v", 2), ("y", "u", 2)),
    ],
    ids=["split", "joined"],
)
def test_disconnected_pattern_top_level_is_empty_without_a_search(monkeypatch, system):
    pattern = edges(("p", "q", 1), ("r", "s", 2))
    searched = []
    original = matcher._embeddings

    def counting(index, plan):
        searched.append(plan)
        return original(index, plan)

    monkeypatch.setattr(matcher, "_embeddings", counting)
    assert find_matches(system, pattern, 2) == MatchTable(level=2)
    assert searched == []


def test_partial_fragments_must_be_connected():
    # Pattern is a connected three-edge chain; the two-edge fragment made of
    # its ends is disconnected and must not produce level-2 rows.
    pattern = edges(("p", "q", 1), ("q", "r", 2), ("r", "s", 3))
    system = edges(("x", "y", 1), ("z", "w", 3), ("y", "z", 1))
    table = find_matches(system, pattern, 2)
    assert table.rows == ()


def test_symmetric_mappings_collapse_to_one_row():
    pattern = edges(("b", "a", 3), ("c", "a", 3))
    system = edges(("x", "z", 3), ("y", "z", 3))
    report = detect(system, pattern)
    assert report.verdict is Verdict.COMPLETE
    assert report.occurrences == 1


# --- symmetric patterns ----------------------------------------------------


def _system_searches(monkeypatch, system, pattern):
    """The report of ``detect`` and a per-level ``Counter`` of the
    fragments it searched against the system."""
    searched = Counter()
    original = matcher._embeddings

    def counting(index, plan):
        if index is matcher._system_index(system):
            searched[len(plan[0])] += 1
        return original(index, plan)

    monkeypatch.setattr(matcher, "_embeddings", counting)
    monkeypatch.setattr(matcher, "_kept", (None, None))
    return detect(system, pattern), searched


def test_symmetric_star_searches_one_fragment_per_level(monkeypatch):
    # Three gen hubs sharing the same three leaves: every hub has in-degree 3.
    system = edges(*((f"x{i}", f"h{j}", 3) for i in range(3) for j in range(3)))
    pattern = edges(*((f"leaf{i}", "hub", 3) for i in range(8)))
    report, searched = _system_searches(monkeypatch, system, pattern)
    assert report.verdict is Verdict.PARTIAL and report.level == 3
    assert report == oracle_detect(system, pattern)
    # Every fragment below the top level is a star, so one search per level
    # covers all C(8, n) of them.
    assert searched[3] == 1
    assert all(count <= 1 for level, count in searched.items() if level < len(pattern))


def test_one_system_index_serves_the_whole_catalog(monkeypatch):
    rng = random.Random(31)
    system = random_system(rng, max_nodes=12, max_edges=40)
    built = Counter()

    class CountingIndex(matcher._SystemIndex):
        def __init__(self, indexed):
            super().__init__(indexed)
            built[indexed == system] += 1

    monkeypatch.setattr(matcher, "_SystemIndex", CountingIndex)
    monkeypatch.setattr(matcher, "_kept", (None, None))
    levels = Counter()
    original = matcher._search

    def counting(fragments, index, n, *rest):
        levels[n] += 1
        return original(fragments, index, n, *rest)

    monkeypatch.setattr(matcher, "_search", counting)
    for name in CATALOG.names():
        detect(system, CATALOG.get(name).edges, name)
    # Several patterns, several levels each, one index.
    assert sum(levels.values()) > len(CATALOG.names()) and len(levels) > 1
    assert built[True] == 1


def test_an_equal_system_takes_the_kept_ones_place(monkeypatch):
    rng = random.Random(33)
    system = random_system(rng, max_nodes=12, max_edges=40)
    copy = frozenset(list(system))
    assert copy == system and copy is not system
    built = Counter()

    class CountingIndex(matcher._SystemIndex):
        def __init__(self, indexed):
            super().__init__(indexed)
            built[indexed == system] += 1

    monkeypatch.setattr(matcher, "_SystemIndex", CountingIndex)
    monkeypatch.setattr(matcher, "_kept", (None, None))
    pattern = CATALOG.get("composite").edges
    first = detect(system, pattern, "composite")
    assert matcher._kept[0] is system
    assert detect(copy, pattern, "composite") == first
    # The copy is kept in its place with the index built for the first one.
    assert matcher._kept[0] is copy
    assert built[True] == 1


def test_index_reuse_across_models_matches_fresh_runs(monkeypatch):
    rng = random.Random(32)
    models = [random_system(rng, max_nodes=8, max_edges=14) for _ in range(2)]
    names = CATALOG.names()

    def fresh(system, name):
        monkeypatch.setattr(matcher, "_kept", (None, None))
        return detect(system, CATALOG.get(name).edges, name)

    expected = {(i, name): fresh(models[i], name) for i in (0, 1) for name in names}
    monkeypatch.setattr(matcher, "_kept", (None, None))
    for i in (0, 1, 0):
        for name in names:
            assert detect(models[i], CATALOG.get(name).edges, name) == expected[i, name]


def _symmetric_shape(rng):
    """A star (maybe of mixed relations, maybe with a self-loop on the hub)
    or a same-direction chain, with node names shuffled so the canonical
    fragment order varies."""
    kind = rng.choice(("star", "mixed star", "looped star", "chain"))
    size = rng.randint(2, 5)
    relation = rng.choice(RELATIONS)
    if kind == "chain":
        specs = [(f"c{i}", f"c{i + 1}", relation) for i in range(size)]
    else:
        inward = rng.random() < 0.5
        specs = []
        for i in range(size):
            leaf_relation = rng.choice(RELATIONS) if kind == "mixed star" else relation
            ends = (f"leaf{i}", "hub") if inward else ("hub", f"leaf{i}")
            specs.append((*ends, leaf_relation))
        if kind == "looped star":
            specs.append(("hub", "hub", 1))
    names = sorted({node for source, target, _ in specs for node in (source, target)})
    shuffled = [f"p{i}" for i in range(len(names))]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    return edges(*((rename[s], rename[t], r) for s, t, r in specs))


def test_witnesses_match_oracle_on_symmetric_shapes():
    rng = random.Random(4242)
    partial = 0
    for _ in range(300):
        pattern = _symmetric_shape(rng)
        system = random_system(rng)
        ours, reference = detect(system, pattern), oracle_detect(system, pattern)
        assert reports_agree(ours, reference)
        # Both keep the earliest fragment in canonical order for each row.
        assert [row.pattern_edges for row in ours.table.rows] == [
            row.pattern_edges for row in reference.table.rows
        ]
        partial += ours.verdict is Verdict.PARTIAL
    # Partial levels are where a symmetric shape has several isomorphic
    # fragments competing to be a row's witness.
    assert partial >= 100


def test_witness_is_least_in_canonical_order_not_in_fragment_order():
    # Canonical order places (a, z), (c, z), (b, c), (e, z), (d, e): the
    # least image sends c to x.  Read in fragment order, the least would
    # send b to p and so c to y.  The search order differs from both.
    pattern = edges(("a", "z", 1), ("b", "c", 1), ("c", "z", 1), ("d", "e", 1), ("e", "z", 1))
    system = edges(("w", "zz", 1), ("p", "y", 1), ("y", "zz", 1), ("q", "x", 1), ("x", "zz", 1))
    fragment = tuple(sorted(pattern))
    plan = matcher._plan(fragment, matcher._types(fragment))
    assert [step[4] for step in plan[0]] == [1, 2, 4, 3, 0]
    report = detect(system, pattern)
    pairs = [("w", "zz"), ("q", "x"), ("x", "zz"), ("p", "y"), ("y", "zz")]
    witness = tuple(make_edge(source, target, 1) for source, target in pairs)
    assert report.verdict is Verdict.COMPLETE
    assert [row.system_edges for row in report.table.rows] == [witness]


def _canonical_order(fragment):
    """The canonical placement order, stated again: the first remaining
    edge in fragment order that touches a node placed before it, or else
    the first remaining edge."""
    placed, order = set(), []
    remaining = list(range(len(fragment)))
    while remaining:
        pick = next((p for p in remaining if placed & set(fragment[p][:2])), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        placed.update(fragment[pick][:2])
    return order


def _images_onto(fragment, image_edges):
    """Every aligned image of ``fragment`` onto exactly ``image_edges``,
    by brute force over the orderings of those edges."""
    for image in itertools.permutations(image_edges):
        mapping = {}
        if all(
            p[2:] == s[2:]
            and mapping.setdefault(p.source, s.source) == s.source
            and mapping.setdefault(p.target, s.target) == s.target
            for p, s in zip(fragment, image)
        ) and len(set(mapping.values())) == len(mapping):
            yield image


def _symmetric_instance(rng):
    """A one-relation cycle, two twin stars joined hub to hub, K2,2, or a
    star of two 2-edge legs and a leaf, with shuffled node names, against
    copies of it on a few system nodes plus a few random edges of its
    relation.  The legged star, half of the instances, is the shape whose
    least images differ between canonical, search and fragment order."""
    relation = rng.choice(RELATIONS)
    kind = rng.choice(("cycle", "twin stars", "K2,2", "legs", "legs", "legs"))
    if kind == "cycle":
        size = rng.randint(3, 5)
        specs = [(f"c{i}", f"c{(i + 1) % size}") for i in range(size)]
    elif kind == "twin stars":
        specs = [("h0", "h1")] + [(f"l{hub}{i}", f"h{hub}") for hub in (0, 1) for i in range(2)]
    elif kind == "K2,2":
        specs = [(f"a{i}", f"b{j}") for i in range(2) for j in range(2)]
    else:
        specs = [(f"f{i}", f"k{i}") for i in range(2)] + [(f"k{i}", "h") for i in range(2)]
        specs.append(("leaf", "h"))
    names = sorted({node for spec in specs for node in spec})
    shuffled = [f"p{i}" for i in range(len(names))]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    pattern = edges(*((rename[s], rename[t], relation) for s, t in specs))
    pool = [f"s{i}" for i in range(8)]
    system = set()
    for _ in range(rng.randint(1, 2)):
        placed = dict(zip(names, rng.sample(pool, len(names))))
        system |= edges(*((placed[s], placed[t], relation) for s, t in specs))
    for _ in range(rng.randint(0, 3)):
        system.add(make_edge(rng.choice(pool), rng.choice(pool), relation))
    return frozenset(system), pattern


def test_witness_is_the_least_image_in_canonical_order(monkeypatch):
    # Filed in production chunks, and in chunks of 2, where a key's images
    # fall in several chunks and an earlier chunk's row must be compared
    # with the later ones.
    for chunk in (matcher._CHUNK, 2):
        monkeypatch.setattr(matcher, "_CHUNK", chunk)
        rng = random.Random(2020)
        other_first = other_in_fragment_order = 0
        for _ in range(300):
            system, pattern = _symmetric_instance(rng)
            for row in detect(system, pattern).table.rows:
                fragment = row.pattern_edges
                images = list(_images_onto(fragment, row.system_edges))

                def least(order):
                    return min(images, key=lambda image: [image[p] for p in order])

                assert row.system_edges == least(_canonical_order(fragment)), chunk
                # Rows whose witness is not the image the search meets
                # first, nor the least image read in fragment order.
                plan = [step[4] for step in matcher._plan(fragment, matcher._types(fragment))[0]]
                other_first += least(plan) != row.system_edges
                other_in_fragment_order += least(range(len(fragment))) != row.system_edges
        assert other_first >= 20 and other_in_fragment_order >= 20


# --- failed prefixes -------------------------------------------------------


def test_chain_longer_than_every_path_skips_the_levels_between(monkeypatch):
    # A width-2, depth-4 gen DAG: every class generalizes both classes of
    # the next layer, so its longest path has 3 edges.  The search of level
    # 8 fails with a 4-edge path, which every level from 7 to 4 contains.
    layers = [[f"d{depth}{place}" for place in range(2)] for depth in range(4)]
    pairs = zip(layers, layers[1:])
    system = edges(*((a, b, 3) for upper, lower in pairs for a in upper for b in lower))
    pattern = edges(*((f"c{i}", f"c{i + 1}", 3) for i in range(8)))
    report, searched = _system_searches(monkeypatch, system, pattern)
    assert sorted(searched, reverse=True) == [8, 3]
    assert report == oracle_detect(system, pattern)
    assert report.verdict is Verdict.PARTIAL and report.level == 3


# Gen stars against gen hubs that are all too narrow for them.
_RING_OF_THREE_HUBS = edges(
    ("x0", "h0", 3), ("x1", "h0", 3), ("x1", "h1", 3),
    ("x2", "h1", 3), ("x2", "h2", 3), ("x0", "h2", 3),
)
_HUBS_SHARING_THREE_LEAVES = edges(*((f"x{i}", f"h{j}", 3) for i in range(3) for j in range(3)))


@pytest.mark.parametrize(
    "system, leaves, levels",
    [
        # Hubs of in-degree 2 in a ring of shared leaves.  At level 6 the
        # third leaf finds candidates, but both are taken, so the search
        # fails with a 3-leaf star, which levels 5 to 3 contain.
        (_RING_OF_THREE_HUBS, 6, [6, 2]),
        # Hubs of in-degree 3.  The search at level 5 fails with a 4-leaf
        # star, which level 4 contains.
        (_HUBS_SHARING_THREE_LEAVES, 5, [5, 3]),
    ],
    ids=["ring-6", "shared-5"],
)
def test_star_wider_than_every_hub_skips_levels(monkeypatch, system, leaves, levels):
    pattern = edges(*((f"leaf{i}", "hub", 3) for i in range(leaves)))
    report, searched = _system_searches(monkeypatch, system, pattern)
    assert sorted(searched, reverse=True) == levels
    assert report == oracle_detect(system, pattern)
    assert report.verdict is Verdict.PARTIAL and report.level == levels[-1]


def test_a_lesson_with_checks_skips_a_fragment_its_edges_would_not(monkeypatch):
    # The system has no dependency, so the search of the first 2-edge
    # fragment, p0 -> p2 dep and p1 -> p0 gen, places nothing at step 1,
    # the dep edge, and learns that step with its one check: a dep edge out
    # of a node with a gen in-edge.  The fragment p0 -> p2 dep and
    # p2 -> p0 gen contains it and is not searched.  As fragment edges that
    # give each node its fragment types, the lesson is the whole first
    # fragment, no smaller than a level-2 fragment, so it would be dropped.
    pattern = edges(("p0", "p2", 2), ("p1", "p0", 3), ("p2", "p0", 1), ("p2", "p0", 3))
    system = edges(("s3", "s2", 1), ("s3", "s3", 3))
    report, searched = _system_searches(monkeypatch, system, pattern)
    assert searched[2] == 4
    assert report == oracle_detect(system, pattern)
    assert (report.verdict, report.level, report.occurrences) == (Verdict.PARTIAL, 1, 1)


def _detect_searching_every_level(system, pattern, search):
    """``detect`` without failed prefixes: every level is searched with
    an empty list of them."""
    for n, fragments in matcher._levels(pattern, min(len(pattern), len(system))):
        table = search(fragments, matcher._system_index(system), n, [])
        if table.rows:
            return DetectionReport("", len(pattern), table)
    return DetectionReport("", len(pattern), MatchTable(level=0))


def test_failed_prefixes_change_no_report(monkeypatch):
    original = matcher._search
    remembered = []

    def recording(fragments, index, n, failed):
        remembered.append(failed)
        return original(fragments, index, n, failed)

    monkeypatch.setattr(matcher, "_search", recording)
    # Symmetric shapes, and patterns whose hubs have edges of several types,
    # so that failing prefixes carry checks.
    symmetric, several = random.Random(1414), random.Random(1415)
    instances = [(_symmetric_shape(symmetric), random_system(symmetric)) for _ in range(300)]
    instances += [(_fragment_test_pattern(several), random_system(several)) for _ in range(300)]
    learned = checked = 0
    for pattern, system in instances:
        remembered.clear()
        ours = detect(system, pattern)
        # The whole report, witnesses included.
        assert ours == _detect_searching_every_level(system, pattern, original)
        lessons = [lesson for failed in remembered for lesson in failed]
        learned += bool(lessons)
        checked += any(len(codes) > len(structure) for structure, codes in lessons)
    # The instances that learned a prefix are those the skip can change;
    # more than half of each kind learn one that carries checks.
    assert learned >= 300 and checked >= 300


# --- fragment enumeration --------------------------------------------------


def _twin_leaf_swaps(pattern):
    """Every node relabeling that permutes leaves within their twin groups.

    A leaf is a node with exactly one incident edge that is not a loop;
    twins hang off the same node with the same relation and direction."""
    incident = Counter()
    for source, target, _, _ in pattern:
        incident[source] += 1
        incident[target] += 1  # a loop counts twice, so it makes no leaf
    groups = {}
    for source, target, relation, _ in pattern:
        if incident[source] == 1:
            groups.setdefault((target, relation, "out"), []).append(source)
        elif incident[target] == 1:
            groups.setdefault((source, relation, "in"), []).append(target)
    orders = [itertools.permutations(leaves) for leaves in groups.values()]
    for choice in itertools.product(*orders):
        yield {
            leaf: moved
            for leaves, chosen in zip(groups.values(), choice)
            for leaf, moved in zip(leaves, chosen)
        }


def _reference_fragments(pattern, n):
    """The connected size-``n`` combinations of the sorted pattern edges
    that are lexicographically least in their twin-leaf orbit, in order."""
    swaps = list(_twin_leaf_swaps(pattern))
    kept = []
    for combination in itertools.combinations(sorted(pattern), n):
        if not is_weakly_connected(combination):
            continue
        orbit = (
            tuple(sorted((swap.get(s, s), swap.get(t, t), r, l) for s, t, r, l in combination))
            for swap in swaps
        )
        if combination == min(orbit):
            kept.append(combination)
    return kept


def _fragment_test_pattern(rng):
    """Up to nine edges: hubs with twin leaf groups, hub self-loops,
    parallel edges of different relations, and sometimes a second
    component."""
    specs = set()
    hubs = [f"h{i}" for i in range(rng.randint(1, 3))]
    for a, b in zip(hubs, hubs[1:]):
        for relation in rng.sample(RELATIONS, rng.randint(1, 2)):
            specs.add((a, b, relation))
    for hub in hubs:
        if rng.random() < 0.3:
            specs.add((hub, hub, rng.choice(RELATIONS)))
        for group in range(rng.randint(0, 2)):
            relation, inward = rng.choice(RELATIONS), rng.random() < 0.5
            for leaf in range(rng.randint(1, 3)):
                name = f"{hub}g{group}l{leaf}"
                specs.add((name, hub, relation) if inward else (hub, name, relation))
    if rng.random() < 0.3 or not specs:
        specs.add(("x", "y", rng.choice(RELATIONS)))
        if rng.random() < 0.5:
            specs.add(("z", "y", rng.choice(RELATIONS)))
    # Shuffle node names so the canonical order of edges varies.
    names = sorted({node for source, target, _ in specs for node in (source, target)})
    shuffled = [f"n{i}" for i in range(len(names))]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    chosen = rng.sample(sorted(specs), min(len(specs), 9))
    return edges(*((rename[s], rename[t], r) for s, t, r in chosen))


def test_eligible_fragments_match_the_filtered_combinations():
    rng = random.Random(2014)
    twinned = disconnected = 0
    for _ in range(150):
        pattern = _fragment_test_pattern(rng)
        levels = list(range(1, len(pattern) + 1))
        expected = {n: _reference_fragments(pattern, n) for n in levels}
        # Both the downward walk and direct calls at any level in any order.
        rng.shuffle(levels)
        walk = [(n, list(fragments)) for n, fragments in matcher._levels(pattern, len(pattern))]
        assert walk == [(n, expected[n]) for n in range(len(pattern), 0, -1)]
        incident, twin_prev, _ = matcher._pattern_facts(pattern)
        for n in levels:
            assert list(next(matcher._levels(pattern, n))[1]) == expected[n]
            # Growing gives the same level, however a walk started at n makes it.
            assert sorted(matcher._grown(incident, twin_prev, n)) == expected[n]
        twinned += len(list(_twin_leaf_swaps(pattern))) > 1
        disconnected += not is_weakly_connected(pattern)
    assert twinned >= 50 and disconnected >= 10


def _count_connectivity_checks(monkeypatch):
    calls = []
    original = matcher.is_weakly_connected

    def counting(fragment):
        calls.append(len(fragment))
        return original(fragment)

    monkeypatch.setattr(matcher, "is_weakly_connected", counting)
    return calls


def test_wide_star_has_one_fragment_per_level():
    pattern = edges(*((f"leaf{i:02d}", "hub", 3) for i in range(16)))
    assert [len(fragments) for _, fragments in matcher._levels(pattern, 16)] == [1] * 16


class _CountingDict(dict):
    """A dict that counts the lookups made in it."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_growing_a_twin_star_takes_one_leaf_per_step():
    pattern = edges(*((f"leaf{i:03d}", "hub", 3) for i in range(600)))
    incident, twin_prev, _ = matcher._pattern_facts(pattern)
    counted = _CountingDict(twin_prev)
    grown = matcher._grown(incident, counted, 590)
    assert sorted(grown) == [tuple(sorted(pattern))[:590]]
    # Scanning every waiting twin at every step makes about 360,000 lookups.
    assert counted.lookups <= 2000


def test_long_chain_derives_each_level_from_the_one_above(monkeypatch):
    pattern = edges(*((f"p{i:02d}", f"p{i + 1:02d}", 3) for i in range(24)))
    calls = _count_connectivity_checks(monkeypatch)
    for n, fragments in matcher._levels(pattern, 24):
        assert len(fragments) == 25 - n
        if n == 13:
            break
    # Filtering combinations would test about seven million of them.
    assert len(calls) <= 1500


def test_complete_digraph_levels_cost_linear_in_the_level_above(monkeypatch):
    nodes = [f"v{i}" for i in range(5)]
    pattern = edges(*((a, b, 1) for a in nodes for b in nodes if a != b))
    calls = _count_connectivity_checks(monkeypatch)
    sizes = []
    for n, fragments in matcher._levels(pattern, 20):
        sizes.append(len(fragments))
        if n == 17:
            break
    assert sizes == [1, 20, 190, 1140]
    assert len(calls) <= 2000


# --- row and table invariants ----------------------------------------------


def test_rows_are_sound_on_random_instances():
    rng = random.Random(91)
    for _ in range(150):
        system, pattern = random_instance(rng)
        report = detect(system, pattern)
        check_table(report.table, system, pattern)
        for row in report.table.rows:
            assert set(row.system_edges) <= system
            assert len(set(row.system_edges)) == len(row.system_edges)
            assert is_weakly_connected(row.system_edges)
            assert len(set(row.mapping.values())) == len(row.mapping)
            for pattern_edge, system_edge in zip(row.pattern_edges, row.system_edges):
                image = make_edge(
                    row.mapping[pattern_edge.source],
                    row.mapping[pattern_edge.target],
                    pattern_edge.relation,
                )
                assert image == system_edge


def test_level_is_maximal_on_random_instances():
    rng = random.Random(92)
    for _ in range(150):
        system, pattern = random_instance(rng)
        report = detect(system, pattern)
        floor = report.level if report.level is not None else 0
        for level in range(floor + 1, len(pattern) + 1):
            assert find_matches(system, pattern, level).rows == ()


def test_adding_system_edges_never_loses_matches():
    rng = random.Random(93)
    for _ in range(100):
        system, pattern = random_instance(rng)
        before = detect(system, pattern)
        grown = system | random_system(rng, max_edges=4)
        after = detect(grown, pattern)
        before_level = before.level or 0
        after_level = after.level or 0
        assert after_level >= before_level
        if after_level == before_level and before_level > 0:
            assert after.occurrences >= before.occurrences
            assert row_sets(before.table) <= row_sets(after.table)


def test_relabeling_preserves_reports():
    from helpers import random_bijection, relabel

    rng = random.Random(94)
    for _ in range(60):
        system, pattern = random_instance(rng)
        bijection = random_bijection(rng, system)
        mirrored = detect(relabel(system, bijection), pattern)
        original = detect(system, pattern)
        assert mirrored.verdict is original.verdict
        assert mirrored.level == original.level
        assert mirrored.occurrences == original.occurrences
        assert row_sets(mirrored.table) == {
            frozenset(relabel(row, bijection)) for row in row_sets(original.table)
        }


def test_match_table_rejects_out_of_order_rows():
    pattern = CATALOG.get("facade").edges
    table = find_matches(SAMPLE_SYSTEM, pattern, 1)
    backwards = MatchTable(level=1, rows=tuple(reversed(table.rows)))
    with pytest.raises(ValueError, match="canonically ordered"):
        check_table(backwards, SAMPLE_SYSTEM, pattern)


def test_match_table_level_zero_must_be_empty():
    pattern = CATALOG.get("facade").edges
    rows = find_matches(SAMPLE_SYSTEM, pattern, 1).rows
    with pytest.raises(ValueError, match="level-0"):
        check_table(MatchTable(level=0, rows=rows), SAMPLE_SYSTEM, pattern)


def test_match_row_validates_alignment():
    # The endpoints line up, but an association is sent onto a dependency.
    row = MatchRow(
        pattern_edges=(make_edge("P", "Q", 1),),
        system_edges=(make_edge("a", "b", 2),),
    )
    with pytest.raises(ValueError, match="does not align"):
        check_table(MatchTable(level=1, rows=(row,)), edges(("a", "b", 2)), edges(("P", "Q", 1)))


ROOT = Path(__file__).resolve().parents[1]


def _replace(record, **changes):
    """A copy of ``record`` built by its constructor, with ``changes``."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def test_match_row_stores_only_its_alignment():
    assert MatchRow.__slots__ == ("pattern_edges", "system_edges")
    pattern = (make_edge("P", "Q", 1), make_edge("Q", "R", 2))
    row = MatchRow(pattern, (make_edge("a", "b", 1), make_edge("b", "c", 2)))
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.system_edges = ()
    twin = MatchRow(tuple([*pattern]), tuple([*row.system_edges]))
    assert twin == row and hash(twin) == hash(row)
    copies = [pickle.loads(pickle.dumps(row, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(row), copy.deepcopy(row), _replace(row)]
    for other in copies:
        assert type(other) is MatchRow and other == row and hash(other) == hash(row)
        assert other.mapping == row.mapping == {"P": "a", "Q": "b", "R": "c"}


@pytest.mark.parametrize(
    "model, patterns",
    [
        ("demo/sample_system.cg", "demo/patterns"),
        ("tests/fixtures/symmetric/model.cg", "tests/fixtures/symmetric/patterns"),
        ("tests/fixtures/cycles/model.cg", "tests/fixtures/cycles/patterns"),
    ],
)
def test_row_mapping_is_keyed_in_fragment_order(model, patterns):
    system = parse_model((ROOT / model).read_text(encoding="utf-8")).edges
    catalog = load_catalog(ROOT / patterns)
    rows = [
        row
        for name in catalog.names()
        for row in detect(system, catalog.get(name).edges, name).table.rows
    ]
    assert rows
    for row in rows:
        # The values are checked in test_rows_are_sound_on_random_instances.
        first_seen = dict.fromkeys(
            node for edge in row.pattern_edges for node in (edge.source, edge.target)
        )
        assert list(row.mapping) == list(first_seen)


def _corrupt_row(table, **changes):
    first = _replace(table.rows[0], **changes)
    return _replace(table, rows=(first, *table.rows[1:]))


def _join_rows(table):
    """One level-2 row out of two level-1 rows of a disconnected pattern."""
    first, second = table.rows
    joined = MatchRow(
        pattern_edges=first.pattern_edges + second.pattern_edges,
        system_edges=first.system_edges + second.system_edges,
    )
    return MatchTable(level=2, rows=(joined,))


def _whole_fork(table):
    """The whole fork pattern aligned with both system edges, which sends
    both of its sources to x."""
    system, pattern = INSTANCES["fork"]
    return MatchTable(level=2, rows=(MatchRow(tuple(sorted(pattern)), tuple(sorted(system))),))


# composite on the sample system is partial at level 2 with three rows; the
# split pattern is two detached edges, partial at level 1 with two rows; the
# fork's sources must be distinct, so it is partial at level 1 with two rows.
INSTANCES = {
    "composite": (SAMPLE_SYSTEM, CATALOG.get("composite").edges),
    "split": (edges(("x", "y", 1), ("u", "v", 2)), edges(("p", "q", 1), ("r", "s", 2))),
    "fork": (edges(("x", "y", 1), ("x", "y", 3)), edges(("p", "q", 1), ("r", "q", 3))),
}

# Corruption -> (instance, corrupt the instance's real table, rule broken).
CORRUPTIONS = {
    "system edge outside the model": (
        "composite",
        lambda t: _corrupt_row(
            t, system_edges=(make_edge("x", "y", 3), *t.rows[0].system_edges[1:])
        ),
        "must come from the system",
    ),
    "pattern edge outside the pattern": (
        "composite",
        lambda t: _corrupt_row(
            t, pattern_edges=(make_edge("b", "a", 2), *t.rows[0].pattern_edges[1:])
        ),
        "must come from the pattern",
    ),
    "repeated edge within a row": (
        "composite",
        lambda t: _corrupt_row(
            t,
            pattern_edges=t.rows[0].pattern_edges[:1] * 2,
            system_edges=t.rows[0].system_edges[:1] * 2,
        ),
        "must be distinct",
    ),
    "non-injective mapping": ("fork", _whole_fork, "must be injective"),
    "pattern node sent to two system nodes": (
        "composite",
        # The first row sends a to b; (a, c) keeps the relation but sends a to c.
        lambda t: _corrupt_row(
            t, system_edges=(t.rows[0].system_edges[0], make_edge("a", "c", 1))
        ),
        "does not align",
    ),
    "misaligned edge": (
        "composite",
        lambda t: _corrupt_row(t, system_edges=t.rows[0].system_edges[::-1]),
        "does not align",
    ),
    "disconnected image": ("split", _join_rows, "weakly connected"),
    "wrong row length": (
        "composite",
        lambda t: _corrupt_row(
            t,
            pattern_edges=t.rows[0].pattern_edges[:1],
            system_edges=t.rows[0].system_edges[:1],
        ),
        "exactly `level` edges",
    ),
    "level above the pattern size": (
        "composite",
        lambda t: _replace(t, level=4),
        "outside 0..3",
    ),
    "reversed row order": (
        "composite",
        lambda t: _replace(t, rows=t.rows[::-1]),
        "unique and canonically ordered",
    ),
    "duplicate row": (
        "composite",
        lambda t: _replace(t, rows=(t.rows[0], *t.rows)),
        "unique and canonically ordered",
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_row_check_rejects_each_corruption(corruption):
    instance, corrupt, rule = CORRUPTIONS[corruption]
    system, pattern = INSTANCES[instance]
    table = detect(system, pattern).table
    check_table(table, system, pattern)
    with pytest.raises(ValueError, match=rule):
        check_table(corrupt(table), system, pattern)


def test_report_verdict_and_level_are_read_off_the_table():
    facade = find_matches(SAMPLE_SYSTEM, CATALOG.get("facade").edges, 1)
    composite = find_matches(SAMPLE_SYSTEM, CATALOG.get("composite").edges, 2)
    reports = [
        (DetectionReport("facade", 1, facade), Verdict.COMPLETE, 1, 3),
        (DetectionReport("composite", 3, composite), Verdict.PARTIAL, 2, 3),
        (DetectionReport("composite", 3, MatchTable(level=0)), Verdict.ABSENT, None, 0),
    ]
    for report, verdict, level, occurrences in reports:
        assert (report.verdict, report.level, report.occurrences) == (verdict, level, occurrences)
    assert DetectionReport.__slots__ == ("pattern_name", "pattern_size", "table")
    assert not hasattr(reports[0][0], "__dict__")


def test_pattern_needing_a_missing_relation_matches_oracle():
    system = edges(("a", "b", 1), ("b", "c", 1))  # no gen edges at all
    pattern = edges(("p", "q", 1), ("q", "r", 3))
    assert detect(system, pattern) == oracle_detect(system, pattern)


# --- resources ----------------------------------------------------------------


def test_detection_leaves_no_reference_cycles():
    def run_catalog():
        for name in CATALOG.names():
            detect(SAMPLE_SYSTEM, CATALOG.get(name).edges, name)

    run_catalog()  # warm the system index cache
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            run_catalog()
        assert gc.collect() == 0
    finally:
        gc.enable()
