"""The compiled search: ``matcher._embeddings`` and the code it runs."""

import gc
import math
import random
import re
import tracemalloc
import types
from operator import itemgetter
from pathlib import Path

import pytest

from dpdetect import (
    builtin_catalog,
    detect,
    is_weakly_connected,
    load_catalog,
    make_edge,
    oracle_detect,
    oracle_find_matches,
    parse_model,
)
from dpdetect import matcher
from helpers import RELATIONS, edges, random_system, relabel


def _images(pattern, system, lessons=None):
    """The images ``_embeddings`` finds for the whole pattern, each checked
    to be an injective node map that carries every edge onto its image.

    If ``lessons`` is given, ``_search`` searches the pattern too and
    appends its failing prefix there, if it learns one; the prefix is
    checked to embed into the pattern and not into the system."""
    fragment = tuple(sorted(pattern))
    index = matcher._SystemIndex(frozenset(system))
    images = list(matcher._embeddings(index, matcher._plan(fragment, matcher._types(fragment)))[0])
    if lessons is not None:
        known = len(lessons)
        matcher._search([fragment], index, len(fragment), lessons)
        for lesson in lessons[known:]:
            assert next(matcher._embeddings(index, lesson)[0], None) is None
            assert next(matcher._embeddings(matcher._SystemIndex(fragment), lesson)[0], None)
    for image in images:
        mapping = {}
        for edge, target in zip(fragment, image):
            assert edge[2:] == target[2:]
            assert mapping.setdefault(edge[0], target[0]) == target[0]
            assert mapping.setdefault(edge[1], target[1]) == target[1]
        assert len(image) == len(fragment) and len(set(mapping.values())) == len(mapping)
    return images


def _connected_pattern(rng, max_nodes=5, max_edges=6):
    """A random weakly connected pattern: each edge after the first has an
    endpoint among the nodes placed before it.  Self-loops and all three
    relation codes occur."""
    nodes = ["p0"]
    pattern = set()
    for _ in range(rng.randint(1, max_edges)):
        old = rng.choice(nodes)
        if len(nodes) < max_nodes and rng.random() < 0.6:
            other = f"p{len(nodes)}"
            nodes.append(other)
        else:
            other = rng.choice(nodes)
        source, target = (old, other) if rng.random() < 0.5 else (other, old)
        pattern.add(make_edge(source, target, rng.choice(RELATIONS)))
    return frozenset(pattern)


def test_images_match_the_oracle_on_random_patterns():
    rng = random.Random(1616)
    loops = relations = found = 0
    for _ in range(300):
        pattern = _connected_pattern(rng)
        system = random_system(rng, max_nodes=7, max_edges=6)
        if rng.random() < 0.5:
            # Plant a copy of the pattern on the system's node names.
            nodes = sorted({node for edge in pattern for node in edge[:2]})
            names = rng.sample([f"n{i}" for i in range(7)], len(nodes))
            system |= relabel(pattern, dict(zip(nodes, names)))
        images = _images(pattern, system)
        assert len(images) == len(set(images))
        reference = oracle_find_matches(system, pattern, len(pattern))
        assert {frozenset(image) for image in images} == reference.system_edge_sets()
        if images:
            found += 1
            loops += any(edge.self_loop for edge in pattern)
            relations += len({edge.relation for edge in pattern}) == 3
    # The instances that find images cover what the search distinguishes.
    assert found >= 120 and loops >= 40 and relations >= 20


# Every table code: 3 relations x 2 loop flags x 4 kinds.
CODES = [(r, loop, kind) for r in RELATIONS for loop in (False, True) for kind in range(4)]


def test_every_index_table_is_a_filter_of_the_system_edges():
    # A step's table holds the edges of its relation and loop flag, keyed on
    # nothing, the source, the target or both, in sorted tuples.  A new
    # index holds no table; reading a code builds its table, and a code the
    # system lacks gets an empty one.
    keys = (lambda edge: None, itemgetter(0), itemgetter(1), itemgetter(0, 1))
    assert len(CODES) == 24
    rng = random.Random(1618)
    loops = relations = lacking = 0
    for _ in range(100):
        system = random_system(rng, max_nodes=6, max_edges=16)
        index = matcher._SystemIndex(system)
        assert len(index) == 0
        for relation, self_loop, kind in CODES:
            chosen = sorted(e for e in system if e[2:] == (relation, self_loop))
            key = keys[kind]
            expected = {key(e): tuple(x for x in chosen if key(x) == key(e)) for e in chosen}
            assert index[relation, self_loop, kind] == expected
            lacking += not chosen
        assert len(index) == len(CODES)
        loops += any(edge.self_loop for edge in system)
        relations += len({edge.relation for edge in system}) == 3
    assert loops >= 50 and relations >= 50 and lacking >= 100


def _twin_star(rng):
    """A hub with two to four twin leaves of one relation and direction,
    and sometimes one more edge at the hub: a self-loop or an edge of
    another relation."""
    relation = rng.choice(RELATIONS)
    outward = rng.random() < 0.5
    star = {
        make_edge(*(("hub", f"leaf{i}") if outward else (f"leaf{i}", "hub")), relation)
        for i in range(rng.randint(2, 4))
    }
    if rng.random() < 0.5:
        star.add(make_edge("hub", rng.choice(["hub", "other"]), rng.choice(RELATIONS)))
    return frozenset(star)


def test_only_the_tables_read_are_built_and_reports_do_not_change(monkeypatch):
    # Every index, the kept system index and each fragment's own, holds
    # exactly the tables the searches run against it read, and an index
    # that builds all 24 tables up front gives the same reports, witnesses
    # included.
    lazy_index, original = matcher._SystemIndex, matcher._embeddings

    class EagerIndex(lazy_index):
        def __init__(self, edges):
            super().__init__(edges)
            for code in CODES:
                self[code]

    reads = {}  # id of each index searched -> (the index, the codes read from it)

    def recording(index, plan):
        reads.setdefault(id(index), (index, set()))[1].update(plan[1])
        return original(index, plan)

    catalog = builtin_catalog()
    rng = random.Random(2424)
    loops = relations = twins = fragment_indexes = 0
    for _ in range(200):
        system = random_system(rng, max_nodes=7, max_edges=12)
        patterns = [catalog.get(name).edges for name in catalog.names()]
        patterns += [_connected_pattern(rng), _twin_star(rng)]
        monkeypatch.setattr(matcher, "_embeddings", recording)
        monkeypatch.setattr(matcher, "_kept", (None, None))
        reads.clear()
        lazy = [detect(system, pattern) for pattern in patterns]
        kept = matcher._kept[1]
        assert set(kept) == reads.get(id(kept), (kept, set()))[1]
        for index, read in reads.values():
            assert set(index) == read
        fragment_indexes += len(reads) - (id(kept) in reads)
        monkeypatch.setattr(matcher, "_embeddings", original)
        monkeypatch.setattr(matcher, "_SystemIndex", EagerIndex)
        monkeypatch.setattr(matcher, "_kept", (None, None))
        assert [detect(system, pattern) for pattern in patterns] == lazy
        assert len(matcher._kept[1]) == len(CODES)
        monkeypatch.setattr(matcher, "_SystemIndex", lazy_index)
        loops += any(edge.self_loop for edge in system)
        relations += len({edge.relation for edge in system}) == 3
        twins += lazy[-1].level is not None and lazy[-1].level > 1
    assert loops >= 120 and relations >= 100 and twins >= 40 and fragment_indexes >= 1000


def _chain(length, name="c", relation=3):
    return edges(*((f"{name}{i:03d}", f"{name}{i + 1:03d}", relation) for i in range(length)))


def _cycle(length, name="y"):
    return edges(*((f"{name}{i:03d}", f"{name}{(i + 1) % length:03d}", 3) for i in range(length)))


@pytest.mark.parametrize("steps", [15, 16, 17, 32, 33])
def test_plans_across_window_boundaries_find_every_image(steps):
    # A window of the generated search closes at 16 nodes, and an n-edge
    # chain binds n + 1 in n steps: these plans end on either side of a
    # window boundary.
    fragment = tuple(sorted(_chain(steps)))
    structure = matcher._plan(fragment, matcher._types(fragment))[0]
    assert len(structure) == steps
    assert sorted(slot for step in structure for slot in step[2:4] if slot) == list(
        range(1, steps + 2)
    )
    # An n-edge chain against an L-edge path: one image per start.
    for length in (steps - 1, steps, steps + 3):
        path = sorted(_chain(length, "s"))
        images = _images(_chain(steps), path)
        assert len(images) == len(set(images)) == max(length - steps + 1, 0)
        assert set(images) == {tuple(path[i : i + steps]) for i in range(len(images))}
    # Against the same path run both ways, a walk that turns back meets a
    # bound node, also one bound in an earlier window: two images per start.
    both_ways = _chain(steps + 2, "s") | relabel(
        _chain(steps + 2, "s"), {f"s{i:03d}": f"s{steps + 2 - i:03d}" for i in range(steps + 3)}
    )
    images = _images(_chain(steps), both_ways)
    assert len(images) == len(set(images)) == 2 * 3
    # The closing edge of a cycle keys on a node bound in the first window.
    assert len(set(_images(_cycle(steps), _cycle(steps, "z")))) == steps
    assert _images(_cycle(steps), _cycle(steps + 1, "z")) == []
    # Around a cycle of its edge count, a chain's last node meets its first,
    # which is two windows back at 33 steps.
    assert _images(_chain(steps), _cycle(steps, "z")) == []


def test_plan_counts_a_self_loop_as_both_its_endpoints_bound():
    # The first step, (a, b), binds a and b.  The loop at b then has two
    # endpoints bound, and (a, c) and (c, a) one each, so the loop is placed
    # next, though (a, c) has more types at its endpoints (5 against 4).
    # Counted once, the loop would tie (a, c) on bound endpoints and lose.
    pattern = edges(("a", "b", 3), ("a", "c", 2), ("b", "b", 1), ("c", "a", 3))
    fragment = tuple(sorted(pattern))
    plan = matcher._plan(fragment, matcher._types(fragment))
    assert [step[4] for step in plan[0]] == [0, 2, 1, 3]


def test_images_stay_aligned_with_the_fragment_when_the_plan_reorders_it():
    # c has two edge types, so (b, c) and (c, z) outrank (a, z) and (b, c),
    # the first of them, is placed first; (c, z) keys on c, and (a, z) on z.
    # The canonical order places (c, z) before (b, c), which touches no node
    # placed before it.
    pattern = edges(("a", "z", 3), ("b", "c", 3), ("c", "z", 3))
    fragment = tuple(sorted(pattern))
    assert [step[4] for step in matcher._plan(fragment, matcher._types(fragment))[0]] == [1, 2, 0]
    assert matcher._canonical(fragment) == [0, 2, 1]
    system = edges(("x", "y", 3), ("u", "v", 3), ("v", "y", 3))
    aligned = tuple(make_edge(s, t, 3) for s, t in (("x", "y"), ("u", "v"), ("v", "y")))
    assert _images(pattern, system) == [aligned]


def test_a_1000_step_plan_compiles_to_source_linear_in_its_steps():
    # One generator expression has no nesting limit: a 1,000-edge chain
    # finds the one image in a 1,001-node path.
    path = sorted(_chain(1000, "s"))
    assert _images(_chain(1000), path) == [tuple(path)]
    # Each node is compared with the nodes of its own window only, so the
    # source per step stays bounded as the plan grows.
    for steps in (40, 100, 300, 1000):
        fragment = tuple(sorted(_chain(steps)))
        structure = matcher._plan(fragment, matcher._types(fragment))[0]
        assert len(matcher._source(structure)) < 320 * steps


def _lesson_edges(fragment, lesson):
    """The fragment edges a learned plan places, and its check count."""
    structure, codes = lesson
    return [fragment[step[4]] for step in structure], len(codes) - len(structure)


def test_a_3000_step_plan_compiles_and_learns_where_it_failed():
    # The search counts its placed steps with one mark, so nothing in its
    # source nests deeper as the plan grows: a 3,000-edge chain compiles
    # and finds no image in a 3-edge chain.  Only the chain's middle edge
    # has two nodes with an in- and an out-edge, so step 2 places nothing:
    # the failing prefix is steps 1 and 2, whose 3 nodes each have a check.
    chain = _chain(3000)
    lessons = []
    assert _images(chain, _chain(3, "s"), lessons) == []
    [lesson] = lessons
    placed, checks = _lesson_edges(tuple(sorted(chain)), lesson)
    assert (len(placed), checks) == (2, 3) and is_weakly_connected(placed)
    fragment = tuple(sorted(_chain(5)))
    source = matcher._source(matcher._plan(fragment, matcher._types(fragment))[0])
    assert "f0" not in source and source.count(" := ") == 4


@pytest.mark.parametrize("leaves, hub", [(1, 1), (2, 4), (3, 3), (3, 5), (4, 6), (2, 1)])
def test_star_images_are_the_rising_leaf_choices(leaves, hub):
    # The leaves are twins, so their images rise in fragment order: one
    # image per choice of leaves, not one per ordering of them.
    star = edges(*((f"leaf{i}", "hub", 3) for i in range(leaves)))
    system = edges(*((f"x{i}", "h", 3) for i in range(hub)))
    images = _images(star, system)
    assert len(images) == len(set(images)) == math.comb(hub, leaves)
    for image in images:
        sources = [edge.source for edge in image]
        assert sources == sorted(set(sources))


def test_a_7_leaf_star_against_a_14_child_hub_places_each_leaf_choice_once(monkeypatch):
    # Every ordering of the leaves would be 14!/7! = 17,297,280 images.
    star = edges(*((f"leaf{i}", "hub", 3) for i in range(7)))
    system = edges(*((f"x{i:02}", "h", 3) for i in range(14)))
    fragment = tuple(sorted(star))
    plan = matcher._plan(fragment, matcher._types(fragment))
    index = matcher._SystemIndex(system)
    images, _ = matcher._embeddings(index, plan)
    assert sum(1 for _ in images) == math.comb(14, 7) == 3432
    # Each image is its own row, so no filing chunk meets a repeated key,
    # and none of the 7 chunks builds a canonical reader.
    assert math.ceil(3432 / matcher._CHUNK) == 7
    calls, original = [], matcher._canonical
    monkeypatch.setattr(matcher, "_canonical", lambda fragment: calls.append(1) or original(fragment))
    assert len(matcher._search([fragment], index, 7, [])) == 3432
    assert calls == []


def test_each_consecutive_twin_pair_gets_one_rising_test():
    # Three gen leaves into one hub, and two dep leaves out of another hub
    # next to two assoc leaves into it: four consecutive twin pairs.  The
    # later of each pair in plan order, which is also the later in
    # fragment order, tests that its image is above its twin's.
    specs = [("a1", "A", 3), ("a2", "A", 3), ("a3", "A", 3), ("B", "b1", 2), ("B", "b2", 2)]
    specs += [("c1", "B", 1), ("c2", "B", 1)]
    a1, a2, a3, b1, b2, c1, c2 = (make_edge(*spec) for spec in specs)
    fragment = tuple(sorted({a1, a2, a3, b1, b2, c1, c2, make_edge("A", "B", 1)}))
    structure = matcher._plan(fragment, matcher._types(fragment))[0]
    tests = [(i, step[7]) for i, step in enumerate(structure) if step[7] is not None]
    pairs = {(fragment[structure[j][4]], fragment[structure[i][4]]) for i, j in tests}
    assert len(tests) == 4 and all(j < i for i, j in tests)
    assert pairs == {(a1, a2), (a2, a3), (b1, b2), (c1, c2)}
    found = re.findall(r"\be(\d+) > e(\d+)\b", matcher._source(structure))
    assert sorted((int(i), int(j)) for i, j in found) == tests


def test_a_key_with_many_images_holds_one_row_at_a_time():
    # Four gen 2-paths into a hub against ten: no two paths are twins, so
    # 10!/6! = 5,040 images fall on 210 keys.  Filing them a chunk at a
    # time keeps the traced peak near the rows' size, not the images'.
    branches = [(f"a{i}", "hub", 3) for i in range(4)] + [(f"b{i}", f"a{i}", 3) for i in range(4)]
    fragment = tuple(sorted(edges(*branches)))
    system = edges(*((f"x{i}", "h", 3) for i in range(10)), *((f"y{i}", f"x{i}", 3) for i in range(10)))
    index = matcher._SystemIndex(system)
    matcher._search([fragment], index, len(fragment), [])
    tracemalloc.start()
    try:
        table = matcher._search([fragment], index, len(fragment), [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == math.comb(10, 4) == 210
    assert peak < 1000 * len(table)
    canonical = itemgetter(*matcher._canonical(fragment))
    rows = {row.system_key(): canonical(row.system_edges) for row in table.rows}
    images = matcher._embeddings(index, matcher._plan(fragment, matcher._types(fragment)))[0]
    least = {}
    for image in images:
        key = tuple(sorted(image))
        least[key] = min(least.get(key, canonical(image)), canonical(image))
    assert rows == least


def test_a_failed_search_is_learned_across_a_window_boundary(monkeypatch):
    # Two disjoint 20-edge gen paths: the longest path has 20 edges, and 19
    # nodes of each have an in- and an out-edge.  The search places 18
    # steps, which bind 19 nodes that each need both, and step 19 places
    # nothing: the failing prefix is 19 steps whose 20 nodes each have a
    # check, past the first window.
    system = _chain(20, "a") | _chain(20, "b")
    chain = _chain(40)
    lessons = []
    assert _images(chain, system, lessons) == []
    [lesson] = lessons
    placed, checks = _lesson_edges(tuple(sorted(chain)), lesson)
    assert (len(placed), checks) == (19, 20) and is_weakly_connected(placed)
    # Every level from 39 down to 21 contains that prefix and is skipped.
    searched = []
    original = matcher._embeddings

    def recording(index, plan):
        if index is matcher._system_index(system):
            searched.append(len(plan[0]))
        return original(index, plan)

    monkeypatch.setattr(matcher, "_embeddings", recording)
    report = detect(system, chain)
    assert (report.level, report.occurrences) == (20, 2)
    assert searched == [40, 20]


def test_each_searched_fragment_reads_its_typed_incidence_once(monkeypatch):
    # ``_search`` reads a fragment's typed incidence once for both its
    # class key and its plan, so the only other reader is
    # ``_pattern_facts``.  The fixtures' k4 descends to level 3, and chain8
    # and star6 learn lessons, so every branch of ``_search`` runs.
    calls = dict.fromkeys(("_types", "_pattern_facts", "_shape", "_plan"), 0)
    for name in calls:
        original = getattr(matcher, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(matcher, name, counting)
    fixtures = Path(__file__).parent / "fixtures"
    for fixture in ("dense", "descent"):
        system = parse_model((fixtures / fixture / "model.cg").read_text(encoding="utf-8")).edges
        catalog = load_catalog(fixtures / fixture / "patterns")
        for name in catalog.names():
            detect(system, catalog.get(name).edges, name)
    assert calls["_plan"] > 0
    assert calls["_types"] == calls["_pattern_facts"] + calls["_shape"]


@pytest.mark.parametrize(
    "pattern, system",
    [
        # A node with an assoc self-loop and a dep out-edge, against nodes
        # that have only one of the two.
        (
            edges(("a", "a", 1), ("a", "b", 2)),
            edges(("x", "x", 1), ("u", "u", 1), ("y", "z", 2), ("v", "w", 2), ("x", "w", 1)),
        ),
        # A node with an assoc and a dep out-edge, against nodes with one.
        (edges(("a", "b", 1), ("a", "c", 2)), edges(("x", "y", 1), ("u", "v", 2))),
        # A node with an assoc and a gen in-edge, against nodes with one.
        (edges(("a", "b", 1), ("c", "b", 3)), edges(("x", "y", 1), ("u", "v", 3), ("v", "y", 2))),
    ],
)
def test_type_checks_reject_every_root_and_learn_the_whole_fragment(pattern, system):
    # The first plan edge embeds on its own, but every root candidate lacks
    # one of its node's other types, so step 1 places nothing.  The failing
    # prefix is step 1 with its one check, which stands for the other edge:
    # it states the whole fragment.  It is smaller than the fragment, so it
    # is learned; no 1-edge fragment contains it, so level 1 is searched.
    fragment = tuple(sorted(pattern))
    first = fragment[matcher._plan(fragment, matcher._types(fragment))[0][0][4]]
    assert oracle_find_matches(system, [first], 1).rows
    lessons = []
    assert _images(pattern, system, lessons) == []
    [lesson] = lessons
    assert _lesson_edges(fragment, lesson) == ([first], 1)
    report = detect(system, pattern)
    assert report == oracle_detect(system, pattern)
    assert report.level == 1


# Node identifiers that would change the meaning of Python source if any
# reached it: quotes, backslashes, braces, calls, non-ASCII text, and the
# names the generated code itself uses.
ODD_NAMES = [
    '"', "'", '"""', "\\", "\\n", "{", "}", "{0}", "%s", ")", "];",
    "__import__('os').getcwd()", "é", "中文", "e0", "n1", "get", "codes", "t0", "None",
    "tables", "empty", "c0", "c1", "d",
]


def _odd_relabeling(edge_pool, rng):
    nodes = sorted({node for edge in edge_pool for node in edge[:2]})
    names = rng.sample(ODD_NAMES, len(nodes))
    return dict(zip(nodes, names))


def test_no_model_text_reaches_the_generated_code(monkeypatch):
    compiled = matcher._compiled
    searches = []

    def recording(structure):
        searches.append((structure, compiled(structure)))
        return searches[-1][1]

    monkeypatch.setattr(matcher, "_compiled", recording)
    rng = random.Random(1617)
    for _ in range(60):
        system = random_system(rng, max_nodes=8, max_edges=14)
        pattern = _connected_pattern(rng, max_nodes=6, max_edges=5)
        odd_system = relabel(system, _odd_relabeling(system, rng))
        odd_pattern = relabel(pattern, _odd_relabeling(pattern, rng))
        plain, odd = detect(system, pattern), detect(odd_system, odd_pattern)
        assert (odd.verdict, odd.level, odd.occurrences) == (
            plain.verdict,
            plain.level,
            plain.occurrences,
        )
    assert searches
    for structure, search in searches:
        source = matcher._source(structure)
        assert source.isascii() and not {"'", '"', "\\"} & set(source)
        codes = [search.__code__]
        for code in codes:
            nested = [c for c in code.co_consts if isinstance(c, types.CodeType)]
            # Python 3.10 keeps each nested function's qualified name as a
            # constant beside its code object.
            names = {f"{code.co_name}.<locals>.{inner.co_name}" for inner in nested}
            for constant in code.co_consts:
                assert (
                    constant is None
                    or type(constant) is int
                    or isinstance(constant, types.CodeType)
                    or constant in names
                )
            codes += nested


def test_compiled_searches_are_shared_by_structure_in_a_bounded_cache():
    assert matcher._compiled.cache_info().maxsize is not None
    matcher._compiled.cache_clear()
    system = edges(("a", "b", 3), ("b", "c", 3), ("a", "d", 1), ("d", "e", 2))
    assert _images(edges(("p", "q", 3), ("q", "r", 3)), system) == [
        tuple(sorted(edges(("a", "b", 3), ("b", "c", 3))))
    ]
    info = matcher._compiled.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    # Other relation codes, the same plan structure: the same entry.
    assert _images(edges(("p", "q", 1), ("q", "r", 2)), system) == [
        tuple(sorted(edges(("a", "d", 1), ("d", "e", 2))))
    ]
    info = matcher._compiled.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_class_tests_reuse_the_compiled_searches_of_representatives():
    # The complete assoc digraph on 4 nodes against a 4-edge model: the walk
    # down to level 2 class-tests hundreds of fragments, whose own plans
    # mostly differ, against a few representatives each.  Searching with
    # the fragments' own plans compiles 291 structures here.
    nodes = ["k0", "k1", "k2", "k3"]
    pattern = edges(*((a, b, 1) for a in nodes for b in nodes if a != b))
    system = edges(("m3", "m0", 1), ("m0", "m7", 1), ("m2", "m1", 1), ("m4", "m5", 1))
    matcher._compiled.cache_clear()
    report = detect(system, pattern)
    assert (report.level, report.occurrences) == (2, 1)
    assert matcher._compiled.cache_info().misses <= 60


def test_a_dropped_compiled_search_leaves_no_reference_cycle():
    _images(_chain(33), _chain(34, "s"))  # three windows
    gc.collect()
    gc.disable()
    try:
        matcher._compiled.cache_clear()
        assert gc.collect() == 0
    finally:
        gc.enable()
