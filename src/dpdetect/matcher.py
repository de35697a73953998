"""Inexact detection of pattern edge sets inside a system edge set.

The detector looks for the largest level ``n`` at which some ``n``-edge
fragment of the pattern embeds into the system.  A fragment embeds when an
injective node mapping sends each of its edges onto a distinct system edge
with the same relation code and self-loop flag, and the matched system
edges hang together as one weakly connected piece.  Every distinct matched
system subset at the winning level is reported as one occurrence.

Levels are tried downward: a hit at the top level means the pattern
exists completely, a hit below it means partial existence, and no hit at
any level means absence.  At every level only fragments that are
themselves weakly connected are eligible, so a partial occurrence is always
a coherent piece of the pattern rather than scattered edges.  A fragment
with more edges than the system cannot embed, so the walk starts at the
smaller of the two edge counts and never searches a larger level.

Fragments come in canonical order, the order in which
``itertools.combinations`` lists subsets of the sorted pattern edges, but
the combinations are never walked.  One generator, ``_levels``, walks the
levels and holds the pattern's facts and the current level as local state.
It derives each level from the one above: every fragment there loses one
edge, and each connected result is kept once, so a level costs work linear
in the level above instead of in ``C(m, n)``.  The first level it yields,
``top``, is built from the pattern alone.  When ``m - top``, the number of
levels between it and the pattern's edge count ``m``, is less than the
pattern's mean node degree, the walk starts at level ``m``, the pattern
itself, and derives the levels down to ``top`` without yielding those
above it; otherwise ``_grown`` grows level ``top`` from single edges
(ESU, Wernicke 2006).  Deriving pays for a test of every drop, most of
which disconnect a sparse fragment, so it is the cheaper way only near
the top, and nearer still the sparser the pattern.  Twin leaves, nodes
whose one edge has the same type and hangs off the same node, are
interchangeable, so of each orbit under their swaps only the first
member in canonical order is kept: the one that takes a prefix of each
twin group's sorted edges.  The fragments left are sorted into
typed-isomorphism classes as they come: a fragment joins a class when it
has the class's ``_shape``, each node's count of edges of each type, and
the class's first fragment embeds into an index built over the
fragment's own edges.  Only the first fragment of each class is searched
against the system, because every other member finds exactly the same
occurrences.  The first member of a class is also the
first of its orbit, so each row's witness is still the earliest fragment
in canonical order that reaches its system edges, together with that
fragment's least image onto them (see below).  A generalization star
thus has one fragment per level: a 16-leaf star against 61 edges with 15
hubs of in-degree 3 takes about 2.5 ms on a 2-CPU machine.

A search that finds nothing still tells the rest of the walk something.
``_plan`` orders a connected fragment so that each prefix of its plan is
connected.  If the search placed a candidate at steps 1 to ``Q`` only, it
tried every injective placement of those steps whose nodes pass their
type checks, and step ``Q + 1`` placed nothing for any of them.  The
failing prefix is the plan's first ``Q + 1`` steps with their checks,
itself a plan.  Suppose it embeds into a fragment ``F`` that embeds into
the system.  Its checks hold in ``F``, and the image of a node of ``F``
has every type the node has, so the two maps compose into an injective
placement of steps 1 to ``Q`` that passes every check and gives step
``Q + 1`` a candidate.  The search found none, so no such ``F`` embeds
into the system.  ``detect`` keeps one pattern's failing prefixes as local
state, and ``_search`` tests each against a fragment's own index, the one
its class test reads; a fragment that contains one is skipped.  Skipped
fragments have no rows, so no table changes.  The search keeps one mark,
the number of steps that placed a candidate, which a placement raises
only when it is the first at its step.  A 12-edge gen chain against a
gen DAG whose paths have at most 6 edges is searched at levels 12 and 6
only: the search at level 12 places nothing at step 5, and its first 5
steps, whose 6 nodes each need an in- and an out-edge, embed into every
level between.

Each search first turns its fragment into a static plan with ``_plan``,
which fixes the order in which its edges are placed, so which endpoints
are already bound at each step is known before the search starts.  The
order is most constrained first, as in RI (Bonnici et al., BMC
Bioinformatics 2013): the edge with the most endpoints bound, then the
one whose endpoints have the most distinct edge types in the fragment.
A node's types are the relation, loop flag and direction of its edges,
as ``_types`` lists them.
The plan gives each step a code: its relation, its self-loop flag and its
kind, which says whether it keys on neither endpoint, the source, the
target or both.  The system index holds one lookup table per code, keyed
on ``None`` or on the bound endpoints, so a step finds its candidates with
one lookup in its own table, which the search fetches once before it
starts.  A type names a table too, the one keyed on the node the type
belongs to, whose keys are the system nodes with an edge of that type.
So each node a step binds is also checked, with one ``in`` test per
table, to have every other type its pattern node has: the
label-and-degree filter of subgraph matching (Sun and Luo, SIGMOD 2020),
reduced to presence.  The plan's structure, the slots each step keys its
lookup on, the slots it binds, the number of checks on each and the step
of its twin, if any, is compiled into Python source, one generator
expression with one ``for`` clause per step, as in query compilation
(Neumann, PVLDB 2011).  The tables are arguments, so fragments of one
structure share one compiled search.  Bound nodes are local variables.
A generator expression may hold any number of ``for`` clauses and the
mark is one name, so one expression serves a plan of any length.  The
source holds only integers and names that ``_source`` makes, never text
from a model or a catalog.

The witness of a row does not depend on the search order.  The canonical
order of a fragment places the first remaining edge in fragment order
that touches a placed node, or else the first remaining edge, and a
row's witness is the image onto its edges that is least when read in
that order.  Each step's candidates come from sorted buckets, so the
search meets the images in lexicographic order when each is read in its
plan's order.  Reading images in fragment order instead would pick other
witnesses.  The twin leaves of a fragment (``_twins``) are interchangeable
there too: swapping two twins' images gives another embedding onto the
same system edges.  So the plan gives the later step of each consecutive
pair of a twin group one more test, that its image is above its twin's,
and twin images rise in fragment order.  The canonical order reads the
twins of a group in fragment order as well, so a row's least image has
its twin images rising and is still found, while each choice of a star's
leaves is placed once rather than in every order: a 7-leaf gen star
against a 14-child hub yields C(14, 7) = 3,432 images, not 14!/7! =
17,297,280, and takes about 0.02 s on a 2-CPU machine rather than 29 s.
A key can then repeat only under some other automorphism of the
fragment.  ``_search`` files a search's images a chunk at a time, keys
each chunk in one pass and keeps each key's first row; only a chunk that
adds fewer rows than it has images holds a repeated key, and only its
images are compared one by one, so each key keeps its least image in
canonical order.  The search yields only each embedding's image, aligned
with the fragment, and a row stores just that alignment.  Rows are
keyed by the sorted ranks of their system edges, which the index numbers
in sorted order: ranks are one-to-one and rise with the edges, so the
keys tell edge sets apart and sort as the sorted edges would, while
comparing ints.  A row's node mapping is read off the aligned edges on
demand, in fragment order.  The JSON report sorts the keys once per row
template and compiles its code once per layout.

There are two caches.  The system index, ranks included, is kept with
the latest system edge set as one ``(system, index)`` pair, ``_kept``,
which is replaced as a whole, so no reader sees one system with another's
index.  A system equal to the kept one takes its place after one
comparison, and the calls after it find it by identity, so all levels of
all patterns run against one model share a single index even when each
run parses the model anew.  The index builds each lookup table on its
first read and keeps it, so it holds only the tables that some search
has read; a fragment's own index, which the class test reads, builds
only those of the plans tested against it, and never its ranks.
``detect`` fetches the index once, before its level walk, and not at all
for an empty system, which is absent without a walk.  The compiled
searches are kept by plan structure in a bounded least-recently-used
cache, ``_compiled``; nothing is compiled at import.

The image of a connected fragment is connected, so matched images need no
connectivity check of their own.  A disconnected pattern has no connected
image, because an injective map sends its components onto node-disjoint
edges.  Its top level has no eligible fragment, so it is empty without a
search and the pattern is at best partial.  User catalogs reject such
patterns outright.

Rows are built from embeddings the search has already checked, so
``MatchRow`` and ``MatchTable`` are plain records that do not re-validate
themselves, and ``MatchRow``, built once per occurrence, stores its two
fields without a loop.
``check_table`` states every row and table rule in one place; the tests
and ``dpdetect detect --verify`` run it.
"""

from __future__ import annotations

import functools
from collections import defaultdict, deque
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from enum import Enum
from itertools import islice, repeat
from operator import itemgetter

from .graph import EdgeTuple, _Record, is_weakly_connected

__all__ = [
    "EmptyPatternError",
    "LevelOutOfRangeError",
    "Verdict",
    "MatchRow",
    "MatchTable",
    "DetectionReport",
    "find_matches",
    "detect",
    "check_table",
]


class EmptyPatternError(ValueError):
    """Detection needs a pattern with at least one edge."""


class LevelOutOfRangeError(ValueError):
    """The requested match level is outside 1..|pattern edges|."""


class Verdict(Enum):
    """Existence classification for one pattern against one system."""

    COMPLETE = "complete"
    PARTIAL = "partial"
    ABSENT = "absent"


def _node_map(pattern_edges: Iterable[EdgeTuple], images: Iterable[Sequence]) -> dict:
    """Each pattern node's value read off ``images``, aligned position-wise
    with ``pattern_edges``: the aligned pairs are walked in fragment order,
    each edge's source and then its target taking the image's first and
    second field, and the last write wins.  ``MatchRow.mapping`` reads
    system nodes this way, and the JSON report the positions of the fields
    it fills a row template from."""
    mapping = {}
    for pattern_edge, image in zip(pattern_edges, images):
        mapping[pattern_edge[0]] = image[0]
        mapping[pattern_edge[1]] = image[1]
    return mapping


class MatchRow(_Record):
    """One occurrence: pattern edges aligned position-wise with system edges.

    ``system_edges[i]`` is the image of ``pattern_edges[i]``, and the
    alignment is all a row stores: its node mapping is read off it.  Rows
    are identified by their system edge set; the alignment is one witness
    for it.  The record does not check itself; ``check_table`` states and
    checks every row rule.
    """

    __slots__ = ("pattern_edges", "system_edges")

    pattern_edges: tuple[EdgeTuple, ...]
    system_edges: tuple[EdgeTuple, ...]

    def __init__(
        self, pattern_edges: tuple[EdgeTuple, ...], system_edges: tuple[EdgeTuple, ...]
    ) -> None:
        # ``_assign`` unrolled, since a search builds one row per occurrence.
        _store_pattern_edges(self, pattern_edges)
        _store_system_edges(self, system_edges)

    @property
    def mapping(self) -> dict[str, str]:
        """Each pattern node's system node, read off the aligned edges in
        fragment order by ``_node_map`` and built anew on every read.  A
        pattern node sent to two system nodes keeps the last one, so the
        alignment rule of ``check_table`` catches it."""
        return _node_map(self.pattern_edges, self.system_edges)

    def system_key(self) -> tuple[EdgeTuple, ...]:
        """Canonical identity of the row: its system edges in sorted order."""
        return tuple(sorted(self.system_edges))


_store_pattern_edges, _store_system_edges = MatchRow._stores


class MatchTable(_Record):
    """All occurrences found at one level.

    ``level`` is the column count (edges matched per row); the row count is
    the occurrence count.  Level 0 with no rows is the empty table carried
    by an absent verdict.  Rows are kept sorted by their system edge sets,
    with no two rows sharing one; ``check_table`` checks this.
    """

    __slots__ = ("level", "rows")

    level: int
    rows: tuple[MatchRow, ...]

    def __init__(self, level: int, rows: tuple[MatchRow, ...] = ()) -> None:
        self._assign(level, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def system_edge_sets(self) -> set[frozenset[EdgeTuple]]:
        """The row identities, convenient for comparisons."""
        return {frozenset(row.system_edges) for row in self.rows}


class DetectionReport(_Record):
    """Outcome of matching one pattern against one system edge set.

    The verdict and the level are read off the table, so they cannot
    disagree with it: no rows means absent, rows at ``pattern_size`` mean
    complete, and rows below it mean partial.
    """

    __slots__ = ("pattern_name", "pattern_size", "table")

    pattern_name: str
    pattern_size: int
    table: MatchTable

    def __init__(self, pattern_name: str, pattern_size: int, table: MatchTable) -> None:
        self._assign(pattern_name, pattern_size, table)

    @property
    def verdict(self) -> Verdict:
        if not self.table.rows:
            return Verdict.ABSENT
        return Verdict.COMPLETE if self.table.level == self.pattern_size else Verdict.PARTIAL

    @property
    def level(self) -> int | None:
        """Matched level, or None when the pattern is absent."""
        return self.table.level if self.table.rows else None

    @property
    def occurrences(self) -> int:
        return len(self.table)


# Each kind's lookup key of an edge: nothing, the source, the target, both.
_KEYS = (lambda edge: None, itemgetter(0), itemgetter(1), itemgetter(0, 1))


class _SystemIndex(dict):
    """Candidate buckets over the system edge set, one lookup table per
    kind of search step, each built on its first read.

    A step's code ``(relation, self_loop, kind)`` names its table, and the
    kind says which of its endpoints the search has bound: kind 0 keys the
    one bucket of every edge of that relation and loop flag on ``None``,
    kind 1 keys its buckets on the source, kind 2 on the target and kind 3
    on the pair ``(source, target)``.  A step finds its candidates with one
    lookup in its own table.  The index files each system edge once, in
    sorted order, under its relation and loop flag; a code read for the
    first time builds its table from those edges and keeps it, and a code
    the system lacks gets an empty one.  So only the tables that some plan
    reads are built.  Buckets hold sorted tuples so iteration order is
    deterministic, and the self-loop flag in every code keeps a non-loop
    pattern edge from seeing loop candidates.  ``rank`` maps each edge to
    its position in that sorted order, which keys the rows of ``_search``;
    it too is built on its first read, so the indexes of fragments, which
    only the class and prefix tests read, never build it.
    """

    def __init__(self, edges: Collection[EdgeTuple]) -> None:
        self.edges = sorted(edges)
        self.filed: defaultdict[tuple[int, int], list[EdgeTuple]] = defaultdict(list)
        for edge in self.edges:
            self.filed[edge[2:]].append(edge)

    @functools.cached_property
    def rank(self) -> dict[EdgeTuple, int]:
        return dict(zip(self.edges, range(len(self.edges))))

    def __missing__(self, code: _Code) -> dict:
        key, buckets = _KEYS[code[2]], defaultdict(list)
        for edge in self.filed.get(code[:2], ()):
            buckets[key(edge)].append(edge)
        table = self[code] = {held: tuple(bucket) for held, bucket in buckets.items()}
        return table


_kept: tuple[frozenset[EdgeTuple] | None, _SystemIndex | None] = (None, None)


def _system_index(system: frozenset[EdgeTuple]) -> _SystemIndex:
    """The index over ``system``, built once and reused while the same or
    an equal system is searched: by every pattern run against one model.

    The latest system and its index, ranks included, are kept as the pair
    ``_kept``, read and replaced as a whole.  A system that is not the kept
    one is compared with it once: an equal one takes its place with the
    kept index, so the calls after it match by identity, and any other gets
    a new index.
    ``_SystemIndex`` is looked up at call time, so a replacement of it
    takes effect on the next system."""
    global _kept
    kept, index = _kept
    if system is not kept:
        if system != kept:
            index = _SystemIndex(system)
        _kept = (system, index)
    return index


def _pattern_facts(pattern: frozenset[EdgeTuple]) -> tuple[
    dict[str, list[EdgeTuple]], dict[EdgeTuple, EdgeTuple], dict[int, list[tuple[EdgeTuple, ...]]]
]:
    """The incident edges, twin-leaf predecessors and components of
    ``pattern``, read off the typed incidence ``_types`` of its sorted
    edges.

    The first map lists each node's edges in sorted order, a self-loop
    once.  The second map sends each edge of a twin group (see ``_twins``),
    in sorted order, to the group's edge before it; the first edge of a
    group and every edge outside one have no entry.  The third map holds
    each weakly connected component, as a sorted tuple, under its edge
    count.
    """
    edges = sorted(pattern)
    types = _types(edges)
    incident = {
        node: sorted(edges[p] for held in codes.values() for p in held)
        for node, codes in types.items()
    }
    twin_prev = {edges[b]: edges[a] for b, a in _twins(edges, types).items()}
    components: defaultdict[int, list[tuple[EdgeTuple, ...]]] = defaultdict(list)
    seen: set[str] = set()
    for start in incident:
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], set()
        while stack:
            for edge in incident[stack.pop()]:
                members.add(edge)
                for node in edge[:2]:
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
        components[len(members)].append(tuple(sorted(members)))
    return incident, twin_prev, components


def _grown(
    incident: dict[str, list[EdgeTuple]], twin_prev: dict[EdgeTuple, EdgeTuple], n: int
) -> list[tuple[EdgeTuple, ...]]:
    """The eligible size-``n`` fragments, grown from single edges, unsorted.

    This is ESU (Wernicke 2006) on the pattern's edges, two of which are
    neighbours when they share a node.  Each connected edge set is grown
    once, from its least edge, the root.  A set takes its next edge from
    its extension, which starts as the root's neighbours above the root;
    the edges before the one taken leave the extension of that branch, and
    the edge taken adds its neighbours above the root that no edge of the
    set touched before.  A twin edge other than the first of its group
    is never a root and enters the extension only when the edge taken is
    its twin-group predecessor, so every grown set takes a prefix of each
    twin group, and a branch that passed over the predecessor never sees
    it.  The extension thus holds only edges that may join, and a twin
    star grows one leaf per step.
    """
    twin_next = {before: edge for edge, before in twin_prev.items()}
    fragments = []
    for root in sorted({edge for edges in incident.values() for edge in edges}):
        if root in twin_prev:
            continue
        stack = [((), set(), [root])]
        while stack:
            chosen, closed, extension = stack.pop()
            if len(chosen) == n:
                fragments.append(tuple(sorted(chosen)))
                continue
            for position, edge in enumerate(extension):
                around = set(incident[edge[0]]).union(incident[edge[1]])
                fresh = [
                    other for other in around - closed if other > root and other not in twin_prev
                ]
                if edge in twin_next:
                    fresh.append(twin_next[edge])
                extension_after = extension[position + 1 :] + sorted(fresh)
                stack.append((chosen + (edge,), closed | around, extension_after))
    return fragments


def _levels(
    pattern: frozenset[EdgeTuple], top: int
) -> Iterator[tuple[int, tuple[tuple[EdgeTuple, ...], ...]]]:
    """Yield each level ``n`` from ``top`` down to 1 with its eligible
    size-``n`` fragments in canonical order.

    Every eligible fragment is weakly connected and takes a prefix of the
    sorted edges of each twin-leaf group, which makes it the first member
    of its orbit under twin-leaf swaps in canonical order (the order of
    ``itertools.combinations`` of the sorted pattern edges).  Every other
    member of the orbit is isomorphic to it and finds the same rows later,
    so it is left out.

    The first level is built one of two ways.  Deriving it starts at level
    ``m``, the pattern's edge count, which holds the pattern itself if it
    is connected and nothing if it is not, and drops ``m - top`` times
    without yielding the levels above ``top``; each drop tests every
    fragment of its level once per edge.  Growing it with ``_grown`` lists
    every eligible fragment of up to ``top`` edges.  In a sparse pattern
    most drops disconnect the fragment, so deriving pays for many failed
    tests while the levels below stay small; in a dense one most drops
    keep it connected, and the levels fill up from both ends towards the
    middle.  So the walk derives when ``m - top`` is less than the
    pattern's mean node degree, ``2m / v`` for ``v`` nodes, and grows
    otherwise; at ``top == m`` nothing is dropped.  Measured on 2 CPUs,
    deriving is the cheaper way down to these depths ``m - top``, with the
    mean degree in brackets: a 600-edge chain 2 (2.0; level 301 grows in
    0.84 s, and deriving it had reached level 581 after 60 s), a 40-edge
    cycle 1 (2.0), a 22-edge ladder 5 (2.75), a 16-edge wheel and a
    16-edge circulant digraph 5 (3.6 and 4.0), the complete digraph on 4
    nodes 4 (6.0), the complete bipartite digraph on 3 + 3 nodes 7 (6.0),
    and the complete digraph on 5 nodes 7 (8.0; level 10 grows in 2.8 s
    and derives in 13 s).  A 600-leaf star has one fragment per level:
    growing any level takes at most 0.04 s, and deriving every level from
    the top down to 1 takes 0.21 s.

    Every later level is derived from the one above: each fragment there
    loses one edge, except an edge that is the twin predecessor of another
    edge it takes.  The distinct drops are collected in one set, and each
    is tested for connectivity once and kept if connected.  Every eligible
    fragment that is not a whole component is one such drop away from an
    eligible fragment of the level above: add an adjacent edge or, if that
    edge is a twin, the first edge of its group that the fragment lacks.
    So the pattern's components of exactly ``n`` edges are all that is
    added.  A level is built only when the walk resumes after the level
    above it, so a caller that stops early builds nothing below.
    """
    incident, twin_prev, components = _pattern_facts(pattern)
    m = len(pattern)
    start = m if (m - top) * len(incident) < 2 * m else top
    fragments = components.get(m, []) if start == m else _grown(incident, twin_prev, top)
    for n in range(start, 0, -1):
        if n < start:
            drops = set()
            for fragment in fragments:
                kept = set(map(twin_prev.get, fragment))
                for position, edge in enumerate(fragment):
                    if edge not in kept:
                        drops.add(fragment[:position] + fragment[position + 1 :])
            fragments = [*components.get(n, ()), *filter(is_weakly_connected, drops)]
        fragments = tuple(sorted(fragments))
        if n <= top:
            yield n, fragments


_Step = tuple[int, int, int | None, int | None, int, int, int, int | None]
_Code = tuple[int, int, int]
_Plan = tuple[tuple[_Step, ...], tuple[_Code, ...]]
_Search = tuple[Iterator[tuple[EdgeTuple, ...]], Callable[[], int]]

# Nodes per injectivity window of the generated search (see ``_source``).
_WINDOW = 16


def _types(edges: Sequence[EdgeTuple]) -> defaultdict[str, dict[_Code, list[int]]]:
    """The typed incidence of ``edges``: each node's edge types, each
    mapped to the positions of the node's edges of that type, in order.  A
    type is the code of the table that files the node's edges of one
    relation and loop flag by that node: ``(relation, self_loop, 1)`` for
    an outgoing edge or a self-loop, and ``(relation, self_loop, 2)`` for
    an incoming one, so a self-loop is listed once.  Nodes, and each node's
    types, come in the order of their first edge.  The plan, the class
    invariant and the twin leaves are all read off this; ``_search`` reads
    it once per fragment, for both ``_shape`` and ``_plan``."""
    types: defaultdict[str, dict[_Code, list[int]]] = defaultdict(dict)
    for position, (source, target, relation, self_loop) in enumerate(edges):
        types[source].setdefault((relation, self_loop, 1), []).append(position)
        if not self_loop:
            types[target].setdefault((relation, self_loop, 2), []).append(position)
    return types


def _twins(edges: Sequence[EdgeTuple], types: dict[str, dict[_Code, list[int]]]) -> dict[int, int]:
    """The twin leaves of ``edges``, whose typed incidence is ``types``.

    Twin leaves are nodes with one edge, not a loop, of the same type that
    hang off the same node, the hub, so swapping them maps the edges onto
    themselves; a group is keyed on its hub and that type.  Each position
    of a twin group's edge maps to the position of the group's edge before
    it; the first edge of a group and every edge outside one have no
    entry.  Nodes come in the order of their first edge, a leaf's only
    one, so each group is in the order of ``edges``."""
    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for codes in types.values():
        for code, held in codes.items():
            if len(codes) == len(held) == 1 and not code[1]:
                groups[edges[held[0]][2 - code[2]], code] += held
    return {b: a for group in groups.values() for a, b in zip(group, group[1:])}


def _canonical(fragment: tuple[EdgeTuple, ...]) -> list[int]:
    """The positions of ``fragment``'s edges in canonical order, which fixes
    each row's witness: the first remaining edge in fragment order that
    touches a node placed before it, or else the first remaining edge."""
    placed: set[str] = set()
    remaining, order = list(range(len(fragment))), []
    while remaining:
        pick = next((p for p in remaining if not placed.isdisjoint(fragment[p][:2])), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        placed.update(fragment[pick][:2])
    return order


def _plan(fragment: Sequence[EdgeTuple], types: dict[str, dict[_Code, list[int]]]) -> _Plan:
    """The static search plan for ``fragment``, whose typed incidence is
    ``types``: its structure and its codes.

    Edges are placed most constrained first: the remaining edge with the
    most endpoints bound (a self-loop's node counts twice), then the one
    whose two endpoints have the most distinct types in the fragment (see
    ``_types``), then the first in fragment order.  So an edge that closes
    a cycle keys on both its endpoints, and a node with many types is
    bound early, where its checks prune the most.  Each prefix of a
    connected fragment's plan is connected.  Each edge's key is a two-item
    list, raised in place as its endpoints are bound, so ``max`` compares
    keys without a Python call: binding a node raises the key at each
    position its types list, by 2 under a self-loop type.

    Which endpoints earlier steps have bound depends on the order alone,
    so each step fixes in advance the key it looks up, the nodes it binds
    and the checks on them.  Node slots are numbered from 1 in the order
    they are bound.  A step of the structure is ``(source_key, target_key,
    source_slot, target_slot, position, source_checks, target_checks,
    twin)``: ``*_key`` is the slot whose node goes into the lookup key, or
    0 for an endpoint not yet bound; ``*_slot`` is the slot the step binds,
    or None when the endpoint is bound already; ``position`` is the edge's
    index in ``fragment``; ``*_checks`` counts the checks on the node bound
    there, one for each type that node has in the fragment other than the
    step's own; ``twin`` is the index of the step that places the edge
    before this one in its twin group (see ``_twins``), or None.  Twins of
    one group share their hub and type, and a leaf is bound by its own
    step only, so their keys stay equal and they are placed in fragment
    order: the step of the edge before always comes first, and the test
    that ``_source`` writes from ``twin`` makes twin images rise in
    fragment order.  A self-loop binds its one slot as its source.  The
    codes are each step's ``(relation, self_loop, kind)``, which names its
    table in ``_SystemIndex`` (the kind is 1 if the step keys on its
    source plus 2 if it keys on its target), followed by each check's type
    in step order, which names the table whose keys are the system nodes
    with an edge of that type.  The structure alone, twin tests included,
    fixes the generated search and keys ``_compiled``, so fragments that
    differ only in their codes, such as paths of different relations,
    share one compiled search.
    """
    # Each edge's key: [endpoints bound, distinct types at its endpoints].
    keys = [[0, len(types[source]) + len(types[target])] for source, target, _, _ in fragment]
    remaining = list(range(len(fragment)))
    slots: dict[str, int] = {}
    structure: list[_Step] = []
    codes: list[_Code] = []
    checks: list[_Code] = []
    twins, at = _twins(fragment, types), {}
    while remaining:
        position = max(remaining, key=keys.__getitem__)
        remaining.remove(position)
        at[position] = len(structure)
        source, target, relation, self_loop = fragment[position]
        step = [slots.get(source, 0), slots.get(target, 0), None, None, position, 0, 0]
        step.append(at.get(twins.get(position)))
        for field, node in enumerate((source, target)):
            if node not in slots:
                step[2 + field] = slots[node] = len(slots) + 1
                step[5 + field] = len(types[node]) - 1
                own = (relation, self_loop, field + 1)
                checks += (code for code in types[node] if code != own)
                for code, positions in types[node].items():
                    for other in positions:
                        keys[other][0] += 1 + code[1]
        structure.append(tuple(step))
        codes.append((relation, self_loop, bool(step[0]) + 2 * bool(step[1])))
    return tuple(structure), tuple(codes + checks)


def _source(structure: tuple[_Step, ...]) -> str:
    """Python source of the search for a plan ``structure``.

    It defines ``search(empty, tables)``, which returns one generator
    expression over the embeddings and a function that reads the mark
    ``d``, the count of placed steps.  The expression first unpacks
    ``empty`` and ``tables``, as ``t<i>`` for step ``i``'s lookup table
    followed by ``c<j>`` for the table of the ``j``-th type check, into its
    own locals; ``empty``, the bucket of a missing key, is an argument so
    that the code holds no tuple constant.  Step ``i`` is the clause ``for
    e<i> in t<i>.get((key), empty)``, where the key is ``None``, the node
    the step keys on, or both of its endpoints as ``n<a>, n<b>``.  Each
    node it binds is the local ``n<slot>``, bound by the clause ``for
    n<slot> in (e<i>[field],)``.  One ``if`` clause then skips the
    candidate when the step has a ``twin`` and its image is not above that
    step's (``e<i> > e<twin>``), when a node it binds equals a node bound
    before it, or when one is missing from one of its check tables
    (``n<slot> in c<j>``), and otherwise raises the mark ``d`` to ``i + 1``
    unless it is past ``i`` already, with the test ``(d > i or (d := i +
    1))``.  The twin test keeps, of the images that differ only by swaps of
    twin leaves' images, just the one whose twin images rise in fragment
    order.  Such a swap gives another embedding onto the same system
    edges, and the canonical order reads the twins of a group in fragment
    order, so the row's least image, its witness, is the one kept (see
    ``_search``).  A step is reached
    only from a placement of the step before it, so the steps that ever
    placed a candidate form a prefix of the plan, and the mark counts them.
    The last step has no test of the mark, because only the steps before
    it decide the failing prefix (see ``_search``).

    A new node is compared with ``!=`` only against the earlier nodes of
    its window, so the source grows linearly with the plan.  A window
    closes at the end of the step that brings it to ``_WINDOW`` nodes or
    more; the clause ``for w<slot> in (...,)`` then binds ``w<slot>``, the
    frozenset of every node bound before slot ``slot``, and each node of
    the next window is tested against it with ``not in``.  The expression
    yields the image of every embedding, aligned with the fragment.  The
    source holds only integers and names made here.
    """
    last = len(structure) - 1
    image = "".join(f"e{i}, " for _, i in sorted((step[4], i) for i, step in enumerate(structure)))
    checks = sum(step[5] + step[6] for step in structure)
    tables = "".join(f"t{i}, " for i in range(last + 1)) + "".join(f"c{j}, " for j in range(checks))
    lines = [
        "def search(empty, tables):",
        "d = 0",
        f"return (({image})",
        f"for empty, ({tables}) in ((empty, tables),)",
    ]
    start, bound, check = 1, 0, 0  # the window's first slot, the last slot bound, the next check
    for i, step in enumerate(structure):
        source_key, target_key, source_slot, target_slot, _, *counts, twin = step
        key = ", ".join(f"n{slot}" for slot in (source_key, target_key) if slot) or "None"
        lines.append(f"for e{i} in t{i}.get(({key}), empty)")
        tests = [] if twin is None else [f"e{i} > e{twin}"]
        for field, (slot, count) in enumerate(zip((source_slot, target_slot), counts)):
            if slot:
                lines.append(f"for n{slot} in (e{i}[{field}],)")
                tests += [f"n{slot} not in w{start}"] if start > 1 else []
                tests += (f"n{slot} != n{other}" for other in range(start, slot))
                tests += (f"n{slot} in c{j}" for j in range(check, check + count))
                bound, check = slot, check + count
        tests += [f"(d > {i} or (d := {i + 1}))"] if i < last else []
        lines += [f"if {' and '.join(tests)}"] if tests else []
        if bound - start >= _WINDOW - 1 and i < last:
            union = f"w{start}.union" if start > 1 else "frozenset"
            nodes = "".join(f"n{slot}, " for slot in range(start, bound + 1))
            lines.append(f"for w{bound + 1} in ({union}(({nodes})),)")
            start = bound + 1
    lines.append("), lambda: d")
    return "\n ".join(lines) + "\n"


@functools.lru_cache(maxsize=512)
def _compiled(structure: tuple[_Step, ...]) -> Callable[..., _Search]:
    """The generated search for a plan ``structure`` (see ``_source``),
    compiled once and kept for the 512 most recently used structures.
    Generating and compiling a structure takes about 0.2 ms, and a kept
    one holds about 0.6 KiB per step (Python 3.11.7, 2 CPUs); a 44-pattern
    catalog against a 2,000-edge model compiles 124.  The function is
    taken out of the namespace it was defined in, whose dict is its
    globals, so a dropped entry leaves no reference cycle behind."""
    namespace: dict[str, object] = {}
    exec(compile(_source(structure), "<dpdetect search>", "exec"), namespace)
    return namespace.pop("search")


def _embeddings(index: _SystemIndex, plan: _Plan) -> _Search:
    """The images of every injective embedding of a fragment into the
    indexed system, each the system edge of each fragment edge aligned
    position-wise with the fragment, and a function that reads how many
    steps before the last ever placed a candidate.

    The search is the code that ``_compiled`` generated for the structure
    of ``plan``, the fragment's ``_plan``, run with the index table that
    each step's code names, looked up once here; the index builds a table
    on its first read, and a code the system lacks gets an empty one.
    ``_source`` says how it checks candidates.  The count is final once
    the images have run out, and ``_search`` then cuts the plan after the
    step that placed nothing.
    """
    structure, codes = plan
    return _compiled(structure)((), [index[code] for code in codes])


def _shape(types: dict[str, dict[_Code, list[int]]]) -> tuple:
    """Cheap isomorphism invariant of a fragment with the typed incidence
    ``types``: the node count plus, sorted, each node's sorted ``(type,
    count)`` pairs."""
    counts = (sorted((code, len(held)) for code, held in codes.items()) for codes in types.values())
    return len(types), tuple(sorted(map(tuple, counts)))


# Images per filing chunk of ``_search``.  The size sets memory only, as a
# search holds its rows plus one chunk.  The best of 40 in-process
# detections of the bench's big-model takes 25.0, 24.0 and 24.3 ms with
# chunks of 128, 512 and 4,096 images and 24.2 ms with none, while the
# search of 5,040 images on 210 keys peaks at 39 KB traced with chunks of
# 512, 206 KB with 1,024 and 841 KB with 4,096 (Python 3.11.7, 2 CPUs).
_CHUNK = 512


def _search(
    fragments: Iterable[tuple[EdgeTuple, ...]],
    index: _SystemIndex,
    n: int,
    failed: list[_Plan],
) -> MatchTable:
    """The level-``n`` table of ``fragments``, the eligible fragments of a
    level in canonical order, against the indexed system.

    ``failed`` holds plans known to have no embedding into the system.  A
    fragment is not searched when one of them, or the plan of an earlier
    fragment of its class, embeds into it (see the comment below).  Each
    fragment is planned once, when it is searched, and only its plan is
    kept for these tests, which read nothing else.

    Rows are keyed and ordered by their system edges' sorted ranks, and
    each row's witness is its fragment's least image onto its edges when
    read in canonical order (see ``_canonical``).  The search yields only
    images whose twin leaves rise in fragment order (see ``_source``), and
    that drops no witness.  Swapping two twins' images gives another
    embedding onto the same edges, and in canonical order the twins of a
    group come in fragment order, so a row's least image has its twin
    images rising.  A key thus repeats only under some other automorphism
    of the fragment, and only within one fragment's search (see the
    comment below), so the images show when it does.  They are filed
    ``_CHUNK`` at a time: each chunk's keys are built in one pass, and a
    key already filed keeps its row.  A chunk that adds fewer rows than it
    has images met a repeated key, and only such a chunk compares each of
    its images with its key's row, which it replaces when it is less in
    canonical order.  An earlier chunk's row is kept for that comparison,
    not overwritten, so each key ends with its least image, and however
    many images share a key, memory stays bounded by the rows plus one
    chunk.

    The failing prefix of every fruitless search, a slice of its plan, is
    added to ``failed``.  The twin tests leave it sound: if it embedded
    into a fragment that embeds into the system, swapping twin images in
    the composed placement would make them rise, so the search would have
    placed a candidate at the prefix's last step.
    """
    found: dict[tuple[int, ...], MatchRow] = {}
    rank = index.rank.__getitem__
    # A fragment is skipped when an earlier representative of the same
    # _shape, or a failed prefix P, embeds into its own index; otherwise it
    # becomes a representative and is searched.  This gives the table that
    # searching every fragment would:
    # - an embedding of one n-edge fragment into another is onto, so the
    #   two are isomorphic and hit the same image keys; the witness for a
    #   key is the earliest member of its class in canonical order with its
    #   least image onto it, the representative's row built below, and
    #   that member is the first of its twin-leaf orbit, so _levels keeps it;
    #   a key thus repeats only within one representative's search;
    # - a fragment that contains P has no rows, because injective typed maps
    #   compose; nor has any later fragment isomorphic to it, which contains
    #   P too, so it need not become a representative.
    # Searching with the representatives' plans keeps the compiled searches
    # few: the plans of the many fragments of a dense pattern mostly differ.
    # The failing prefix of a fruitless search is its plan's first
    # placed + 1 steps with their checks, where placed is the search's mark,
    # the number of steps that ever placed a candidate: every injective
    # placement of the first placed steps that passed its type and twin tests
    # was tried, and the next step placed nothing for any of them.  The codes
    # list every step's code and then the checks in step order, so the
    # prefix's checks are one slice of them.  A prefix is kept when it is
    # smaller than its fragment, placed + 1 < n; a search that found an
    # embedding has placed = n - 1.  A later fragment that contains a whole
    # fruitless one is isomorphic to it, and the class test leaves it out.
    representatives: dict[tuple, list[_Plan]] = {}
    for fragment in fragments:
        types = _types(fragment)
        bucket = representatives.setdefault(_shape(types), [])
        tests = bucket + failed
        own = _SystemIndex(fragment) if tests else None
        if any(next(_embeddings(own, plan)[0], None) for plan in tests):
            continue
        structure, codes = plan = _plan(fragment, types)
        bucket.append(plan)
        images, placed = _embeddings(index, plan)
        while chunk := [*islice(images, _CHUNK)]:
            keys = [*map(tuple, map(sorted, map(map, repeat(rank), chunk)))]
            size = len(found)
            deque(map(found.setdefault, keys, map(MatchRow, repeat(fragment), chunk)), 0)
            if len(found) - size < len(chunk):  # a key repeated in this search
                canonical = itemgetter(*_canonical(fragment))
                for key, image in zip(keys, chunk):
                    if canonical(image) < canonical(found[key].system_edges):
                        found[key] = MatchRow(fragment, image)
        if (cut := placed() + 1) < n:
            checks = sum(step[5] + step[6] for step in structure[:cut])
            failed.append((structure[:cut], codes[:cut] + codes[n : n + checks]))
    return MatchTable(level=n, rows=tuple(found[key] for key in sorted(found)))


def _edge_sets(
    system_edges: Iterable[EdgeTuple], pattern_edges: Iterable[EdgeTuple], n: int | None = None
) -> tuple[frozenset[EdgeTuple], frozenset[EdgeTuple]]:
    """The system and pattern edge sets of one detection call, once its
    input rules hold: the pattern has an edge, and the level ``n``, when
    given, is an ``int`` in 1..|pattern| and not a ``bool``.  ``detect``,
    ``find_matches``, ``check_table`` and the oracle's two entry points all
    come through here, so each rule is raised in one place."""
    system, pattern = frozenset(system_edges), frozenset(pattern_edges)
    if not pattern:
        raise EmptyPatternError("pattern has no edges")
    if n is not None and (type(n) is bool or not isinstance(n, int) or not 0 < n <= len(pattern)):
        raise LevelOutOfRangeError(f"level must be in 1..{len(pattern)}, got {n!r}")
    return system, pattern


def find_matches(
    system_edges: Iterable[EdgeTuple],
    pattern_edges: Iterable[EdgeTuple],
    n: int,
) -> MatchTable:
    """All occurrences at exactly level ``n``.

    Each row records one distinct weakly connected size-``n`` subset of
    ``system_edges`` onto which some eligible size-``n`` pattern fragment
    maps injectively, together with one witnessing alignment.  Rows come
    back canonically ordered; a disconnected pattern has none at its top
    level, where its only fragment is not eligible.  A level with more
    edges than the system has no rows and is not built.  Otherwise the
    eligible fragments are those of the first level of a walk started at
    ``n``: derived from the top level down when fewer levels than the
    pattern's mean node degree lie above ``n``, grown from single edges
    otherwise (see ``_levels``).  Raises ``LevelOutOfRangeError`` when
    ``n`` is not in 1..|pattern| and ``EmptyPatternError`` for an edgeless
    pattern.
    """
    system, pattern = _edge_sets(system_edges, pattern_edges, n)
    if len(system) < n:
        return MatchTable(level=n)
    return _search(next(_levels(pattern, n))[1], _system_index(system), n, [])


def detect(
    system_edges: Iterable[EdgeTuple],
    pattern_edges: Iterable[EdgeTuple],
    pattern_name: str = "",
) -> DetectionReport:
    """Classify a pattern's presence at the largest matchable level.

    Walks the levels of ``_levels`` down from the smaller of the pattern's
    and the system's edge counts, so no level larger than the system is
    searched; the first level with occurrences decides the verdict.  The
    failing prefixes that ``_search`` learns on one level, each a failed
    plan cut after the step that placed nothing, are kept for the levels
    below, so a fragment that contains one is never searched.  An
    empty system is valid input and yields absence before any index or
    fragment is built; an empty pattern is an error.
    """
    system, pattern = _edge_sets(system_edges, pattern_edges)
    if system:
        index, failed = _system_index(system), []
        for n, fragments in _levels(pattern, min(len(pattern), len(system))):
            table = _search(fragments, index, n, failed)
            if table.rows:
                return DetectionReport(pattern_name, len(pattern), table)
    return DetectionReport(pattern_name, len(pattern), MatchTable(level=0))


def check_table(
    table: MatchTable,
    system_edges: Iterable[EdgeTuple],
    pattern_edges: Iterable[EdgeTuple],
) -> None:
    """Check ``table`` as the level-``table.level`` occurrences of the
    pattern in the system, and raise ``ValueError`` naming the first rule
    it breaks.

    These are all the row and table invariants.  ``find_matches`` keeps
    them by construction, so they are checked here, for tests and for
    ``dpdetect detect --verify``, and not on every row it builds.  An
    aligned injective mapping makes each image isomorphic to its fragment,
    so a connected image also means a connected fragment, as fragments
    below the top level must be.  Like ``detect``, it raises
    ``EmptyPatternError`` for an edgeless pattern.
    """
    system, pattern = _edge_sets(system_edges, pattern_edges)
    level = table.level
    if not 0 <= level <= len(pattern):
        raise ValueError(f"level {level} is outside 0..{len(pattern)}")
    if level == 0 and table.rows:
        raise ValueError("a level-0 table cannot have rows")
    for number, row in enumerate(table.rows, 1):
        mapping = row.mapping
        if len(row.pattern_edges) != level or len(row.system_edges) != level:
            broken = "every row must match exactly `level` edges"
        elif not pattern.issuperset(row.pattern_edges):
            broken = "pattern edges must come from the pattern"
        elif not system.issuperset(row.system_edges):
            broken = "system edges must come from the system"
        elif len(set(row.system_edges)) != level:
            broken = "system edges within a row must be distinct"
        elif len(set(mapping.values())) != len(mapping):
            broken = "node mapping must be injective"
        elif any(
            (mapping.get(p.source), mapping.get(p.target), p.relation, p.self_loop) != s
            for p, s in zip(row.pattern_edges, row.system_edges)
        ):
            broken = "mapping does not align pattern edges with system edges"
        elif not is_weakly_connected(row.system_edges):
            broken = "matched system edges must be weakly connected"
        else:
            continue
        raise ValueError(f"row {number}: {broken}")
    keys = [row.system_key() for row in table.rows]
    if any(earlier >= later for earlier, later in zip(keys, keys[1:])):
        raise ValueError("rows must be unique and canonically ordered")
