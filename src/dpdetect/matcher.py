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
the top, and nearer still the sparser the pattern.  Twin leaves,
degree-1 nodes that hang off the same node by the same relation and
direction, are interchangeable, so of each orbit under their swaps only the
first member in canonical order is kept: the one that takes a prefix of
each twin group's sorted edges.  The fragments left are sorted into
typed-isomorphism classes as they come; only the first fragment of each
class is searched against the system, because every other member finds
exactly the same occurrences.  The first member of a class is also the
first of its orbit, so each row's witness is still the earliest fragment
in canonical order that reaches its system edges, together with that
fragment's first embedding onto them in search order.  A generalization
star thus has one fragment per level: a 16-leaf star against 61 edges with
15 hubs of in-degree 3 takes about 2.5 ms on a 2-CPU machine.

A search that finds nothing still tells the rest of the walk something.
``_plan`` orders a connected fragment so that each prefix of its plan is
connected.  If the search placed a candidate at steps 1 to ``Q`` only, it
tried every injective placement of those steps and step ``Q + 1`` placed
nothing for any of them, so the plan's first ``Q + 1`` edges, the failing
prefix, have no embedding into the system.  Nor has any fragment into
which that prefix embeds, because injective typed maps compose.
``detect`` keeps the failing prefixes of one pattern as local state, and
``_search`` tests each against a class representative's own index, which
its class test has built already; a fragment that contains one is
skipped.  Skipped fragments have no rows, so no table changes.  The
search counts the placed steps off its image slots once it has ended, so
it does no extra work per candidate.  A 12-edge gen chain against a gen
DAG whose paths have at most 6 edges is searched at levels 12 and 6 only:
the search at level 12 fails with a 7-edge path, which every level
between contains.

The system index is one table.  Each system edge is filed under the keys
``(relation, self_loop, source, target)`` with either endpoint, both or
neither replaced by ``""``, the wildcard for an endpoint the search has not
bound; ``""`` can never be a node identifier.  Each search first compiles
its fragment into a static plan with ``_plan``, which fixes the order in
which its edges are placed, so which endpoints are already bound at each
depth is known before the search starts.  Every step then finds its
candidates with one lookup, keyed on its relation, its self-loop flag and
its bound endpoints, and names the node slots it fills.  The search checks
a candidate only against the set of taken system nodes, at the endpoints
its step binds, and undoes exactly those on backtracking.  The embeddings,
and with them the witnesses, follow the plan's order, with each step's
candidates taken from sorted buckets.  The search yields only each
embedding's image, aligned with the fragment, and a row stores just that
alignment.  Its node mapping is read off the aligned edges on demand, in
fragment order.  The JSON report sorts the mapping keys where order becomes
bytes, once per fragment template rather than per row, and is written as
it is rendered.

The system index is cached for the most recent system edge set, so all
levels of all patterns run against one model share a single index; it is
the only cache.  The image of a connected fragment is connected, so
matched images need no connectivity check of their own.  A disconnected
pattern has no connected image, because an injective map sends its
components onto node-disjoint edges.  Its top level has no eligible
fragment, so it is empty without a search and the pattern is at best
partial.  User catalogs reject such patterns outright.

Rows are built from embeddings the search has already checked, so
``MatchRow`` and ``MatchTable`` are plain records that do not re-validate
themselves.  ``check_table`` states every row and table rule in one place;
the tests and ``dpdetect detect --verify`` run it.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

from .graph import EdgeTuple, is_weakly_connected

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


_T = TypeVar("_T")


def _node_map(pattern_edges: Iterable[EdgeTuple], images: Iterable[Sequence[_T]]) -> dict[str, _T]:
    """Each pattern node's value read off ``images``, aligned position-wise
    with ``pattern_edges``: the aligned pairs are walked in fragment order,
    each edge's source and then its target taking the image's first and
    second field, and the last write wins.  ``MatchRow.mapping`` reads
    system nodes this way, and the JSON report the positions of the fields
    it fills a row template from."""
    mapping: dict[str, _T] = {}
    for pattern_edge, image in zip(pattern_edges, images):
        mapping[pattern_edge[0]] = image[0]
        mapping[pattern_edge[1]] = image[1]
    return mapping


@dataclass(frozen=True)
class MatchRow:
    """One occurrence: pattern edges aligned position-wise with system edges.

    ``system_edges[i]`` is the image of ``pattern_edges[i]``, and the
    alignment is all a row stores: its node mapping is read off it.  Rows
    are identified by their system edge set; the alignment is one witness
    for it.  The record does not check itself; ``check_table`` states and
    checks every row rule.
    """

    pattern_edges: tuple[EdgeTuple, ...]
    system_edges: tuple[EdgeTuple, ...]

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


@dataclass(frozen=True)
class MatchTable:
    """All occurrences found at one level.

    ``level`` is the column count (edges matched per row); the row count is
    the occurrence count.  Level 0 with no rows is the empty table carried
    by an absent verdict.  Rows are kept sorted by their system edge sets,
    with no two rows sharing one; ``check_table`` checks this.
    """

    level: int
    rows: tuple[MatchRow, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    def system_edge_sets(self) -> set[frozenset[EdgeTuple]]:
        """The row identities, convenient for comparisons."""
        return {frozenset(row.system_edges) for row in self.rows}


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of matching one pattern against one system edge set.

    The verdict and the level are read off the table, so they cannot
    disagree with it: no rows means absent, rows at ``pattern_size`` mean
    complete, and rows below it mean partial.
    """

    pattern_name: str
    pattern_size: int
    table: MatchTable

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


class _SystemIndex(dict):
    """Candidate buckets over the system edge set, all in one table.

    Every system edge is filed under four keys of the same shape,
    ``(relation, self_loop, source, target)``, in which ``""`` stands for
    an endpoint the search has not bound: ``(r, l, "", "")``,
    ``(r, l, s, "")``, ``(r, l, "", t)`` and ``(r, l, s, t)``.  ``""`` can
    never be a node identifier, so the four kinds of key never collide.  A
    search step therefore finds its candidates with one lookup, whichever
    of its endpoints are bound.  Buckets hold sorted tuples so iteration
    order is deterministic, and the self-loop flag in every key keeps a
    non-loop pattern edge from seeing loop candidates.
    """

    def __init__(self, edges: frozenset[EdgeTuple]) -> None:
        buckets: dict[tuple, list[EdgeTuple] | tuple[EdgeTuple]] = {}
        for edge in sorted(edges):
            source, target, relation, self_loop = edge
            for key in (
                (relation, self_loop, "", ""),
                (relation, self_loop, source, ""),
                (relation, self_loop, "", target),
            ):
                buckets.setdefault(key, []).append(edge)
            # Endpoints and relation determine the edge: a bucket of one.
            buckets[relation, self_loop, source, target] = (edge,)
        super().__init__((key, tuple(bucket)) for key, bucket in buckets.items())


@functools.lru_cache(maxsize=1)
def _system_index(system: frozenset[EdgeTuple]) -> _SystemIndex:
    """The index over ``system``, built once and reused while the same
    system is searched: by every level of ``detect`` and by consecutive
    patterns run against one model.  ``_SystemIndex`` is looked up at call
    time, so a replacement of it takes effect on the next system."""
    return _SystemIndex(system)


def _pattern_facts(pattern: frozenset[EdgeTuple]) -> tuple[
    dict[str, list[EdgeTuple]], dict[EdgeTuple, EdgeTuple], dict[int, list[tuple[EdgeTuple, ...]]]
]:
    """The incident edges, twin-leaf predecessors and components of
    ``pattern``.

    The first map lists each node's edges in sorted order, a self-loop
    once.  Twin leaves are degree-1, non-loop nodes that hang off the same
    node with the same relation and direction, so swapping them maps the
    pattern onto itself.  The second map sends each edge of a twin group,
    in sorted order, to the group's edge before it; the first edge of a
    group and every edge outside one have no entry.  The third map holds
    each weakly connected component, as a sorted tuple, under its edge
    count.
    """
    incident: defaultdict[str, list[EdgeTuple]] = defaultdict(list)
    for edge in sorted(pattern):
        incident[edge[0]].append(edge)
        if not edge[3]:
            incident[edge[1]].append(edge)
    groups: defaultdict[tuple, list[EdgeTuple]] = defaultdict(list)
    for node, edges in incident.items():
        if len(edges) == 1 and not edges[0][3]:
            source, target, relation, _ = edge = edges[0]
            if source == node:
                groups[target, relation, "in"].append(edge)
            else:
                groups[source, relation, "out"].append(edge)
    twin_prev = {b: a for group in map(sorted, groups.values()) for a, b in zip(group, group[1:])}
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
    edge it takes, and each connected result is kept once.  Every eligible
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
            above, fragments, tried = fragments, list(components.get(n, ())), set()
            for fragment in above:
                kept = set(map(twin_prev.get, fragment))
                for position, edge in enumerate(fragment):
                    if edge in kept:
                        continue
                    smaller = fragment[:position] + fragment[position + 1 :]
                    if smaller not in tried:
                        tried.add(smaller)
                        if is_weakly_connected(smaller):
                            fragments.append(smaller)
        fragments = tuple(sorted(fragments))
        if n <= top:
            yield n, fragments


def _plan(fragment: tuple[EdgeTuple, ...]) -> tuple[list[tuple], int]:
    """The static search plan for ``fragment`` and its number of node slots.

    Edges are placed in the order that keeps candidate lists narrow: the
    first remaining edge that touches a node placed before it, or else the
    first remaining edge.  Which endpoints earlier steps have bound then
    depends on the order alone, so each step fixes in advance the key it
    looks up and the slots it fills.  A step is ``(relation, self_loop,
    source_key, target_key, source_slot, target_slot, position)``:
    ``relation`` is the edge's relation code; ``*_key`` is the slot
    whose node goes into the lookup key, slot 0 for an endpoint not yet
    bound, which always holds ``""``; ``*_slot`` is the slot the step
    binds, or None when the endpoint is bound already; ``position`` is the
    edge's index in ``fragment``.  A self-loop binds its one slot as its
    source.  Step 0 is a root that places nothing, so the first edge's
    candidates are looked up like every later edge's.
    """
    slots = {"": 0}
    remaining = list(enumerate(fragment))
    # The first edge placed is fragment[0], so the root writes its image.
    steps: list[tuple] = [(None, None, 0, 0, None, None, 0)]
    while remaining:
        for pick, (_, edge) in enumerate(remaining):
            if edge[0] in slots or edge[1] in slots:
                break
        else:
            pick = 0
        position, (source, target, relation, self_loop) = remaining.pop(pick)
        source_key, target_key = slots.get(source, 0), slots.get(target, 0)
        source_slot = None if source_key else slots.setdefault(source, len(slots))
        target_slot = (
            None if target_key or target == source else slots.setdefault(target, len(slots))
        )
        steps.append(
            (relation, self_loop, source_key, target_key, source_slot, target_slot, position)
        )
    return steps, len(slots)


def _embeddings(
    fragment: tuple[EdgeTuple, ...], index: _SystemIndex, prefix: list[EdgeTuple] | None = None
) -> Iterator[tuple[EdgeTuple, ...]]:
    """Yield the image of every injective embedding of ``fragment`` into
    the indexed system: the system edge of each fragment edge, aligned
    position-wise with ``fragment``.

    The search follows the plan of ``_plan``: ``nodes[slot]`` holds the
    system node of each bound pattern node and ``taken`` the set of them,
    so a candidate is checked only against ``taken``, and only at the
    endpoints its step binds.  The mapping stays injective, so distinct
    pattern edges always land on distinct system edges.  The depth-first
    search keeps its state in one slot per step: a recursive closure would
    refer to itself, and every search would leave behind a reference
    cycle that only the cyclic garbage collector frees.

    When the search has run to its end, the edges of the plan's first
    ``placed + 1`` steps are appended to ``prefix``, if given, where
    ``placed`` counts the steps that ever placed a candidate.  A step is
    reached only from a placement of the step before it, so those are
    steps 1 to ``placed``, and each wrote its image slot.  The search tried
    every injective placement of those steps, and step ``placed + 1``
    placed no candidate for any of them, so that prefix has no embedding
    into the system.  A search that yielded an embedding placed every step
    and appends the whole fragment.
    """
    steps, slot_count = _plan(fragment)
    last = len(steps) - 1
    nodes = [""] * slot_count
    taken: set[str] = set()
    images: list[EdgeTuple | None] = [None] * len(fragment)
    lookup = index.get
    # pending[d] holds the untried candidates of step d; the root's one
    # placeholder is None, which it writes to the first edge's image slot
    # before that edge places a candidate.  images[position] is rewritten
    # whenever its step places a candidate, so at a yield it holds the
    # current path only.  Bound slots are never 0, so a slot is true
    # exactly when its step binds it.
    pending: list[Iterator | None] = [None] * len(steps)
    pending[0] = iter((None,))
    depth = 0
    while depth >= 0:
        _, _, _, _, source_slot, target_slot, position = steps[depth]
        for edge in pending[depth]:
            if source_slot:
                if edge[0] in taken or (target_slot and edge[1] in taken):
                    continue
                nodes[source_slot] = edge[0]
                taken.add(edge[0])
                if target_slot:
                    nodes[target_slot] = edge[1]
                    taken.add(edge[1])
            elif target_slot:
                if edge[1] in taken:
                    continue
                nodes[target_slot] = edge[1]
                taken.add(edge[1])
            images[position] = edge
            if depth == last:
                yield tuple(images)
            else:
                relation, self_loop, source_key, target_key, _, _, _ = steps[depth + 1]
                candidates = lookup(
                    (relation, self_loop, nodes[source_key], nodes[target_key]), ()
                )
                if candidates:
                    depth += 1
                    pending[depth] = iter(candidates)
                    break
            # A yielded embedding or a next step without candidates: undo
            # this step's bindings and try its next candidate.
            if source_slot:
                taken.discard(edge[0])
            if target_slot:
                taken.discard(edge[1])
        else:
            depth -= 1
            if depth > 0:
                _, _, _, _, source_slot, target_slot, _ = steps[depth]
                if source_slot:
                    taken.discard(nodes[source_slot])
                if target_slot:
                    taken.discard(nodes[target_slot])
    if prefix is not None:
        placed = len(images) - images.count(None)
        prefix.extend(fragment[step[6]] for step in steps[1 : placed + 2])


def _shape(fragment: tuple[EdgeTuple, ...]) -> tuple:
    """Cheap isomorphism invariant: the node count plus the sorted per-node
    degree vectors, split by relation and direction.  A self-loop counts
    as both an outgoing and an incoming edge of its node."""
    degrees: defaultdict[str, Counter] = defaultdict(Counter)
    for edge in fragment:
        degrees[edge.source][edge.relation, "out"] += 1
        degrees[edge.target][edge.relation, "in"] += 1
    return len(degrees), tuple(sorted(tuple(sorted(d.items())) for d in degrees.values()))


def _search(
    fragments: Iterable[tuple[EdgeTuple, ...]],
    index: _SystemIndex,
    n: int,
    failed: list[tuple[EdgeTuple, ...]],
) -> MatchTable:
    """The level-``n`` table of ``fragments``, the eligible fragments of a
    level in canonical order, against the indexed system.  ``failed``
    holds pattern fragments known to have no embedding into the system; a
    fragment into which one of them embeds is not searched, and the
    failing prefix of every fruitless search is added to it."""
    found: dict[tuple[EdgeTuple, ...], MatchRow] = {}
    # Each fragment is decided here, in this order:
    # 1. The class test: it is skipped when it embeds into the index of an
    #    earlier representative with the same _shape.  An embedding of one
    #    n-edge fragment into another sends the n edges one-to-one onto
    #    the other's, so its injective node map is onto as well, and the
    #    two are isomorphic.
    # 2. Otherwise it gets its own index and becomes a representative.
    # 3. It is skipped when a failed prefix P embeds into that index:
    #    followed by an embedding of the fragment into the system, that
    #    would embed P, because injective typed maps compose.
    # Searching only the representatives gives the table that searching
    # every fragment would:
    # - a fragment hits an image key K only if it is isomorphic to K, by
    #   the argument of 1, so every fragment that hits K is in K's class,
    #   and every member of that class hits every key of the class;
    # - the witness for K is the earliest member of its class in canonical
    #   order with its first embedding onto K, which is the representative's
    #   row built below; that member is the first of its twin-leaf orbit,
    #   so _levels never leaves it out;
    # - a fragment skipped by 3 has no rows.
    # The prefix of a fruitless search is the plan's first placed + 1
    # edges, where placed counts the steps that ever placed a candidate:
    # every injective placement of those steps was tried, and the next
    # step placed nothing for any of them (see _embeddings).  It is kept
    # when it is smaller than the fragment: a search that found an
    # embedding returns the whole fragment, and a fragment isomorphic to
    # a fruitless one is already left out by the class test.
    representatives: dict[tuple, list[_SystemIndex]] = {}
    for fragment in fragments:
        bucket = representatives.setdefault(_shape(fragment), [])
        if any(next(_embeddings(fragment, other), None) is not None for other in bucket):
            continue
        own = _SystemIndex(frozenset(fragment))
        bucket.append(own)
        if any(next(_embeddings(p, own), None) is not None for p in failed):
            continue
        prefix: list[EdgeTuple] = []
        for system_images in _embeddings(fragment, index, prefix):
            row = MatchRow(fragment, system_images)
            found.setdefault(row.system_key(), row)
        if len(prefix) < n:
            failed.append(tuple(prefix))
    return MatchTable(level=n, rows=tuple(found[key] for key in sorted(found)))


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
    system = frozenset(system_edges)
    pattern = frozenset(pattern_edges)
    if not pattern:
        raise EmptyPatternError("pattern has no edges")
    if not 0 < n <= len(pattern):
        raise LevelOutOfRangeError(f"level must be in 1..{len(pattern)}, got {n}")
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
    failing prefixes that ``_search`` learns on one level are kept for the
    levels below, so a fragment that contains one is never searched.  An
    empty system is valid input and yields absence; an empty pattern is an
    error.
    """
    system = frozenset(system_edges)
    pattern = frozenset(pattern_edges)
    if not pattern:
        raise EmptyPatternError("pattern has no edges")
    failed: list[tuple[EdgeTuple, ...]] = []
    for n, fragments in _levels(pattern, min(len(pattern), len(system))):
        table = _search(fragments, _system_index(system), n, failed)
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
    below the top level must be.
    """
    system = frozenset(system_edges)
    pattern = frozenset(pattern_edges)
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
