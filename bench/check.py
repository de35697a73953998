"""Output checks for ``dpdetect detect --format json`` that do not use the detector.

``check_document`` verifies every row of a JSON report for soundness against
the generated model and pattern edge sets, and compares verdict, level and
occurrence count with ``Expected`` answers.  The expected answers come from
closed forms over the generated inputs (``expected_builtins``,
``expected_star``, ``expected_chain``), never from dpdetect itself.

Edges are ``(source, target, relation)`` triples as in ``workloads``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb

from workloads import ASSOC, DEP, GEN, Edge

# The built-in catalog, restated so the checks do not import it.
BUILTINS: dict[str, frozenset[Edge]] = {
    "composite": frozenset({("c", "a", ASSOC), ("b", "a", GEN), ("c", "a", GEN)}),
    "facade": frozenset({("P", "Q", ASSOC)}),
    "prototype": frozenset({("b", "a", ASSOC), ("c", "a", GEN)}),
    "singleton": frozenset({("A", "A", ASSOC)}),
}


@dataclass(frozen=True)
class Expected:
    """Known answer for one pattern; ``None`` fields are not checked.

    ``min_level`` is a lower bound on the matched level, for patterns whose
    exact level depends on chance occurrences in a random model.
    """

    verdict: str | None = None
    level: int | None = None
    occurrences: int | None = None
    min_level: int | None = None


def _answer(size: int, level: int, count: int) -> Expected:
    if count == 0:
        return Expected("absent", None, 0)
    return Expected("complete" if level == size else "partial", level, count)


def expected_builtins(system: frozenset[Edge]) -> dict[str, Expected]:
    """Answers for the four built-ins by direct joins over the system edges.

    Pattern node images must be distinct, so a join never pairs an edge with
    itself or reuses a class.  Self-loops only match self-loops.
    """
    assoc = [(s, t) for s, t, r in system if r == ASSOC and s != t]
    loops = sum(1 for s, t, r in system if r == ASSOC and s == t)
    gen_in: dict[str, set[str]] = defaultdict(set)
    for s, t, r in system:
        if r == GEN and s != t:
            gen_in[t].add(s)
    gens = sum(len(sources) for sources in gen_in.values())
    # prototype: assoc x->y and gen z->y with x, y, z distinct.
    joined = sum(len(gen_in[y] - {x}) for x, y in assoc)
    # composite: assoc x->y, gen x->y and gen z->y with x, y, z distinct.
    parallel = [(x, y) for x, y in assoc if x in gen_in[y]]
    composite = sum(len(gen_in[y]) - 1 for x, y in parallel)
    if composite:
        composite_answer = _answer(3, 3, composite)
    else:
        # Connected 2-edge fragments: assoc+gen sharing only the target,
        # parallel assoc+gen, and two gens into one class.
        pairs = joined + len(parallel) + sum(comb(len(s), 2) for s in gen_in.values())
        composite_answer = _answer(3, 2, pairs) if pairs else _answer(3, 1, len(assoc) + gens)
    return {
        "facade": _answer(1, 1, len(assoc)),
        "singleton": _answer(1, 1, loops),
        "prototype": _answer(2, 2, joined) if joined else _answer(2, 1, len(assoc) + gens),
        "composite": composite_answer,
    }


def expected_star(system: frozenset[Edge], leaves: int) -> Expected:
    """A ``leaves``-leaf gen in-star: every sub-star is a connected fragment,
    so the level is the largest gen in-degree (capped at ``leaves``) and each
    class of in-degree d holds C(d, level) occurrences."""
    indegree: dict[str, int] = defaultdict(int)
    for s, t, r in system:
        if r == GEN and s != t:
            indegree[t] += 1
    level = min(leaves, max(indegree.values(), default=0))
    return _answer(leaves, level, sum(comb(d, level) for d in indegree.values()) if level else 0)


def expected_chain(chain_edges: int, dag_width: int, dag_depth: int) -> Expected:
    """A gen chain against a layered DAG whose adjacent layers are fully
    joined: the longest gen path has depth - 1 edges, and there are
    width ** depth of them, one per choice of a class in each layer."""
    return _answer(chain_edges, dag_depth - 1, dag_width**dag_depth)


def _connected(edges) -> bool:
    """Weak connectivity by union-find over edge endpoints."""
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for source, target, *_ in edges:
        parent[find(source)] = find(target)
    return len({find(node) for node in parent}) == 1


def _row_problems(row: dict, pattern: frozenset[Edge], system: frozenset[Edge], level: int):
    fragment = [tuple(e) for e in row["pattern_edges"]]
    image = [tuple(e) for e in row["system_edges"]]
    mapping = row["mapping"]
    if len(fragment) != level or len(image) != level:
        yield f"row has {len(fragment)}/{len(image)} edges at level {level}"
        return
    for edges, known, what in ((fragment, pattern, "pattern"), (image, system, "system")):
        if len(set(edges)) != level:
            yield f"repeated {what} edge in a row"
        for s, t, r, loop in edges:
            if (s, t, r) not in known:
                yield f"{what} edge {s} {t} {r} is not in the {what}"
            if loop != (1 if s == t else 0):
                yield f"{what} edge {s} {t} has self-loop flag {loop}"
    if len(set(mapping.values())) != len(mapping):
        yield "mapping is not injective"
    if set(mapping) != {n for e in fragment for n in e[:2]}:
        yield "mapping keys differ from the fragment's nodes"
    for (ps, pt, pr, pl), (ss, st, sr, sl) in zip(fragment, image):
        if pr != sr or pl != sl or mapping.get(ps) != ss or mapping.get(pt) != st:
            yield f"pattern edge {ps} {pt} is not aligned with system edge {ss} {st}"
    if not _connected(fragment):
        yield "fragment is not weakly connected"
    if not _connected(image):
        yield "matched system edges are not weakly connected"


def check_document(
    document: dict,
    system: frozenset[Edge],
    patterns: dict[str, frozenset[Edge]],
    expected: dict[str, Expected],
) -> list[str]:
    """Every problem found in one JSON report; empty when it is correct."""
    problems = []
    names = sorted(patterns)
    if document.get("catalog") != names:
        problems.append(f"catalog {document.get('catalog')} != {names}")
    results = document.get("results", [])
    if [r["pattern"] for r in results] != names:
        problems.append("results are not one per catalog pattern in name order")
    for result in results:
        name = result["pattern"]
        pattern = patterns.get(name, frozenset())
        verdict, level, rows = result["verdict"], result["level"], result["rows"]
        where = f"[{name}]"
        consistent = (
            (verdict == "complete" and level == len(pattern) and rows)
            or (verdict == "partial" and level is not None and 0 < level < len(pattern) and rows)
            or (verdict == "absent" and level is None and not rows)
        )
        if not consistent or result["occurrences"] != len(rows):
            problems.append(f"{where} {verdict} at level {level} with {len(rows)} rows")
            continue
        want = expected.get(name, Expected())
        for field, got in (
            ("verdict", verdict), ("level", level), ("occurrences", result["occurrences"])
        ):
            if getattr(want, field) is not None and getattr(want, field) != got:
                problems.append(f"{where} {field} {got} != expected {getattr(want, field)}")
        if want.min_level is not None and (level or 0) < want.min_level:
            problems.append(f"{where} level {level} < planted level {want.min_level}")
        seen = set()
        for index, row in enumerate(rows):
            problems.extend(f"{where} row {index}: {p}" for p in _row_problems(row, pattern, system, level))
            key = frozenset(tuple(e) for e in row["system_edges"])
            if key in seen:
                problems.append(f"{where} row {index}: repeats an earlier row's edge set")
            seen.add(key)
    return problems


def read_model(text: str) -> frozenset[Edge]:
    """The edge set of a ``.cg`` model, read without dpdetect's parser."""
    relation = {"assoc": ASSOC, "dep": DEP, "gen": GEN}
    edges = set()
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] in relation:
            edges.add((words[1], words[2], relation[words[0]]))
        elif words and words[0] == "selfassoc":
            edges.add((words[1], words[1], ASSOC))
    return frozenset(edges)
