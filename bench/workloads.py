"""Seeded workload generators for the dpdetect benchmark.

Each workload is a pure function of its seed and size: the same seed gives
byte-identical model and pattern files.  The detector only ever sees those
files; the edge sets and generator parameters returned alongside them are
for the benchmark's own output checks.

Edges are ``(source, target, relation)`` triples with relation codes
1 = assoc, 2 = dep, 3 = gen, mirroring the ``.cg`` model format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ASSOC, DEP, GEN = 1, 2, 3
_DIRECTIVE = {ASSOC: "assoc", DEP: "dep", GEN: "gen"}

Edge = tuple[str, str, int]

# Generator parameters per workload: "full" is what the benchmark times,
# "smoke" is the reduced size the benchmark's own tests run.
PARAMS: dict[str, dict[str, dict]] = {
    # Output-bound: three built-ins hit at the top level, ~17k rows, ~10 MB
    # of JSON; the level descent is at most one step (composite).
    "big-model": {
        "full": {"classes": 2000, "edges": 10000, "loop_share": 0.01},
        "smoke": {"classes": 200, "edges": 1000, "loop_share": 0.01},
    },
    # Search-bound: a generalization star that misses at the top and descends
    # through C(leaves, n) isomorphic fragments, plus a long chain that
    # searches a layered generalization DAG.  The star was cut from 12 leaves
    # to 10 so that a run holds enough invocations for a median and a tail.
    "adversarial": {
        "full": {
            "hubs": 10, "hub_degree": 3, "star_leaves": 10, "chain_edges": 12,
            "dag_width": 3, "dag_depth": 7, "assoc": 12, "dep": 6, "loops": 2,
        },
        "smoke": {
            "hubs": 3, "hub_degree": 3, "star_leaves": 6, "chain_edges": 6,
            "dag_width": 2, "dag_depth": 4, "assoc": 6, "dep": 3, "loops": 1,
        },
    },
    # Many small user patterns over one mid-sized model: the system index is
    # rebuilt for every pattern x level, and the catalog loads many files.
    "many-patterns": {
        "full": {"classes": 500, "edges": 2000, "loop_share": 0.01, "patterns": 40},
        "smoke": {"classes": 100, "edges": 400, "loop_share": 0.01, "patterns": 8},
    },
}


@dataclass(frozen=True)
class Workload:
    """Generated inputs plus what the checks need to know about them."""

    name: str
    params: dict
    model_text: str
    system: frozenset[Edge]
    # User pattern name -> (file text, edge set); empty for built-ins only.
    patterns: dict[str, tuple[str, frozenset[Edge]]] = field(default_factory=dict)

    def write(self, directory: Path) -> tuple[Path, Path | None]:
        """Write the model file and, if any, the pattern directory."""
        directory.mkdir(parents=True, exist_ok=True)
        model = directory / "model.cg"
        model.write_text(self.model_text, encoding="utf-8")
        if not self.patterns:
            return model, None
        catalog = directory / "patterns"
        catalog.mkdir(exist_ok=True)
        for name, (text, _) in self.patterns.items():
            (catalog / f"{name}.cg").write_text(text, encoding="utf-8")
        return model, catalog


def render(name: str, edges: list[Edge], classes: list[str] = ()) -> str:
    """Model text in the ``.cg`` format, edges in the given order."""
    lines = [f"model {name}"]
    lines.extend(f"class {c}" for c in classes)
    for source, target, relation in edges:
        if relation == ASSOC and source == target:
            lines.append(f"selfassoc {source}")
        else:
            lines.append(f"{_DIRECTIVE[relation]} {source} {target}")
    return "\n".join(lines) + "\n"


def _class_names(classes: int) -> list[str]:
    return [f"c{i:05d}" for i in range(classes)]


def _random_system(
    rng: random.Random,
    names: list[str],
    edges: int,
    loop_share: float,
    planted: list[Edge] = (),
    pairs: set[tuple[str, str]] | None = None,
) -> list[Edge]:
    """``edges`` distinct edges over ``names``, ``planted`` among them.

    A fixed share are assoc self-loops; the rest are split evenly over the
    three relations, with at most one edge per ordered pair of classes.  The
    one-edge-per-pair rule rules out parallel assoc/gen pairs, so composite
    never completes and every seed gives the same built-in verdicts.
    """
    pairs = set() if pairs is None else pairs
    loops = round(edges * loop_share)
    out: list[Edge] = [(n, n, ASSOC) for n in rng.sample(names, loops)]
    out.extend(planted)
    rest = edges - len(out)
    for k, relation in enumerate((ASSOC, DEP, GEN)):
        for _ in range(rest // 3 + (k < rest % 3)):
            while True:
                source, target = rng.choice(names), rng.choice(names)
                if source != target and (source, target) not in pairs:
                    break
            pairs.add((source, target))
            out.append((source, target, relation))
    rng.shuffle(out)
    return out


def big_model(seed: int, classes: int, edges: int, loop_share: float) -> Workload:
    rng = random.Random(seed)
    names = _class_names(classes)
    edge_list = _random_system(rng, names, edges, loop_share)
    return Workload(
        name="big-model",
        params=dict(classes=classes, edges=edges, loop_share=loop_share),
        model_text=render("big-model", edge_list, names),
        system=frozenset(edge_list),
    )


def star_pattern(leaves: int) -> list[Edge]:
    return [(f"leaf{i:02d}", "hub", GEN) for i in range(leaves)]


def chain_pattern(length: int) -> list[Edge]:
    return [(f"p{i:02d}", f"p{i + 1:02d}", GEN) for i in range(length)]


def adversarial(
    seed: int,
    hubs: int,
    hub_degree: int,
    star_leaves: int,
    chain_edges: int,
    dag_width: int,
    dag_depth: int,
    assoc: int,
    dep: int,
    loops: int,
) -> Workload:
    """Generalization hubs and a layered generalization DAG, labelled at random.

    The hubs are disjoint in-stars; the DAG has ``dag_depth`` layers of
    ``dag_width`` classes with every class generalizing every class of the
    next layer.  The extra assoc and dep edges never share an ordered pair
    with another edge and add no gen edges, so the star's and the chain's
    answers depend on the hubs and the DAG alone.
    """
    if chain_edges < dag_depth or hub_degree > star_leaves or dag_width > star_leaves:
        raise ValueError("star and chain must miss at the top level")
    rng = random.Random(seed)
    count = hubs * (hub_degree + 1) + dag_width * dag_depth
    labels = [f"k{v:06d}" for v in rng.sample(range(10**6), count)]
    edges: list[Edge] = []
    for _ in range(hubs):
        hub = labels.pop()
        edges.extend((labels.pop(), hub, GEN) for _ in range(hub_degree))
    layers = [[labels.pop() for _ in range(dag_width)] for _ in range(dag_depth)]
    for upper, lower in zip(layers, layers[1:]):
        edges.extend((s, t, GEN) for s in upper for t in lower)
    nodes = sorted({n for e in edges for n in e[:2]})
    pairs = {(s, t) for s, t, _ in edges}
    for relation, wanted in ((ASSOC, assoc), (DEP, dep)):
        for _ in range(wanted):
            while True:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if source != target and (source, target) not in pairs:
                    break
            pairs.add((source, target))
            edges.append((source, target, relation))
    edges.extend((n, n, ASSOC) for n in rng.sample(nodes, loops))
    rng.shuffle(edges)
    star = star_pattern(star_leaves)
    chain = chain_pattern(chain_edges)
    return Workload(
        name="adversarial",
        params=dict(
            hubs=hubs, hub_degree=hub_degree, star_leaves=star_leaves,
            chain_edges=chain_edges, dag_width=dag_width, dag_depth=dag_depth,
            assoc=assoc, dep=dep, loops=loops,
        ),
        model_text=render("adversarial", edges),
        system=frozenset(edges),
        patterns={
            "star": (render("star", star), frozenset(star)),
            "chain": (render("chain", chain), frozenset(chain)),
        },
    )


# Connected skeletons with 3-5 nodes and 3-6 edges; the seed draws each
# edge's direction and relation.  Every pattern gets one copy wired into the
# model.  A COMPLETE skeleton is planted whole, so its verdict is complete.
# A PARTIAL skeleton is dense enough that a chance occurrence in a sparse
# random model is rare; it is planted without its last edge, and the pair
# that edge would join is kept free, so its verdict is partial at the level
# below the top.  Fixing the outcome this way keeps the cost of a run nearly
# the same across seeds: free random patterns flip between a few complete
# rows and thousands of lower-level partial rows from seed to seed.
COMPLETE = {
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "paw": ((0, 1), (1, 2), (2, 0), (2, 3)),
    "square": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "bull": ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4)),
    "pentagon": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)),
}
PARTIAL = {
    "diamond": ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0)),
    "bowtie": ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)),
    "house": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)),
}
SKELETONS = {**COMPLETE, **PARTIAL}


def skeleton_of(pattern_name: str) -> str:
    return pattern_name.split("-", 1)[1]


def _orient(rng: random.Random, skeleton) -> list[Edge]:
    """Skeleton edges with a random direction and relation each."""
    edges = []
    for a, b in skeleton:
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((f"v{a}", f"v{b}", rng.choice((ASSOC, DEP, GEN))))
    return edges


def _plant(
    rng: random.Random, names: list[str], pattern: list[Edge], pairs: set, whole: bool
) -> list[Edge]:
    """One copy of ``pattern`` on distinct random classes and unused pairs.

    Without ``whole`` the last edge is left out, and its pair is reserved so
    that no random edge can complete the copy.
    """
    nodes = sorted({n for e in pattern for n in e[:2]})
    while True:
        image = dict(zip(nodes, rng.sample(names, len(nodes))))
        edges = [(image[s], image[t], r) for s, t, r in pattern]
        if not any((s, t) in pairs for s, t, _ in edges):
            pairs.update((s, t) for s, t, _ in edges)
            return edges if whole else edges[:-1]


def many_patterns(
    seed: int, classes: int, edges: int, loop_share: float, patterns: int
) -> Workload:
    """User patterns cycle through ``SKELETONS``; see the comment there."""
    rng = random.Random(seed)
    kinds = list(SKELETONS)
    user = {}
    for i in range(patterns):
        kind = kinds[i % len(kinds)]
        user[f"user{i:02d}-{kind}"] = _orient(rng, SKELETONS[kind])
    names = _class_names(classes)
    pairs: set[tuple[str, str]] = set()
    planted = [
        edge
        for name, pattern in user.items()
        for edge in _plant(rng, names, pattern, pairs, skeleton_of(name) in COMPLETE)
    ]
    edge_list = _random_system(rng, names, edges, loop_share, planted, pairs)
    return Workload(
        name="many-patterns",
        params=dict(classes=classes, edges=edges, loop_share=loop_share, patterns=patterns),
        model_text=render("many-patterns", edge_list, names),
        system=frozenset(edge_list),
        patterns={name: (render(name, p), frozenset(p)) for name, p in user.items()},
    )


_BUILDERS = {"big-model": big_model, "adversarial": adversarial, "many-patterns": many_patterns}
NAMES = tuple(_BUILDERS)


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """The named workload at the given size ("full" or "smoke")."""
    return _BUILDERS[name](seed, **PARAMS[name][size])
