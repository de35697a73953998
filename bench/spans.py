"""Span tracing from outside the program, and the per-layer metrics it yields.

``Tracer.call`` swaps dpdetect functions for timing wrappers, for one
request, in the module namespaces their callers look them up in, so no
source file changes:
``dpdetect.cli`` for parse, catalog load, detect and render, and
``dpdetect.matcher`` for the per-level ``find_matches`` calls and the
connectivity checks.  Each call becomes a span (name, start, end, parent,
note) kept in memory; ``write`` stores them once, at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import dpdetect.cli
import dpdetect.matcher


def _level_note(args, kwargs, table):
    """(is this the top level, rows found) for one ``find_matches`` call."""
    pattern = args[1] if len(args) > 1 else kwargs["pattern_edges"]
    level = args[2] if len(args) > 2 else kwargs["n"]
    return level == len(pattern), len(table.rows)


# Span name -> (module, attribute, layer, note taken from args/kwargs/result).
TRACED = {
    "parse_model": (dpdetect.cli, "parse_model", "model", lambda a, k, r: len(r.edges)),
    "load_catalog": (dpdetect.cli, "load_catalog", "catalog", lambda a, k, r: len(r)),
    "detect": (dpdetect.cli, "detect", "matcher", lambda a, k, r: k.get("pattern_name")),
    "render_json": (dpdetect.cli, "render_json", "cli", None),
    "find_matches": (dpdetect.matcher, "find_matches", "matcher", _level_note),
    "is_weakly_connected": (dpdetect.matcher, "is_weakly_connected", "graph", None),
}
ROOT = "main"
LAYER = {name: spec[2] for name, spec in TRACED.items()} | {ROOT: "cli"}


class Tracer:
    """Collects one span list per traced request."""

    def __init__(self) -> None:
        self.requests: list[list[tuple]] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            spans = self.requests[-1]
            index = len(spans)
            parent = self._stack[-1] if self._stack else -1
            spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def call(self, main, argv):
        """Run ``main(argv)`` as one traced request rooted at a ``main`` span."""
        self.requests.append([])
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED.values()]
        try:
            for name, (module, attr, _, note) in TRACED.items():
                setattr(module, attr, self._wrap(name, getattr(module, attr), note))
            return self._wrap(ROOT, main, None)(argv)
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One JSON line per span: request, id, parent, name, start, end, note."""
        with path.open("w", encoding="utf-8") as out:
            for request, spans in enumerate(self.requests):
                for index, (name, start, end, parent, note) in enumerate(spans):
                    out.write(json.dumps([request, index, parent, name, start, end, note]) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def request_metrics(spans: list[tuple], output_bytes: int) -> dict[str, float]:
    """Per-layer figures for one traced request."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    count = defaultdict(int)
    self_time = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        count[name] += 1
        self_time[LAYER[name]] += end - start - child_time[index]
    for name, start, end, _, note in spans:
        if name == "detect" and note in ("star", "chain"):
            total[f"detect.{note}"] += end - start
        elif name == "find_matches":
            top, rows = note
            total["top" if top else "descent"] += end - start
            total["rows"] += rows
            total["hits"] += rows > 0
        elif name in ("parse_model", "load_catalog"):
            total[f"{name}.note"] += note
    detect = total["detect"]
    return {
        "model.parse_s": total["parse_model"],
        "model.edges_per_s": _ratio(total["parse_model.note"], total["parse_model"]),
        "catalog.load_s": total["load_catalog"],
        "catalog.patterns": total["load_catalog.note"],
        "matcher.detect_s": detect,
        "matcher.detect_s.star": total["detect.star"],
        "matcher.detect_s.chain": total["detect.chain"],
        "matcher.top_level_s": total["top"],
        "matcher.descent_s": total["descent"],
        "matcher.levels_tried": count["find_matches"],
        "matcher.level_hit_ratio": _ratio(total["hits"], count["find_matches"]),
        "matcher.rows": total["rows"],
        "matcher.rows_per_s": _ratio(total["rows"], detect),
        "matcher.self_s": self_time["matcher"],
        "graph.connectivity_calls": count["is_weakly_connected"],
        "graph.connectivity_s": total["is_weakly_connected"],
        "cli.render_s": total["render_json"],
        "cli.output_bytes": output_bytes,
        "cli.self_s": self_time["cli"],
        "trace.spans": len(spans),
        "trace.wall_s": total[ROOT],
    }


def per_layer(tracer: Tracer, output_bytes: int, untraced_wall: list[float]) -> dict[str, float]:
    """Median of each figure over the traced requests, plus tracing overhead."""
    rows = [request_metrics(spans, output_bytes) for spans in tracer.requests]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = metrics.pop("trace.wall_s") - statistics.median(untraced_wall)
    return metrics
