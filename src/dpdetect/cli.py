"""Command-line interface: detect patterns in a model, list the catalog,
validate model files.

Exit codes: 0 success, 1 usage or input error, 2 verification mismatch.
Report output is deterministic byte for byte; verification chatter goes to
stderr so stdout stays stable.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
# What ``json.JSONEncoder(ensure_ascii=False).encode`` returns for a
# ``str``: the C function behind ``json.encoder.encode_basestring``, taken
# from ``_json`` so that no process loads the ``json`` package.
from _json import encode_basestring as _string
from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import CodeType, FunctionType

from . import __version__
from .catalog import CatalogError, PatternCatalog, load_catalog
from .graph import ClassGraph, EdgeTuple, RelationKind, _Record
from .matcher import DetectionReport, Verdict, _node_map, check_table, detect
from .model import ModelSyntaxError, parse_model
from .oracle import OracleSizeError, oracle_detect

__all__ = ["main", "CATALOG_ENV_VAR", "ReportDocument", "render_json"]

CATALOG_ENV_VAR = "DPDETECT_CATALOG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_MISMATCH = 2

_TEMPLATES = {
    Verdict.COMPLETE: "The design pattern completely exists in the System design with {count} times",
    Verdict.PARTIAL: "The design pattern partially exists in the System design with {count} times",
    Verdict.ABSENT: "The design pattern does not exist in the System design",
}


class ReportDocument(_Record):
    """Everything one detect run produced, ready for serialization."""

    __slots__ = ("model_name", "results", "catalog_names")

    model_name: str
    results: tuple[DetectionReport, ...]
    catalog_names: tuple[str, ...]

    def __init__(
        self,
        model_name: str,
        results: tuple[DetectionReport, ...],
        catalog_names: tuple[str, ...],
    ) -> None:
        names = [result.pattern_name for result in results]
        if names != sorted(names):
            raise ValueError("results must be sorted by pattern name")
        self._assign(model_name, results, catalog_names)


def render_text(document: ReportDocument) -> str:
    sections = [f"model: {document.model_name or '(unnamed)'}"]
    for report in document.results:
        sentence = _TEMPLATES[report.verdict].format(count=report.occurrences)
        sections.append(f"[{report.pattern_name}]\n{sentence}")
    return "\n\n".join(sections) + "\n"


# Pieces per chunk of the JSON report: a chunk ends with the row that takes
# it past this count.  A row has a slot and a part for each system edge and
# each mapped node, so its pieces grow with its text, which averages about
# 60 bytes a piece on the bench workloads: a chunk holds some 30-40 KiB
# however wide its rows are.  A smaller cap only adds writes.
_CHUNK_PIECES = 512

# Marks a slot to be filled in laid-out JSON.  Encoded text never holds a
# raw NUL, since the encoder escapes it, so the mark cannot clash with it.
_SLOT = "\x00"

# What ``_block`` puts between two rows of a result, which starts each row
# template, and what comes before each field of an edge in a row.
_ROW_SEPARATOR = ",\n" + " " * 8
_FIELD = "\n" + " " * 14


def _block(items: list[str], pad: str, opener: str, closer: str) -> str:
    """Encoded ``items`` one per line inside brackets whose line is
    indented by ``pad``, as ``json.dumps(indent=2)`` lays them out.

    It lays out each fragment's row template once, sorting the mapping
    keys there, and the report's skeleton once, never a row or an edge."""
    if not items:
        return opener + closer
    inner = "\n" + pad + "  "
    pieces = ["," + inner] * (2 * len(items) + 1)
    pieces[0] = opener + inner
    pieces[1::2] = items
    pieces[-1] = "\n" + pad + closer
    return "".join(pieces)


class _Encoded(dict):
    """Each key's JSON text, encoded on first use and reused after."""

    def __init__(self, encode) -> None:
        self.encode = encode

    def __missing__(self, key):
        text = self[key] = self.encode(key)
        return text


def _edge_json(edge: EdgeTuple) -> str:
    source, target, relation, self_loop = edge
    return (
        f"[{_FIELD}{_string(source)},{_FIELD}{_string(target)},"
        f"{_FIELD}{relation},{_FIELD}{self_loop}\n{' ' * 12}]"
    )


def _row_source(edges: int, nodes: int) -> str:
    """Source of ``row(s, e, n, p0, ..., a0, b0, ...)``, which returns a
    row's text as the tuple of the parts ``p<i>`` and, between two, a
    slot: edge ``i``'s text ``e[s[i]]``, then node ``k``'s
    ``n[s[a<k>][b<k>]]``.  The source holds only names made here and
    integers."""
    slots = [*map("e[s[{}]]".format, range(edges)), *map("n[s[a{0}][b{0}]]".format, range(nodes))]
    names = [*map("p{}".format, range(len(slots) + 1)), *map("a{0}, b{0}".format, range(nodes))]
    pieces = "".join(map("p{}, {}, ".format, range(len(slots)), slots))
    return "def row(s, e, n, {}):\n return {}p{},\n".format(", ".join(names), pieces, len(slots))


@functools.lru_cache(maxsize=128)
def _row_code(edges: int, nodes: int) -> CodeType:
    """``_row_source`` compiled, for the 128 latest layouts; the code
    alone, so a dropped entry leaves no reference cycle."""
    namespace: dict[str, object] = {}
    exec(_row_source(edges, nodes), namespace)
    return namespace.pop("row").__code__


def _json_chunks(document: ReportDocument) -> Iterator[str]:
    """The JSON report in chunks: the head of the document and of each
    result, and each result's rows, a chunk ending with the row whose
    pieces take it past ``_CHUNK_PIECES``.

    Each ``(pattern_edges, size)`` gets a template: a function on
    ``_row_code``'s code whose defaults bind the text caches, the text
    between its slots, led by the row separator, and where each mapped
    node is read.  So a row of any size renders as ``json.dumps`` would.
    A row looks its template up only when its ``pattern_edges`` object or
    size differs from the row before it.  It checks no identifier
    (``ClassGraph`` and ``EdgeTuple`` do); ``_string`` escapes any."""
    edge_text = _Encoded(_edge_json)
    node_text = _Encoded(_string)

    def template(shape: tuple[tuple[EdgeTuple, ...], int]):
        pattern_edges, size = shape
        # Where each node is read, by ``MatchRow.mapping``'s rule, in key order.
        source = _node_map(pattern_edges, [((number, 0), (number, 1)) for number in range(size)])
        keys = sorted(source)
        text = _block([
            _block([edge_text[e] for e in pattern_edges], " " * 10, '"pattern_edges": [', "]"),
            _block([_SLOT] * size, " " * 10, '"system_edges": [', "]"),
            _block([f"{_string(k)}: {_SLOT}" for k in keys], " " * 10, '"mapping": {', "}"),
        ], " " * 8, "{", "}")
        places = [field for k in keys for field in source[k]]
        defaults = (edge_text, node_text, *(_ROW_SEPARATOR + text).split(_SLOT), *places)
        return FunctionType(_row_code(size, len(keys)), {}, "row", defaults)

    templates = _Encoded(template)

    results = []
    for report in document.results:
        level = "null" if report.level is None else str(report.level)
        results.append(_block([
            '"pattern": ' + _string(report.pattern_name),
            '"verdict": ' + _string(report.verdict.value),
            f'"level": {level}',
            f'"occurrences": {report.occurrences}',
            _block([_SLOT] if report.table.rows else [], " " * 6, '"rows": [', "]"),
        ], "    ", "{", "}"))
    catalog = [_string(name) for name in document.catalog_names]
    skeleton = _block([
        '"model": ' + _string(document.model_name),
        '"tool_version": ' + _string(__version__),
        _block(catalog, "  ", '"catalog": [', "]"),
        _block(results, "  ", '"results": [', "]"),
    ], "", "{", "}\n").split(_SLOT)
    yield skeleton[0]
    tables = [report.table.rows for report in document.results if report.table.rows]
    for rows, after in zip(tables, skeleton[1:]):
        # The first row of a table follows its bracket, not another row.
        out, cut, shape, size = [], len(_ROW_SEPARATOR), None, -1
        for row in rows:
            system = row.system_edges
            if row.pattern_edges is not shape or len(system) != size:
                shape, size = row.pattern_edges, len(system)
                fill = templates[shape, size]
            out += fill(system)
            if len(out) > _CHUNK_PIECES:
                yield "".join(out)[cut:]
                out, cut = [], 0
        if out:
            yield "".join(out)[cut:]
        yield after


def render_json(document: ReportDocument) -> str:
    """The report as indented JSON, byte for byte what ``json.dumps`` with
    ``indent=2`` and ``ensure_ascii=False`` gives for the same document,
    plus a final newline."""
    return "".join(_json_chunks(document))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for verification mismatches, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dpdetect", description="Detect design patterns in class-model graphs."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="command")

    catalog_help = f"extra pattern definitions (.cg file or directory); defaults to ${CATALOG_ENV_VAR}"

    detector = subparsers.add_parser("detect", help="run pattern detection against a model file")
    detector.add_argument("model", help="model file in the .cg line format")
    which = detector.add_mutually_exclusive_group()
    which.add_argument("--pattern", metavar="NAME", help="detect a single catalog pattern")
    which.add_argument("--all", action="store_true", help="detect every catalog pattern (default)")
    detector.add_argument("--catalog", metavar="PATH", help=catalog_help)
    detector.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format (default: text)"
    )
    detector.add_argument(
        "--verify",
        action="store_true",
        help="check every result's rows, and cross-check results against the "
        "brute-force reference (small models only)",
    )

    lister = subparsers.add_parser("list", help="list catalog patterns")
    lister.add_argument("--catalog", metavar="PATH", help=catalog_help)

    validator = subparsers.add_parser("validate", help="parse a model file and report its shape")
    validator.add_argument("model", help="model file in the .cg line format")

    return parser


class _Failure(Exception):
    """A model, a pattern or stdout that a command cannot use; ``main``
    prints its message as the one error line and exits 1."""


def _write(chunks: Iterable[str]) -> None:
    """Write ``chunks`` to stdout as they come and flush them, or raise
    ``_Failure`` when stdout cannot take them.  Python sets ``sys.stdout``
    to None when it starts with its descriptor closed, and such a stdout
    takes nothing.

    After a failed write, text may be left in stdout's buffer, and the
    interpreter would fail to flush it again at exit and exit 120.  So,
    before raising, a stdout backed by a file descriptor is pointed at the
    null device, as the Python ``signal`` docs advise for ``SIGPIPE``; a
    stdout without one, such as an in-process caller's buffer, is left
    alone."""
    if sys.stdout is None:
        raise _Failure("cannot write the report: stdout is closed")
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except OSError as err:
        try:
            descriptor = sys.stdout.fileno()
        except (AttributeError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, descriptor)
            os.close(devnull)
        raise _Failure(f"cannot write the report: {err.strerror or err}")


def _resolve_catalog(argument: str | None) -> PatternCatalog:
    """The catalog named by ``--catalog``, else by a non-empty
    ``DPDETECT_CATALOG``, else the built-ins.  An empty ``--catalog`` is
    passed on, so ``load_catalog`` rejects it."""
    if argument is None:
        argument = os.environ.get(CATALOG_ENV_VAR) or None
    return load_catalog(argument)


def _read_model(path_str: str) -> ClassGraph:
    """The parsed model; raises ``_Failure`` saying why it cannot be read."""
    try:
        return parse_model(Path(path_str).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as err:
        raise _Failure(f"cannot read model {path_str!r}: {err}")
    except ModelSyntaxError as err:
        raise _Failure(f"{path_str}: {err}")


def _summary(report: DetectionReport) -> str:
    level = "-" if report.level is None else str(report.level)
    return f"({report.verdict.value}, level {level}, {report.occurrences} occurrence(s))"


def _reports_agree(ours: DetectionReport, reference: DetectionReport) -> bool:
    return (
        ours.verdict is reference.verdict
        and ours.level == reference.level
        and ours.occurrences == reference.occurrences
        and ours.table.system_edge_sets() == reference.table.system_edge_sets()
    )


def cmd_detect(args: argparse.Namespace) -> int:
    # The edges, rows and images that parsing and detection build are tuple
    # subclasses and slotted records, which the cyclic collector tracks and
    # walks, tens of thousands of them on a large model, though none is in a
    # cycle: a cold run of these steps leaves no cyclic garbage
    # (test_a_cold_detect_run_makes_no_reference_cycle).  So the collector
    # is off for them, and back on for the render.  Freezing before one full
    # collection moves every object the run built out of the young
    # generation, so the render's first allocation does not walk them all,
    # and the collection, over empty generations, still empties the free
    # lists, so the tuples parked there are not kept as peak memory.  A
    # caller's own frozen objects are left frozen.  A failure raises past
    # the collection, and the ``finally`` still restores the caller's setting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = _read_model(args.model)
        catalog = _resolve_catalog(args.catalog)
        if args.pattern is not None and catalog.get(args.pattern.lower()) is None:
            raise _Failure(
                f"unknown pattern {args.pattern!r}; available: {', '.join(catalog.names())}"
            )
        selected = catalog.names() if args.pattern is None else [args.pattern.lower()]
        results, failed = [], []
        for name in selected:
            pattern_graph = catalog.get(name)
            report = detect(model.edges, pattern_graph.edges, pattern_name=name)
            results.append(report)
            if args.verify:
                try:
                    check_table(report.table, model.edges, pattern_graph.edges)
                except ValueError as err:
                    failed.append(name)
                    print(f"dpdetect: verify: invalid rows for {name!r}: {err}", file=sys.stderr)
                try:
                    reference = oracle_detect(model.edges, pattern_graph.edges, pattern_name=name)
                except OracleSizeError as err:
                    print(
                        f"dpdetect: verify: reference skipped for {name!r}: {err}", file=sys.stderr
                    )
                else:
                    if not _reports_agree(report, reference):
                        failed.append(name)
                        print(
                            f"dpdetect: verify: mismatch for {name!r}: detector "
                            f"{_summary(report)} vs reference {_summary(reference)}",
                            file=sys.stderr,
                        )
        document = ReportDocument(model.name, tuple(results), tuple(catalog.names()))
        if not gc.get_freeze_count():
            gc.freeze()
            gc.collect()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()
    _write(_json_chunks(document) if args.format == "json" else [render_text(document)])
    return EXIT_VERIFY_MISMATCH if failed else EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args.catalog)
    names = catalog.names()
    width = max(len(name) for name in names)
    lines = []
    for name in names:
        graph = catalog.get(name)
        origin = "user" if catalog.is_user_defined(name) else "builtin"
        counts = f"nodes={len(graph.nodes)} edges={len(graph.edges)}"
        lines.append(f"{name:<{width}}  {counts} [{origin}]")
    _write(["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _read_model(args.model)
    counts = Counter(edge.relation for edge in graph.edges)
    assoc, dep, gen = (counts[kind] for kind in RelationKind)
    lines = [f"model: {graph.name}"] if graph.name else []
    lines += [
        f"nodes: {len(graph.nodes)}",
        f"edges: {len(graph.edges)} (assoc={assoc} dep={dep} gen={gen})",
        f"self-loops: {sum(edge.self_loop for edge in graph.edges)}",
        "valid",
    ]
    _write(["\n".join(lines) + "\n"])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a command is required")
        return {"detect": cmd_detect, "list": cmd_list, "validate": cmd_validate}[args.command](args)
    except SystemExit as exc:  # usage errors, --help, --version
        return exc.code
    except (CatalogError, _Failure) as err:
        print(f"dpdetect: error: {err}", file=sys.stderr)
        return EXIT_ERROR
