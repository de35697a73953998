"""Command-line interface: detect patterns in a model, list the catalog,
validate model files.

Exit codes: 0 success, 1 usage or input error, 2 verification mismatch.
Report output is deterministic byte for byte; verification chatter goes to
stderr so stdout stays stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .catalog import CatalogError, PatternCatalog, load_catalog
from .graph import ClassGraph, EdgeTuple, RelationKind
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


def verdict_sentence(report: DetectionReport) -> str:
    """The report's one-line outcome sentence."""
    return _TEMPLATES[report.verdict].format(count=report.occurrences)


@dataclass(frozen=True)
class ReportDocument:
    """Everything one detect run produced, ready for serialization."""

    model_name: str
    results: tuple[DetectionReport, ...]
    catalog_names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [result.pattern_name for result in self.results]
        if names != sorted(names):
            raise ValueError("results must be sorted by pattern name")


def render_text(document: ReportDocument) -> str:
    sections = [f"model: {document.model_name or '(unnamed)'}"]
    for report in document.results:
        sections.append(f"[{report.pattern_name}]\n{verdict_sentence(report)}")
    return "\n\n".join(sections) + "\n"


_string = json.JSONEncoder(ensure_ascii=False).encode

# Rows per chunk of the JSON report.  The report is written as it is
# rendered, so no more than one batch of rows is held as text at a time.
_BATCH_ROWS = 1024

# Marks a slot to be filled in laid-out JSON.  Encoded text never holds a
# raw NUL, since the encoder escapes it, so the mark cannot clash with it.
_SLOT = "\x00"

# What ``_block`` puts between two rows of a result.
_ROW_SEPARATOR = ",\n" + " " * 8


def _block(items: list[str], pad: str, opener: str, closer: str) -> str:
    """Encoded ``items`` one per line inside brackets whose line is
    indented by ``pad``, as ``json.dumps(indent=2)`` lays them out.

    It never runs per row: it lays out each distinct edge once, each
    fragment's row template once, sorting the mapping keys there, and the
    report's skeleton once.  Rows only fill template slots, and the report
    is written as it is rendered, a batch of rows at a time."""
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
        super().__init__()
        self.encode = encode

    def __missing__(self, key):
        text = self[key] = self.encode(key)
        return text


def _edge_json(edge: EdgeTuple) -> str:
    fields = [_string(edge.source), _string(edge.target), str(edge.relation), str(edge.self_loop)]
    return _block(fields, " " * 12, "[", "]")


def _json_chunks(document: ReportDocument) -> Iterator[str]:
    """The JSON report in chunks: the head of the document and of each
    result, and each result's rows in batches of ``_BATCH_ROWS``.

    All rows of one fragment share their ``pattern_edges`` text and their
    sorted mapping keys, so each fragment gets one template, laid out once
    with a slot per system edge and per mapped node; a row only fills the
    slots from cached edge texts and encoded node names.  The template is
    keyed on the system edge count too, so a row that does not align,
    which ``--verify`` reports but still prints, renders as ``json.dumps``
    would render it."""
    edge_text = _Encoded(_edge_json)
    node_text = _Encoded(_string)

    def template(shape: tuple[tuple[EdgeTuple, ...], int]):
        pattern_edges, size = shape
        # Where each node's value is read: the position of its system node,
        # by the rule ``MatchRow.mapping`` reads the node itself by.  The
        # keys are sorted here, once.
        source = _node_map(pattern_edges, [((number, 0), (number, 1)) for number in range(size)])
        keys = sorted(source)
        text = _block([
            _block([edge_text[e] for e in pattern_edges], " " * 10, '"pattern_edges": [', "]"),
            _block([_SLOT] * size, " " * 10, '"system_edges": [', "]"),
            _block([f"{_string(k)}: {_SLOT}" for k in keys], " " * 10, '"mapping": {', "}"),
        ], " " * 8, "{", "}")
        parts = text.split(_SLOT)
        pieces = [""] * (2 * len(parts) - 1)
        pieces[0::2] = parts
        return pieces, [source[k] for k in keys]

    templates = _Encoded(template)

    def row_texts(rows):
        for row in rows:
            system = row.system_edges
            pieces, sources = templates[row.pattern_edges, len(system)]
            pieces[1::2] = [edge_text[e] for e in system] + [
                node_text[system[number][end]] for number, end in sources
            ]
            yield "".join(pieces)

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
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = _ROW_SEPARATOR.join(row_texts(rows[start:start + _BATCH_ROWS]))
            yield _ROW_SEPARATOR + batch if start else batch
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
        prog="dpdetect",
        description="Detect design patterns in class-model graphs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")

    catalog_help = f"extra pattern definitions (.cg file or directory); defaults to ${CATALOG_ENV_VAR}"

    detect_parser = subparsers.add_parser(
        "detect", help="run pattern detection against a model file"
    )
    detect_parser.add_argument("model", help="model file in the .cg line format")
    which = detect_parser.add_mutually_exclusive_group()
    which.add_argument("--pattern", metavar="NAME", help="detect a single catalog pattern")
    which.add_argument(
        "--all", action="store_true", help="detect every catalog pattern (default)"
    )
    detect_parser.add_argument("--catalog", metavar="PATH", help=catalog_help)
    detect_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    detect_parser.add_argument(
        "--verify",
        action="store_true",
        help="check every result's rows, and cross-check results against the "
        "brute-force reference (small models only)",
    )

    list_parser = subparsers.add_parser("list", help="list catalog patterns")
    list_parser.add_argument("--catalog", metavar="PATH", help=catalog_help)

    validate_parser = subparsers.add_parser(
        "validate", help="parse a model file and report its shape"
    )
    validate_parser.add_argument("model", help="model file in the .cg line format")

    return parser


def _fail(message: str) -> int:
    print(f"dpdetect: error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _write(chunks: Iterable[str]) -> bool:
    """Write ``chunks`` to stdout as they come and flush them, or report
    one error line and return False when stdout cannot take them.

    After a failed write, text may be left in stdout's buffer, and the
    interpreter would fail to flush it again at exit and exit 120.  So a
    stdout backed by a file descriptor is pointed at the null device, as
    the Python ``signal`` docs advise for ``SIGPIPE``; a stdout without
    one, such as an in-process caller's buffer, is left alone."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except OSError as err:
        _fail(f"cannot write the report: {err.strerror or err}")
        try:
            descriptor = sys.stdout.fileno()
        except (AttributeError, ValueError):
            return False
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, descriptor)
        os.close(devnull)
        return False
    return True


def _resolve_catalog(argument: str | None) -> PatternCatalog:
    source = argument or os.environ.get(CATALOG_ENV_VAR) or None
    return load_catalog(source)


def _read_model(path_str: str) -> ClassGraph | None:
    """The parsed model, or None after reporting why it could not be read."""
    try:
        return parse_model(Path(path_str).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"cannot read model {path_str!r}: {err}")
    except ModelSyntaxError as err:
        _fail(f"{path_str}: {err}")
    return None


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
    model = _read_model(args.model)
    if model is None:
        return EXIT_ERROR
    try:
        catalog = _resolve_catalog(args.catalog)
    except CatalogError as err:
        return _fail(str(err))
    if args.pattern is not None:
        wanted = args.pattern.lower()
        if catalog.get(wanted) is None:
            return _fail(
                f"unknown pattern {args.pattern!r}; available: {', '.join(catalog.names())}"
            )
        selected = [wanted]
    else:
        selected = catalog.names()

    results = []
    failed = []
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

    document = ReportDocument(
        model_name=model.name,
        results=tuple(results),
        catalog_names=tuple(catalog.names()),
    )
    if not _write(_json_chunks(document) if args.format == "json" else [render_text(document)]):
        return EXIT_ERROR
    return EXIT_VERIFY_MISMATCH if failed else EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    try:
        catalog = _resolve_catalog(args.catalog)
    except CatalogError as err:
        return _fail(str(err))
    names = catalog.names()
    width = max(len(name) for name in names)
    lines = []
    for name in names:
        graph = catalog.get(name)
        origin = "user" if catalog.is_user_defined(name) else "builtin"
        counts = f"nodes={len(graph.nodes)} edges={len(graph.edges)}"
        lines.append(f"{name:<{width}}  {counts} [{origin}]")
    return EXIT_OK if _write(["\n".join(lines) + "\n"]) else EXIT_ERROR


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _read_model(args.model)
    if graph is None:
        return EXIT_ERROR
    counts = Counter(edge.relation for edge in graph.edges)
    assoc, dep, gen = (counts[kind] for kind in RelationKind)
    lines = [f"model: {graph.name}"] if graph.name else []
    lines += [
        f"nodes: {len(graph.nodes)}",
        f"edges: {len(graph.edges)} (assoc={assoc} dep={dep} gen={gen})",
        f"self-loops: {sum(edge.self_loop for edge in graph.edges)}",
        "valid",
    ]
    return EXIT_OK if _write(["\n".join(lines) + "\n"]) else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if args.command == "detect":
        return cmd_detect(args)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "validate":
        return cmd_validate(args)
    parser.print_usage(sys.stderr)
    print("dpdetect: error: a command is required", file=sys.stderr)
    return EXIT_ERROR
