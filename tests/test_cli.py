"""CLI behavior: output formats, determinism, exit codes, verification."""

import gc
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dpdetect import (
    DetectionReport,
    MatchRow,
    MatchTable,
    Verdict,
    builtin_catalog,
    detect,
    make_edge,
)
from dpdetect import cli, matcher
from dpdetect.cli import CATALOG_ENV_VAR, main
from dpdetect.graph import ClassGraph
from dpdetect.matcher import check_table
from dpdetect.model import render_model
from dpdetect.oracle import OracleSizeError, oracle_detect
from helpers import SAMPLE_SYSTEM

FIXTURES = sorted(path for path in (Path(__file__).parent / "fixtures").iterdir() if path.is_dir())
OVERSIZED = Path(__file__).parent / "fixtures" / "oversized"
BATCHES = Path(__file__).parent / "fixtures" / "batches"

COMPLETE_3 = "The design pattern completely exists in the System design with 3 times"
PARTIAL_3 = "The design pattern partially exists in the System design with 3 times"
ABSENT = "The design pattern does not exist in the System design"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_single_pattern_text(capsys, sample_system_path):
    code, out, err = run(capsys, "detect", str(sample_system_path), "--pattern", "facade")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["model: sample-system", "", "[facade]", COMPLETE_3]


def test_detect_all_text_sections(capsys, sample_system_path):
    code, out, _ = run(capsys, "detect", str(sample_system_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model: sample-system"
    assert "[composite]" in lines and PARTIAL_3 in lines
    assert "[facade]" in lines and COMPLETE_3 in lines
    assert "[singleton]" in lines and ABSENT in lines
    # sections come sorted by pattern name
    order = [line for line in lines if line.startswith("[")]
    assert order == ["[composite]", "[facade]", "[prototype]", "[singleton]"]


def test_detect_text_is_deterministic(capsys, sample_system_path):
    _, first, _ = run(capsys, "detect", str(sample_system_path))
    _, second, _ = run(capsys, "detect", str(sample_system_path))
    assert first == second


def test_detect_json_document(capsys, sample_system_path):
    code, out, _ = run(capsys, "detect", str(sample_system_path), "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["model"] == "sample-system"
    assert document["catalog"] == ["composite", "facade", "prototype", "singleton"]
    by_name = {result["pattern"]: result for result in document["results"]}
    assert by_name["facade"]["verdict"] == "complete"
    assert by_name["facade"]["level"] == 1
    assert by_name["facade"]["occurrences"] == 3
    assert by_name["composite"]["verdict"] == "partial"
    assert by_name["composite"]["level"] == 2
    assert by_name["singleton"]["verdict"] == "absent"
    assert by_name["singleton"]["level"] is None
    assert by_name["singleton"]["rows"] == []
    facade_rows = {
        frozenset(tuple(edge) for edge in row["system_edges"])
        for row in by_name["facade"]["rows"]
    }
    assert facade_rows == {
        frozenset({("a", "b", 1, 0)}),
        frozenset({("c", "b", 1, 0)}),
        frozenset({("a", "c", 1, 0)}),
    }


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.name)
def test_json_report_is_pinned(capsys, fixture):
    # What each fixture pins, and why, is said in its model.cg header.
    code, out, _ = run(
        capsys,
        "detect",
        str(fixture / "model.cg"),
        "--catalog",
        str(fixture / "patterns"),
        "--format",
        "json",
    )
    assert code == 0
    assert out.encode("utf-8") == (fixture / "expected.json").read_bytes()


def _pieces(system_edges, mapping):
    """How many pieces ``cli._json_chunks`` renders a row in: a slot for
    each system edge and each mapped node, a part before each slot and one
    after the last."""
    return 2 * (len(system_edges) + len(mapping)) + 1


# Rows of one edge and two nodes, seven pieces each, that fill one chunk of
# the JSON report: the chunk ends with the row that takes it past
# ``cli._CHUNK_PIECES``.
_ONE_EDGE_CHUNK = cli._CHUNK_PIECES // 7 + 1


def _crosses_a_chunk(rows):
    """Whether ``rows`` are written in more than one chunk: those before the
    last take a chunk past its cap."""
    pieces = [_pieces(row.system_edges, row.mapping) for row in rows[:-1]]
    return sum(pieces) > cli._CHUNK_PIECES


def test_batches_fixture_has_a_result_longer_than_one_chunk():
    results = json.loads((BATCHES / "expected.json").read_text("utf-8"))["results"]
    assert any(
        sum(_pieces(row["system_edges"], row["mapping"]) for row in result["rows"][:-1])
        > cli._CHUNK_PIECES
        for result in results
    )


def _record_fragment_sizes(monkeypatch):
    """The edge count of each level detection grows and of each fragment
    it tests for connectivity or searches, by kind, in call order."""
    sizes = {"grown": [], "connectivity": [], "searched": []}
    grown, connected, embeddings = matcher._grown, matcher.is_weakly_connected, matcher._embeddings

    def growing(incident, twin_prev, n):
        sizes["grown"].append(n)
        return grown(incident, twin_prev, n)

    def connectivity(fragment):
        sizes["connectivity"].append(len(fragment))
        return connected(fragment)

    def searching(index, plan):
        sizes["searched"].append(len(plan[0]))
        return embeddings(index, plan)

    monkeypatch.setattr(matcher, "_grown", growing)
    monkeypatch.setattr(matcher, "is_weakly_connected", connectivity)
    monkeypatch.setattr(matcher, "_embeddings", searching)
    return sizes


def _detect_one(capsys, model, patterns, name):
    argv = ["detect", str(model), "--catalog", str(patterns), "--pattern", name]
    code, out, err = run(capsys, *argv, "--format", "json")
    [result] = json.loads(out)["results"]
    return code, err, (result["verdict"], result["level"], result["occurrences"])


@pytest.mark.parametrize("name, level, occurrences", [("chain600", 3, 1), ("star600", 1, 3)])
def test_pattern_far_larger_than_its_model_is_partial(
    capsys, monkeypatch, name, level, occurrences
):
    sizes = _record_fragment_sizes(monkeypatch)
    code, err, found = _detect_one(capsys, OVERSIZED / "model.cg", OVERSIZED / "patterns", name)
    assert (code, err, found) == (0, "", ("partial", level, occurrences))
    # No level above the model's three edges is built or searched.
    assert sizes["grown"] == [3]
    assert max(sizes["connectivity"] + sizes["searched"]) <= 3


def test_long_chain_half_the_size_of_its_model_is_grown(capsys, monkeypatch, tmp_path):
    # The 600-edge chain against a 301-edge chain: level 301 lies 299
    # levels below the top, far more than the chain's mean node degree of
    # 2, so it is grown.  Deriving it from the top would test about 18
    # million drops for connectivity.
    model = tmp_path / "model.cg"
    lines = [f"gen s{i} s{i + 1}" for i in range(301)]
    model.write_text("model chain301\n" + "\n".join(lines) + "\n", encoding="utf-8")
    sizes = _record_fragment_sizes(monkeypatch)
    code, err, found = _detect_one(capsys, model, OVERSIZED / "patterns", "chain600")
    assert (code, err, found) == (0, "", ("partial", 301, 1))
    assert sizes["grown"] == [301]
    assert sizes["connectivity"] == []


def test_dense_pattern_larger_than_its_model_is_derived_from_the_top(
    capsys, monkeypatch, tmp_path
):
    # The 20-edge complete association digraph against the same digraph
    # without three of its edges: level 17 is three levels below the top,
    # fewer than the pattern's mean node degree of 8, so the walk derives
    # levels 19 to 17 from the top instead of growing level 17.
    nodes = [f"v{i}" for i in range(5)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    patterns = tmp_path / "patterns"
    patterns.mkdir()
    lines = [f"assoc {a} {b}" for a, b in pairs]
    text = "model digraph20\n" + "\n".join(lines) + "\n"
    (patterns / "digraph20.cg").write_text(text, encoding="utf-8")
    model = tmp_path / "model.cg"
    lines = [f"assoc s{a} s{b}" for a, b in pairs[3:]]
    model.write_text("model digraph17\n" + "\n".join(lines) + "\n", encoding="utf-8")
    sizes = _record_fragment_sizes(monkeypatch)
    code, err, found = _detect_one(capsys, model, patterns, "digraph20")
    assert (code, err, found) == (0, "", ("partial", 17, 1))
    # Levels 19 to 17 test 20 + 190 + 1,140 candidates; growing level 17
    # would walk every connected set of up to 17 edges.
    assert sizes["grown"] == []
    assert len(sizes["connectivity"]) <= 2000


def _reference_dict(document):
    """The report schema as plain data, for ``json.dumps`` to lay out."""

    def edge(e):
        return [e.source, e.target, int(e.relation), e.self_loop]

    return {
        "model": document.model_name,
        "tool_version": cli.__version__,
        "catalog": list(document.catalog_names),
        "results": [
            {
                "pattern": report.pattern_name,
                "verdict": report.verdict.value,
                "level": report.level,
                "occurrences": report.occurrences,
                "rows": [
                    {
                        "pattern_edges": [edge(e) for e in row.pattern_edges],
                        "system_edges": [edge(e) for e in row.system_edges],
                        "mapping": dict(sorted(row.mapping.items())),
                    }
                    for row in report.table.rows
                ],
            }
            for report in document.results
        ],
    }


def _json_dumps(document):
    return json.dumps(_reference_dict(document), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("model_name", ["", "m\u00e9\u4e2d\"q\\"])
def test_render_json_matches_json_dumps(model_name):
    # The sample system's shape, so every verdict shows up, over identifiers
    # with characters JSON escapes and some it leaves alone.
    odd = dict(zip("abcde", ['q"uote', "back\\slash", "ctl\x01", "caf\u00e9", "\u4e2d"]))
    system = frozenset(make_edge(odd[e.source], odd[e.target], e.relation) for e in SAMPLE_SYSTEM)
    catalog = builtin_catalog()
    results = tuple(detect(system, catalog.get(name).edges, name) for name in catalog.names())
    # Absent, partial and complete verdicts, with multi-row tables.
    assert {report.verdict for report in results} == set(Verdict)
    assert max(report.occurrences for report in results) > 1
    document = cli.ReportDocument(model_name, results, tuple(catalog.names()))
    assert cli.render_json(document) == _json_dumps(document)


def _pairs(count):
    """``count`` node-disjoint association edges."""
    return frozenset(make_edge(f"a{i}", f"b{i}", 1) for i in range(count))


def _edge_case_document(case):
    if case == "no results":
        return cli.ReportDocument("empty", (), ("facade",))
    if case == "template hazards":
        # Node names that a %-template or str.format template would misread,
        # and a NUL, on the pattern side (the template) and the system side
        # (the slots).
        system = frozenset([
            make_edge("%", "%s", 1), make_edge("%s", "{0}", 1), make_edge("{0}", "}", 1),
            make_edge('"q"', "%(x)s", 2), make_edge("{", "%", 3), make_edge("}", "}", 1),
            make_edge("}", "nul\x00", 1),
        ])
        pattern = frozenset([make_edge("%d", "{}", 1), make_edge("{}", '"\x00', 1)])
        patterns = {"chain%s": pattern, "loop{}": frozenset([make_edge("%%", "%%", 1)])}
    elif case in ("rows that fill one chunk", "rows past one chunk"):
        system = _pairs(_ONE_EDGE_CHUNK + (case == "rows past one chunk"))
        patterns = {"facade": builtin_catalog().get("facade").edges}
    elif case == "absent result":
        system = _pairs(2)
        patterns = {"gen": frozenset([make_edge("c", "p", 3)])}
    elif case == "fragment switches":
        # Level 1 of an assoc-then-dep chain against assoc and dep edges that
        # alternate in sorted order: the rows of the two fragments interleave
        # and run past one chunk.  The second table's rows carry equal but
        # not identical pattern edge tuples.
        count = _ONE_EDGE_CHUNK + 3
        system = frozenset(make_edge(f"x{i:05}", f"y{i:05}", 1 + i % 2) for i in range(count))
        chain = frozenset([make_edge("a", "b", 1), make_edge("b", "c", 2)])
        pattern = (make_edge("P", "Q", 1),)
        rows = tuple(MatchRow(tuple([*pattern]), (make_edge(f"p{i}", f"q{i}", 1),)) for i in range(3))
        results = (detect(system, chain, "alternating"), DetectionReport("equal", 1, MatchTable(1, rows)))
        return cli.ReportDocument(case, results, ("alternating", "equal"))
    else:  # "rows that do not align", which --verify reports but still prints
        pattern = (make_edge("P", "Q", 1), make_edge("Q", "R", 1))
        # Rows of one size share a template, whatever relation or self-loop
        # flag their system edges have; a row may have no system edge.
        rows = (
            MatchRow(pattern, tuple(sorted(_pairs(3)))),
            MatchRow(pattern, (make_edge("a0", "b0", 1),)),
            MatchRow(pattern, (make_edge("a0", "b0", 2),)),
            MatchRow(pattern, (make_edge("a0", "a0", 1),)),
            MatchRow(pattern, ()),
        )
        report = DetectionReport("chain", 2, MatchTable(2, rows))
        return cli.ReportDocument(case, (report,), ("chain",))
    results = tuple(detect(system, patterns[name], name) for name in sorted(patterns))
    return cli.ReportDocument(case, results, tuple(sorted(patterns)))


@pytest.mark.parametrize(
    "case",
    ["template hazards", "rows that fill one chunk", "rows past one chunk", "absent result",
     "no results", "rows that do not align", "fragment switches"],
)
def test_json_chunks_join_to_json_dumps(case):
    document = _edge_case_document(case)
    chunks = list(cli._json_chunks(document))
    assert "".join(chunks) == _json_dumps(document)
    assert all(chunks)
    rows = [len(report.table.rows) for report in document.results]
    if case == "rows that fill one chunk":
        # The head, the rows, which end the chunk, and the tail.
        assert rows == [_ONE_EDGE_CHUNK] and len(chunks) == 3
    elif case == "rows past one chunk":
        # The last row is the only one of the second chunk.
        assert rows == [_ONE_EDGE_CHUNK + 1] and len(chunks) == 4
    elif case == "absent result":
        assert rows == [0]
    elif case == "template hazards":
        assert all(rows)
    elif case == "fragment switches":
        switching, equal = (report.table.rows for report in document.results)
        assert _crosses_a_chunk(switching)
        assert len({row.pattern_edges for row in switching}) == 2
        assert all(a.pattern_edges != b.pattern_edges for a, b in zip(switching, switching[1:]))
        assert all(
            a.pattern_edges == b.pattern_edges and a.pattern_edges is not b.pattern_edges
            for a, b in zip(equal, equal[1:])
        )


def test_a_wide_row_compiles_to_code_linear_in_its_slots():
    count = 3000
    pattern = tuple(make_edge(f"p{i}", f"p{i + 1}", 1) for i in range(count))
    system = tuple(make_edge(f"s{i}", f"s{i + 1}", 1 + i % 3) for i in range(count))
    report = DetectionReport("wide", count, MatchTable(count, (MatchRow(pattern, system),)))
    document = cli.ReportDocument("wide", (report,), ("wide",))
    cli._row_code.cache_clear()
    assert cli.render_json(document) == _json_dumps(document)
    assert cli._row_code.cache_info().misses == 1
    # One slot per system edge and per pattern node, each after a part.
    source = cli._row_source(count, count + 1)
    assert source.count(", e[s[") == count and source.count(", n[s[") == count + 1
    # Twice the slots, twice the source and the bytecode, give or take.
    half = cli._row_source(count // 2, count // 2 + 1)
    assert len(source) <= 2.2 * len(half)
    code, half_code = cli._row_code(count, count + 1), cli._row_code(count // 2, count // 2 + 1)
    assert len(code.co_code) <= 2.2 * len(half_code.co_code)


def test_row_layouts_of_equal_counts_share_one_code_object_in_a_bounded_cache(monkeypatch):
    codes = []

    def recording(code, *rest):
        codes.append(code)
        return types.FunctionType(code, *rest)

    monkeypatch.setattr(cli, "FunctionType", recording)
    cli._row_code.cache_clear()
    document = _edge_case_document("fragment switches")
    assert cli.render_json(document) == _json_dumps(document)
    # Two one-edge fragments of a chain and one of another result: three
    # templates of one layout, one edge and two nodes.
    assert len(codes) == 3 and len(set(map(id, codes))) == 1
    info = cli._row_code.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert info.maxsize is not None
    for edges in range(info.maxsize + 1):
        cli._row_code(edges, 0)
    assert cli._row_code.cache_info().currsize == info.maxsize


# A generated row function's whole source: generated names and integers
# between fixed punctuation.
_SLOT = r"(?:e\[s\[\d+\]\]|n\[s\[a\d+\]\[b\d+\]\])"
_ROW_SOURCE = rf"def row\(s, e, n(?:, [pab]\d+)*\):\n return (?:p\d+, {_SLOT}, )*p\d+,\n"


def test_no_document_text_reaches_the_generated_row_code(monkeypatch):
    row_source = cli._row_source
    sources = []

    def recording(edges, nodes):
        sources.append(row_source(edges, nodes))
        return sources[-1]

    monkeypatch.setattr(cli, "_row_source", recording)
    cli._row_code.cache_clear()
    document = _edge_case_document("template hazards")
    assert cli.render_json(document) == _json_dumps(document)
    assert sources
    for source in sources:
        assert re.fullmatch(_ROW_SOURCE, source)
    for edges, nodes in [(1, 2), (2, 3)]:
        code = cli._row_code(edges, nodes)
        assert all(constant is None or type(constant) is int for constant in code.co_consts)


def test_a_dropped_row_code_leaves_no_reference_cycle():
    document = _edge_case_document("template hazards")
    cli.render_json(document)
    assert cli._row_code.cache_info().currsize
    gc.collect()
    gc.disable()
    try:
        cli._row_code.cache_clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_cold_detect_run_makes_no_reference_cycle(monkeypatch):
    # ``cmd_detect`` runs these steps with the collector off, which is safe
    # only while they leave no cyclic garbage, with every cache cold too.
    matcher._compiled.cache_clear()
    cli._row_code.cache_clear()
    monkeypatch.setattr(matcher, "_kept", (None, None))
    gc.collect()
    gc.disable()
    try:
        for fixture in FIXTURES:
            model = cli._read_model(str(fixture / "model.cg"))
            catalog = cli._resolve_catalog(str(fixture / "patterns"))
            results = []
            for name in catalog.names():
                pattern = catalog.get(name).edges
                results.append(detect(model.edges, pattern, name))
                check_table(results[-1].table, model.edges, pattern)
                try:
                    oracle_detect(model.edges, pattern, name)
                except OracleSizeError:
                    pass
            cli.render_json(cli.ReportDocument(model.name, tuple(results), tuple(catalog.names())))
        assert gc.collect() == 0
    finally:
        gc.enable()


class _FailingStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def _failing_detect(*args, **kwargs):
    raise RuntimeError("detection failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "case",
    ["text", "json", "unreadable model", "model syntax error", "catalog error",
     "unknown pattern", "failed write", "raising detect"],
)
def test_detect_leaves_the_collector_as_it_found_it(
    monkeypatch, tmp_path, sample_system_path, enabled, case
):
    model, options, code = str(sample_system_path), [], 0
    if case == "json":
        options = ["--format", "json"]
    elif case == "unreadable model":
        model, code = str(tmp_path / "missing.cg"), 1
    elif case == "model syntax error":
        (tmp_path / "bad.cg").write_text("assoc a\n", encoding="utf-8")
        model, code = str(tmp_path / "bad.cg"), 1
    elif case == "catalog error":
        options, code = ["--catalog", str(tmp_path / "missing")], 1
    elif case == "unknown pattern":
        options, code = ["--pattern", "nosuch"], 1
    elif case == "failed write":
        monkeypatch.setattr(sys, "stdout", _FailingStdout())
        code = 1
    elif case == "raising detect":
        monkeypatch.setattr(cli, "detect", _failing_detect)
    # Detection runs with the collector off and the report is written with
    # the caller's setting.
    seen = []

    def noting(function):
        def noted(*args, **kwargs):
            seen.append(gc.isenabled())
            return function(*args, **kwargs)

        return noted

    monkeypatch.setattr(cli, "detect", noting(cli.detect))
    monkeypatch.setattr(cli, "_write", noting(cli._write))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "raising detect":
            with pytest.raises(RuntimeError, match="detection failed"):
                main(["detect", model, *options])
        else:
            assert main(["detect", model, *options]) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()
    if case in ("text", "json"):
        assert seen == [False] * 4 + [enabled]


def test_detect_leaves_a_callers_frozen_objects_frozen(sample_system_path):
    held = [sample_system_path]
    gc.freeze()
    try:
        # A frozen object is in none of the collector's generations.
        assert id(held) not in set(map(id, gc.get_objects()))
        assert main(["detect", str(sample_system_path)]) == 0
        assert id(held) not in set(map(id, gc.get_objects())) and gc.isenabled()
    finally:
        gc.unfreeze()
    assert id(held) in set(map(id, gc.get_objects()))


class _Recorder:
    """Stands in for stdout and keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _chain(prefix, count):
    return [make_edge(f"{prefix}{k}", f"{prefix}{k + 1}", 1) for k in range(count)]


def test_json_report_is_written_in_bounded_chunks(tmp_path, monkeypatch):
    # Rows of seven pieces: node-disjoint pairs, which three of the four
    # built-ins match once per edge.  Rows of 27: six-edge chains, which a
    # six-edge chain pattern matches once each.
    count = 3 * _ONE_EDGE_CHUNK + 1
    chains = frozenset(edge for i in range(60) for edge in _chain(f"c{i}n", 6))
    chain = frozenset(_chain("p", 6))
    (tmp_path / "patterns").mkdir()
    (tmp_path / "patterns" / "chain.cg").write_text(
        render_model(ClassGraph.from_edges("chain", chain)), encoding="utf-8"
    )
    catalog = builtin_catalog()
    cases = [
        ("pairs", _pairs(count), {}, [0, count, count, count]),
        ("chains", chains, {"chain": chain}, [60]),
    ]
    for name, system, user, sizes in cases:
        model = tmp_path / f"{name}.cg"
        model.write_text(render_model(ClassGraph.from_edges(name, system)), encoding="utf-8")
        argv = ["detect", str(model), "--format", "json"]
        if user:
            argv += ["--catalog", str(tmp_path / "patterns"), "--pattern", "chain"]
        recorder = _Recorder()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", recorder)
            assert main(argv) == 0
        patterns = {**{n: catalog.get(n).edges for n in catalog.names()}, **user}
        results = tuple(detect(system, patterns[n], n) for n in user or catalog.names())
        names = tuple(sorted(patterns))
        assert "".join(recorder.writes) == cli.render_json(cli.ReportDocument(name, results, names))
        tables = [report.table.rows for report in results if report.table.rows]
        assert sorted(len(report.table.rows) for report in results) == sizes
        assert all(map(_crosses_a_chunk, tables))
        (pieces,) = {_pieces(row.system_edges, row.mapping) for rows in tables for row in rows}
        # Each write holds at most the rows whose pieces reach the cap and
        # one row more, a few dozen kilobytes of text whatever the rows'
        # width, while the report is several times that.
        most = cli._CHUNK_PIECES // pieces + 1
        assert max(write.count('"pattern_edges"') for write in recorder.writes) == most
        largest = max(map(len, recorder.writes))
        assert largest <= 100 * (cli._CHUNK_PIECES + pieces)
        assert sum(map(len, recorder.writes)) > 3 * largest


def test_json_rows_replay_their_mapping(capsys, sample_system_path):
    _, out, _ = run(capsys, "detect", str(sample_system_path), "--format", "json")
    document = json.loads(out)
    for result in document["results"]:
        for row in result["rows"]:
            mapping = row["mapping"]
            for (ps, pt, rel, _), (ss, st, srel, _) in zip(
                row["pattern_edges"], row["system_edges"]
            ):
                assert mapping[ps] == ss
                assert mapping[pt] == st
                assert rel == srel


def test_text_and_json_agree(capsys, sample_system_path):
    _, text_out, _ = run(capsys, "detect", str(sample_system_path))
    _, json_out, _ = run(capsys, "detect", str(sample_system_path), "--format", "json")
    document = json.loads(json_out)
    for result in document["results"]:
        if result["verdict"] == "complete":
            sentence = (
                "The design pattern completely exists in the System design "
                f"with {result['occurrences']} times"
            )
        elif result["verdict"] == "partial":
            sentence = (
                "The design pattern partially exists in the System design "
                f"with {result['occurrences']} times"
            )
        else:
            sentence = ABSENT
        section = f"[{result['pattern']}]\n{sentence}"
        assert section in text_out


def test_list_builtins(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.splitlines() == [
        "composite  nodes=3 edges=3 [builtin]",
        "facade     nodes=2 edges=1 [builtin]",
        "prototype  nodes=3 edges=2 [builtin]",
        "singleton  nodes=1 edges=1 [builtin]",
    ]


def test_list_with_user_catalog(capsys, tmp_path):
    (tmp_path / "observer.cg").write_text(
        "model observer\nassoc subject watcher\ngen concrete watcher\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "list", "--catalog", str(tmp_path))
    assert code == 0
    assert "observer   nodes=3 edges=2 [user]" in out.splitlines()


def test_catalog_env_var_is_honored(capsys, tmp_path, monkeypatch):
    (tmp_path / "observer.cg").write_text("model observer\nassoc s w\n", encoding="utf-8")
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
    _, out, _ = run(capsys, "list")
    assert any(line.startswith("observer") for line in out.splitlines())


@pytest.mark.parametrize("command", ["list", "detect"])
def test_empty_catalog_path_is_rejected_not_dropped(capsys, sample_system_path, command):
    model = [str(sample_system_path)] if command == "detect" else []
    code, out, err = run(capsys, command, *model, "--catalog", "")
    assert (code, out, err) == (1, "", "dpdetect: error: catalog path is empty\n")


def test_empty_catalog_env_var_means_unset(capsys, monkeypatch):
    monkeypatch.setenv(CATALOG_ENV_VAR, "")
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "composite", "facade", "prototype", "singleton"
    ]


def test_validate_sample_system(capsys, sample_system_path):
    code, out, _ = run(capsys, "validate", str(sample_system_path))
    assert code == 0
    assert out.splitlines() == [
        "model: sample-system",
        "nodes: 5",
        "edges: 6 (assoc=3 dep=1 gen=2)",
        "self-loops: 0",
        "valid",
    ]


def test_validate_reports_line_numbers(capsys, tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("class a\nassoc a\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 2:" in err


def test_validate_empty_model(capsys, tmp_path):
    empty = tmp_path / "empty.cg"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(empty))
    assert code == 0
    assert "nodes: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("detect",),
        ("detect", "missing.cg", "--pattern", "facade", "--all"),
        ("detect", "missing.cg", "--format", "yaml"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err != ""


def test_missing_command_prints_usage_and_one_error_line(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "usage: dpdetect [-h] [--version] command ...",
        "dpdetect: error: a command is required",
    ]


def test_missing_model_file_exits_one(capsys):
    code, _, err = run(capsys, "detect", "does-not-exist.cg")
    assert code == 1
    assert "cannot read model" in err


def test_unparseable_model_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("assoc a\n", encoding="utf-8")
    code, _, err = run(capsys, "detect", str(bad))
    assert code == 1
    assert "line 1:" in err


NOT_UTF8 = b"model latin\nassoc caf\xff b\n"


def test_non_utf8_model_exits_one_on_detect(capsys, tmp_path):
    model = tmp_path / "latin.cg"
    model.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "detect", str(model))
    assert code == 1
    assert out == ""
    assert err.startswith("dpdetect: error: cannot read model")
    assert err.count("\n") == 1


def test_non_utf8_model_exits_one_on_validate(capsys, tmp_path):
    model = tmp_path / "latin.cg"
    model.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert err.startswith("dpdetect: error: cannot read model")
    assert err.count("\n") == 1


def test_non_utf8_catalog_entry_exits_one_on_list(capsys, tmp_path):
    (tmp_path / "latin.cg").write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "list", "--catalog", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("dpdetect: error: catalog entry 'latin.cg'")
    assert err.count("\n") == 1


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("argv", [("validate",), ("detect",), ("detect", "--format", "json")])
def test_model_file_byte_order_mark_is_skipped(capsys, tmp_path, sample_system_path, argv):
    marked = tmp_path / "marked.cg"
    marked.write_bytes(BOM + sample_system_path.read_bytes())
    expected = run(capsys, argv[0], str(sample_system_path), *argv[1:])
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, argv[0], str(marked), *argv[1:]) == expected


def test_catalog_entry_byte_order_mark_is_skipped(capsys, tmp_path):
    (tmp_path / "marked.cg").write_bytes(BOM + b"model observer\nassoc subject watcher\n")
    code, out, err = run(capsys, "list", "--catalog", str(tmp_path))
    assert (code, err) == (0, "")
    assert "observer   nodes=2 edges=1 [user]" in out.splitlines()


@pytest.mark.parametrize("command", ["list", "detect"])
def test_disconnected_catalog_entry_exits_one(capsys, tmp_path, sample_system_path, command):
    (tmp_path / "split.cg").write_text("model split\nassoc a b\ngen c d\n", encoding="utf-8")
    model = [str(sample_system_path)] if command == "detect" else []
    code, out, err = run(capsys, command, *model, "--catalog", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == "dpdetect: error: catalog entry 'split.cg': pattern is not weakly connected\n"


def test_unknown_pattern_exits_one_and_lists_names(capsys, sample_system_path):
    code, _, err = run(capsys, "detect", str(sample_system_path), "--pattern", "observer")
    assert code == 1
    assert "composite, facade, prototype, singleton" in err


def test_empty_pattern_name_is_rejected_not_treated_as_all(capsys, sample_system_path):
    code, out, err = run(capsys, "detect", str(sample_system_path), "--pattern", "")
    assert code == 1
    assert out == ""
    assert "unknown pattern ''" in err


def test_bad_catalog_path_exits_one(capsys, sample_system_path, tmp_path):
    code, _, err = run(
        capsys, "detect", str(sample_system_path), "--catalog", str(tmp_path / "nope")
    )
    assert code == 1
    assert "not found" in err


def test_verify_agreement_exits_zero(capsys, sample_system_path):
    code, out, err = run(capsys, "detect", str(sample_system_path), "--verify")
    assert code == 0
    assert "mismatch" not in err


def test_verify_mismatch_exits_two(capsys, sample_system_path, monkeypatch):
    def contrarian(system_edges, pattern_edges, pattern_name="", **kwargs):
        return DetectionReport(pattern_name, len(frozenset(pattern_edges)), MatchTable(level=0))

    monkeypatch.setattr(cli, "oracle_detect", contrarian)
    code, out, err = run(
        capsys, "detect", str(sample_system_path), "--pattern", "facade", "--verify"
    )
    assert code == 2
    assert "mismatch" in err
    # the report itself is still printed
    assert COMPLETE_3 in out


def test_verify_skips_oversized_models(capsys, tmp_path):
    lines = [f"assoc n{i} n{i+1}" for i in range(14)]
    big = tmp_path / "big.cg"
    big.write_text("model big\n" + "\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "detect", str(big), "--pattern", "facade", "--verify")
    assert code == 0
    assert "skipped" in err
    assert "exceeds the brute-force guard" in err


def test_verify_skips_oversized_patterns(capsys):
    argv = ["detect", str(OVERSIZED / "model.cg"), "--catalog", str(OVERSIZED / "patterns")]
    code, _, err = run(capsys, *argv, "--pattern", "chain600", "--verify")
    assert code == 0
    assert err == (
        "dpdetect: verify: reference skipped for 'chain600': pattern of 600 edges "
        "exceeds the brute-force guard of 12 edges\n"
    )


def test_verify_checks_rows_past_the_oracle_guard(capsys, tmp_path, monkeypatch):
    lines = [f"assoc n{i} n{i+1}" for i in range(14)]
    big = tmp_path / "big.cg"
    big.write_text("model big\n" + "\n".join(lines) + "\n", encoding="utf-8")

    def unsound(system_edges, pattern_edges, pattern_name=""):
        # Aligned and connected, but the matched edge is not in the model.
        row = MatchRow(
            pattern_edges=(make_edge("P", "Q", 1),),
            system_edges=(make_edge("n0", "n2", 1),),
        )
        return DetectionReport(pattern_name, 1, MatchTable(1, (row,)))

    monkeypatch.setattr(cli, "detect", unsound)
    code, out, err = run(capsys, "detect", str(big), "--pattern", "facade", "--verify")
    assert code == 2
    assert "invalid rows for 'facade'" in err
    assert "system edges must come from the system" in err
    assert "exceeds the brute-force guard" in err
    # the report itself is still printed
    assert out.splitlines() == [
        "model: big",
        "",
        "[facade]",
        "The design pattern completely exists in the System design with 1 times",
    ]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("dpdetect ")


def test_module_invocation_is_deterministic(sample_system_path):
    command = [
        sys.executable,
        "-m",
        "dpdetect",
        "detect",
        str(sample_system_path),
        "--format",
        "json",
    ]
    first = subprocess.run(command, capture_output=True, text=True)
    second = subprocess.run(command, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert COMPLETE_3 not in first.stdout  # json mode, not text
    assert json.loads(first.stdout)["model"] == "sample-system"


# Every command that writes a report to stdout.
report_commands = pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{model}"],
        ["detect", "{model}", "--format", "json"],
        ["list"],
        ["validate", "{model}"],
    ],
    ids=["detect-text", "detect-json", "list", "validate"],
)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@report_commands
def test_failed_report_write_is_one_error_line(argv, sample_system_path):
    command = [sys.executable, "-m", "dpdetect"]
    command += [arg.format(model=sample_system_path) for arg in argv]
    # Unbuffered, a failed write leaves no text behind for the interpreter
    # to flush again at exit, which would hide a failure there.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("dpdetect: error: cannot write the report: ")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
@report_commands
def test_closed_stdout_is_one_error_line(argv, sample_system_path):
    # With its descriptor 1 closed, the child starts with sys.stdout None.
    command = [sys.executable, "-m", "dpdetect"]
    command += [arg.format(model=sample_system_path) for arg in argv]
    done = subprocess.run(
        command, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1)
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line == "dpdetect: error: cannot write the report: stdout is closed"


def test_closed_pipe_is_one_error_line(tmp_path):
    # About 2.4 MB of JSON, far more than a pipe holds, so the child is
    # still writing when the reader goes away.
    model = tmp_path / "pairs.cg"
    edges = "".join(f"assoc a{i} b{i}\n" for i in range(2000))
    model.write_text("model pairs\n" + edges, encoding="utf-8")
    command = [sys.executable, "-m", "dpdetect", "detect", str(model), "--format", "json"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(20) == b'{\n  "model": "pairs"'
        child.stdout.close()
        stderr = child.stderr.read().decode("utf-8")
        code = child.wait(timeout=60)
    assert code == 1
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert stderr.splitlines() == ["dpdetect: error: cannot write the report: Broken pipe"]
