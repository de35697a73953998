"""The record contract of the six immutable records a library user sees:
``ClassGraph``, ``PatternCatalog``, ``MatchRow``, ``MatchTable``,
``DetectionReport`` and ``cli.ReportDocument``.

Each record has named fields in a fixed order, built positionally or by
keyword, with checks that run at construction.  Two records are equal when
they are of the same class with equal fields, and hash as their field
tuple.  Assignment and deletion raise ``AttributeError``, and pickle,
``copy`` and ``deepcopy`` give an equal record of the same class.  The
records are written out by hand, so importing the command loads none of the
modules that generate or inspect code.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dpdetect import (
    CatalogError,
    ClassGraph,
    DetectionReport,
    GraphIntegrityError,
    InvalidNodeError,
    MatchRow,
    MatchTable,
    PatternCatalog,
    make_edge,
    parse_model,
)
from dpdetect.cli import ReportDocument

LOOP = make_edge("A", "A", 1)
SINGLETON = ClassGraph("singleton", frozenset({"A"}), frozenset({LOOP}))
ROW = MatchRow((make_edge("P", "Q", 1),), (make_edge("a", "b", 1),))
TABLE = MatchTable(1, (ROW,))
REPORT = DetectionReport("facade", 1, TABLE)

LOOP_REPR = "EdgeTuple(source='A', target='A', relation=1, self_loop=1)"
SINGLETON_REPR = (
    f"ClassGraph(name='singleton', nodes=frozenset({{'A'}}), edges=frozenset({{{LOOP_REPR}}}))"
)
ROW_REPR = (
    "MatchRow(pattern_edges=(EdgeTuple(source='P', target='Q', relation=1, self_loop=0),), "
    "system_edges=(EdgeTuple(source='a', target='b', relation=1, self_loop=0),))"
)
TABLE_REPR = f"MatchTable(level=1, rows=({ROW_REPR},))"
REPORT_REPR = f"DetectionReport(pattern_name='facade', pattern_size=1, table={TABLE_REPR})"

# Record class -> (field names, field values, a changed value for each
# field, the pinned repr).
RECORDS = {
    ClassGraph: (
        ("name", "nodes", "edges"),
        ("singleton", frozenset({"A"}), frozenset({LOOP})),
        ("other", frozenset({"A", "B"}), frozenset()),
        SINGLETON_REPR,
    ),
    PatternCatalog: (
        ("entries", "user_names"),
        ({"singleton": SINGLETON}, frozenset({"singleton"})),
        ({"singleton": parse_model("model singleton\ndep A A\n")}, frozenset()),
        f"PatternCatalog(entries={{'singleton': {SINGLETON_REPR}}}, "
        "user_names=frozenset({'singleton'}))",
    ),
    MatchRow: (
        ("pattern_edges", "system_edges"),
        (ROW.pattern_edges, ROW.system_edges),
        ((), ROW.system_edges[::-1] + ROW.system_edges),
        ROW_REPR,
    ),
    MatchTable: (("level", "rows"), (1, (ROW,)), (0, ()), TABLE_REPR),
    DetectionReport: (
        ("pattern_name", "pattern_size", "table"),
        ("facade", 1, TABLE),
        ("composite", 3, MatchTable(0)),
        REPORT_REPR,
    ),
    ReportDocument: (
        ("model_name", "results", "catalog_names"),
        ("sample", (REPORT,), ("facade",)),
        ("", (), ()),
        f"ReportDocument(model_name='sample', results=({REPORT_REPR},), "
        "catalog_names=('facade',))",
    ),
}

CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _record(cls):
    return cls(*RECORDS[cls][1])


def _fields(record):
    return tuple(getattr(record, name) for name in RECORDS[type(record)][0])


@CLASSES
def test_fields_are_named_in_order_and_built_either_way(cls):
    names, values, _, _ = RECORDS[cls]
    record = cls(*values)
    assert cls.__match_args__ == names
    assert _fields(record) == values
    assert cls(**dict(zip(names, values))) == record
    match record:
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("the record does not match its own class pattern")


def test_defaults():
    assert MatchTable(0).rows == () and MatchTable(level=0) == MatchTable(0, ())
    catalog = PatternCatalog({"singleton": SINGLETON})
    assert catalog.user_names == frozenset()
    assert catalog == PatternCatalog(entries={"singleton": SINGLETON}, user_names=frozenset())


@CLASSES
def test_equal_by_class_and_fields(cls):
    names, values, changed, _ = RECORDS[cls]
    record = cls(*values)
    twin = cls(*[copy.copy(value) for value in values])
    assert twin == record and not twin != record
    for position in range(len(names)):
        other = cls(*values[:position], changed[position], *values[position + 1 :])
        assert other != record and not other == record
    # A subclass with the same fields, another record, and other types.
    subclass = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})
    others = [_record(other) for other in RECORDS if other is not cls]
    for stranger in (subclass(*values), *others, values, list(values), None, object()):
        assert record.__eq__(stranger) is NotImplemented
        assert record != stranger and not record == stranger


@CLASSES
def test_hash_is_the_field_tuple_hash(cls):
    record = _record(cls)
    if cls is PatternCatalog:
        # Its entries are a dict, so its field tuple is unhashable.
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert hash(record) == hash(_fields(record)) == hash(cls(*_fields(record)))
    assert record in {record}


@CLASSES
def test_repr_is_pinned(cls):
    assert repr(_record(cls)) == RECORDS[cls][3]


@CLASSES
def test_assignment_and_deletion_raise(cls):
    names, values, changed, _ = RECORDS[cls]
    record = cls(*values)
    for name, value in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == values


@CLASSES
def test_other_attributes_cannot_be_set_or_deleted(cls):
    record = _record(cls)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.extra


@CLASSES
def test_instances_have_no_dict(cls):
    assert not hasattr(_record(cls), "__dict__")


@CLASSES
def test_pickle_copy_and_deepcopy_round_trip(cls):
    record = _record(cls)
    copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is cls and other == record
        assert repr(other) == repr(record)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ClassGraph("bad name", frozenset(), frozenset()), InvalidNodeError, "model name"),
        (lambda: ClassGraph("m", frozenset({""}), frozenset()), InvalidNodeError, "non-empty"),
        (
            lambda: ClassGraph("m", frozenset({"A"}), frozenset({make_edge("A", "B", 1)})),
            GraphIntegrityError,
            "undeclared nodes: B",
        ),
        (lambda: PatternCatalog({"Singleton": SINGLETON}), CatalogError, "must be lowercase"),
        (
            lambda: PatternCatalog({"lonely": parse_model("model lonely\nclass A\n")}),
            CatalogError,
            "'lonely' has no edges",
        ),
        (
            lambda: PatternCatalog({"singleton": SINGLETON}, frozenset({"facade"})),
            CatalogError,
            "user names missing from entries: facade",
        ),
        (
            lambda: ReportDocument("m", (REPORT, DetectionReport("composite", 3, TABLE)), ()),
            ValueError,
            "sorted by pattern name",
        ),
    ],
    ids=[
        "graph-name",
        "graph-node",
        "graph-integrity",
        "catalog-key",
        "catalog-pattern",
        "catalog-user-names",
        "document-order",
    ],
)
def test_validation_runs_at_construction(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_construction_copies_into_immutable_fields():
    graph = ClassGraph("m", {"A"}, [LOOP])
    assert type(graph.nodes) is frozenset and type(graph.edges) is frozenset
    entries = {"singleton": SINGLETON}
    catalog = PatternCatalog(entries, ["singleton"])
    entries.clear()
    assert catalog.names() == ["singleton"] and type(catalog.user_names) is frozenset


# Modules a fresh ``dpdetect`` process has no use for: ``dataclasses`` and
# what it imports, ``typing``, and ``json``, whose one function ``cli`` takes
# from ``_json``.
UNUSED_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "json")


def test_importing_the_command_loads_no_code_generation_modules():
    # ``-S`` leaves out ``site``, which may import some of these itself.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import dpdetect.cli; "
        f"print(sorted(set({UNUSED_MODULES!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
