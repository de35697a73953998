"""Brute-force reference detector: goldens, the size guard, equivalence."""

import random

import pytest

import dpdetect.oracle
from dpdetect import (
    EmptyPatternError,
    LevelOutOfRangeError,
    MatchTable,
    OracleSizeError,
    Verdict,
    builtin_catalog,
    check_table,
    detect,
    find_matches,
    make_edge,
    oracle_detect,
    oracle_find_matches,
)
from helpers import SAMPLE_SYSTEM, pair_rows, random_instance, reports_agree

CATALOG = builtin_catalog()


def test_oracle_facade_rows():
    table = oracle_find_matches(SAMPLE_SYSTEM, CATALOG.get("facade").edges, 1)
    assert pair_rows(table) == {
        frozenset({("a", "b")}),
        frozenset({("c", "b")}),
        frozenset({("a", "c")}),
    }


def test_oracle_composite_full_level_empty():
    assert oracle_find_matches(SAMPLE_SYSTEM, CATALOG.get("composite").edges, 3).rows == ()


def test_oracle_golden_verdicts():
    expected = {
        "composite": (Verdict.PARTIAL, 2, 3),
        "facade": (Verdict.COMPLETE, 1, 3),
        "prototype": (Verdict.COMPLETE, 2, 3),
        "singleton": (Verdict.ABSENT, None, 0),
    }
    for name, (verdict, level, occurrences) in expected.items():
        report = oracle_detect(SAMPLE_SYSTEM, CATALOG.get(name).edges, pattern_name=name)
        assert report.verdict is verdict
        assert report.level == level
        assert report.occurrences == occurrences


def test_size_guard_trips_on_large_systems():
    big = frozenset(make_edge(f"n{i}", f"n{i+1}", 1) for i in range(13))
    with pytest.raises(OracleSizeError):
        oracle_detect(big, CATALOG.get("facade").edges)


def test_size_guard_reads_its_limits_at_call_time(monkeypatch):
    big = frozenset(make_edge(f"n{i}", f"n{i+1}", 1) for i in range(13))
    monkeypatch.setattr(dpdetect.oracle, "DEFAULT_MAX_EDGES", 20)
    monkeypatch.setattr(dpdetect.oracle, "DEFAULT_MAX_NODES", 20)
    report = oracle_detect(big, CATALOG.get("facade").edges)
    assert report.verdict is Verdict.COMPLETE
    assert report.occurrences == 13


def test_size_guard_trips_on_large_patterns(monkeypatch):
    system = frozenset(make_edge(f"n{i}", f"n{i+1}", 3) for i in range(3))
    chain = frozenset(make_edge(f"p{i}", f"p{i+1}", 3) for i in range(13))
    with pytest.raises(OracleSizeError, match="pattern of 13 edges"):
        oracle_detect(system, chain)
    monkeypatch.setattr(dpdetect.oracle, "DEFAULT_MAX_EDGES", 13)
    report = oracle_detect(system, chain)
    assert (report.verdict, report.level, report.occurrences) == (Verdict.PARTIAL, 3, 1)


def test_node_guard_trips_independently():
    wide = frozenset(make_edge(f"n{i}", "hub", 1) for i in range(9))
    with pytest.raises(OracleSizeError):
        oracle_find_matches(wide, CATALOG.get("facade").edges, 1)


def test_oracle_rejects_bad_levels():
    with pytest.raises(LevelOutOfRangeError):
        oracle_find_matches(SAMPLE_SYSTEM, CATALOG.get("facade").edges, 2)
    with pytest.raises(EmptyPatternError):
        oracle_detect(SAMPLE_SYSTEM, frozenset())


def _check_empty_table(system_edges, pattern_edges):
    check_table(MatchTable(level=0), system_edges, pattern_edges)


@pytest.mark.parametrize(
    "entry",
    [
        detect,
        find_matches,
        oracle_detect,
        oracle_find_matches,
        pytest.param(_check_empty_table, id="check_table"),
    ],
)
def test_every_entry_point_raises_the_same_input_errors(entry):
    takes_level = entry in (find_matches, oracle_find_matches)
    with pytest.raises(EmptyPatternError) as empty:
        entry(SAMPLE_SYSTEM, frozenset(), *((1,) if takes_level else ()))
    assert str(empty.value) == "pattern has no edges"
    pattern = CATALOG.get("composite").edges
    # A level that is not an int, or is a bool, is out of range too, even
    # where its value lies in 1..|pattern|.
    for n in (0, len(pattern) + 1, 1.5, 2.0, True, "2") if takes_level else ():
        with pytest.raises(LevelOutOfRangeError) as out_of_range:
            entry(SAMPLE_SYSTEM, pattern, n)
        assert str(out_of_range.value) == f"level must be in 1..{len(pattern)}, got {n!r}"


def test_oracle_matches_detector_on_random_instances():
    rng = random.Random(96)
    for _ in range(80):
        system, pattern = random_instance(rng)
        assert reports_agree(detect(system, pattern), oracle_detect(system, pattern))
