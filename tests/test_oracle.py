"""Brute-force reference detector: goldens, the size guard, equivalence."""

import random

import pytest

from dpdetect import (
    EmptyPatternError,
    LevelOutOfRangeError,
    OracleSizeError,
    Verdict,
    builtin_catalog,
    detect,
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


def test_size_guard_is_overridable():
    big = frozenset(make_edge(f"n{i}", f"n{i+1}", 1) for i in range(13))
    report = oracle_detect(big, CATALOG.get("facade").edges, max_edges=20, max_nodes=20)
    assert report.verdict is Verdict.COMPLETE
    assert report.occurrences == 13


def test_size_guard_trips_on_large_patterns():
    system = frozenset(make_edge(f"n{i}", f"n{i+1}", 3) for i in range(3))
    chain = frozenset(make_edge(f"p{i}", f"p{i+1}", 3) for i in range(13))
    with pytest.raises(OracleSizeError, match="pattern of 13 edges"):
        oracle_detect(system, chain)
    report = oracle_detect(system, chain, max_edges=13)
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


def test_oracle_matches_detector_on_random_instances():
    rng = random.Random(96)
    for _ in range(80):
        system, pattern = random_instance(rng)
        assert reports_agree(detect(system, pattern), oracle_detect(system, pattern))
