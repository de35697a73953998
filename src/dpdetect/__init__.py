"""Detect design patterns in class models by typed-edge subgraph matching.

Class models and patterns are both directed multigraphs whose edges carry a
relationship code (association, dependency, generalization) and a derived
self-loop flag.  ``detect`` reports whether a pattern exists in a model
completely, partially (at the largest matchable size), or not at all,
together with every distinct occurrence.  ``oracle_detect`` is a
brute-force reference implementation for cross-checking results on small
inputs.
"""

__version__ = "0.1.0"

from .graph import (
    ClassGraph,
    EdgeTuple,
    EmptyEdgeSetError,
    GraphIntegrityError,
    InvalidNodeError,
    RelationKind,
    is_weakly_connected,
    make_edge,
)
from .model import ModelSyntaxError, parse_model, render_model
from .catalog import (
    CatalogError,
    PatternCatalog,
    builtin_catalog,
    load_catalog,
)
from .matcher import (
    DetectionReport,
    EmptyPatternError,
    LevelOutOfRangeError,
    MatchRow,
    MatchTable,
    Verdict,
    check_table,
    detect,
    find_matches,
)
from .oracle import OracleSizeError, oracle_detect, oracle_find_matches

__all__ = [
    "__version__",
    "RelationKind",
    "EdgeTuple",
    "ClassGraph",
    "InvalidNodeError",
    "GraphIntegrityError",
    "EmptyEdgeSetError",
    "make_edge",
    "is_weakly_connected",
    "ModelSyntaxError",
    "parse_model",
    "render_model",
    "CatalogError",
    "PatternCatalog",
    "builtin_catalog",
    "load_catalog",
    "EmptyPatternError",
    "LevelOutOfRangeError",
    "Verdict",
    "MatchRow",
    "MatchTable",
    "DetectionReport",
    "find_matches",
    "detect",
    "check_table",
    "OracleSizeError",
    "oracle_find_matches",
    "oracle_detect",
]
