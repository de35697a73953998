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
from .model import (
    Declaration,
    ModelDocument,
    ModelSyntaxError,
    parse_model,
    render_model,
    scan_declarations,
)
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
    NodeMapping,
    Verdict,
    check_table,
    detect,
    find_matches,
)
from .oracle import (
    DEFAULT_MAX_EDGES,
    DEFAULT_MAX_NODES,
    OracleSizeError,
    oracle_detect,
    oracle_find_matches,
)

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
    "Declaration",
    "ModelDocument",
    "scan_declarations",
    "parse_model",
    "render_model",
    "CatalogError",
    "PatternCatalog",
    "builtin_catalog",
    "load_catalog",
    "EmptyPatternError",
    "LevelOutOfRangeError",
    "Verdict",
    "NodeMapping",
    "MatchRow",
    "MatchTable",
    "DetectionReport",
    "find_matches",
    "detect",
    "check_table",
    "OracleSizeError",
    "DEFAULT_MAX_EDGES",
    "DEFAULT_MAX_NODES",
    "oracle_find_matches",
    "oracle_detect",
]
