"""The public surface: ``dpdetect.__all__`` names exactly what the CLI and
the documented library API use, and nothing else; ``dpdetect.cli.__all__``
names only what is used outside ``cli.py``."""

import importlib

import dpdetect
import dpdetect.cli

PUBLIC = {
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
}

CLI_PUBLIC = {"main", "CATALOG_ENV_VAR", "ReportDocument", "render_json"}

REMOVED = {
    "Declaration",
    "ModelDocument",
    "scan_declarations",
    "NodeMapping",
    "CATALOG_SUFFIX",
    "DEFAULT_MAX_EDGES",
    "DEFAULT_MAX_NODES",
}


def test_all_is_the_agreed_surface():
    assert len(dpdetect.__all__) == len(PUBLIC)
    assert set(dpdetect.__all__) == PUBLIC


def test_cli_all_is_what_other_modules_use():
    assert len(dpdetect.cli.__all__) == len(CLI_PUBLIC)
    assert set(dpdetect.cli.__all__) == CLI_PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from dpdetect import *", namespace)
    assert PUBLIC <= set(namespace)


def test_removed_names_are_gone():
    # The oracle keeps its size guard constants as its fixed limits only.
    kept = {"dpdetect.oracle": {"DEFAULT_MAX_EDGES", "DEFAULT_MAX_NODES"}}
    for name in ["dpdetect", "dpdetect.model", "dpdetect.catalog", "dpdetect.matcher",
                 "dpdetect.oracle"]:
        module = importlib.import_module(name)
        assert not REMOVED & set(module.__all__), name
        assert REMOVED & set(vars(module)) == kept.get(name, set()), name
