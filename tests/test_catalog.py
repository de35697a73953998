"""Built-in catalog contents and user catalog loading."""

import pytest

from dpdetect import (
    CatalogError,
    ClassGraph,
    PatternCatalog,
    builtin_catalog,
    load_catalog,
    render_model,
)
from helpers import edges


def test_builtin_names():
    assert builtin_catalog().names() == ["composite", "facade", "prototype", "singleton"]


def test_builtin_edge_sets():
    catalog = builtin_catalog()
    assert catalog.get("facade").edges == edges(("P", "Q", 1))
    assert catalog.get("singleton").edges == edges(("A", "A", 1))
    assert catalog.get("prototype").edges == edges(("b", "a", 1), ("c", "a", 3))
    assert catalog.get("composite").edges == edges(("c", "a", 1), ("b", "a", 3), ("c", "a", 3))


def test_builtin_catalog_is_constant():
    first = {name: render_model(builtin_catalog().get(name)) for name in builtin_catalog().names()}
    second = {name: render_model(builtin_catalog().get(name)) for name in builtin_catalog().names()}
    assert first == second


def test_lookup_is_case_insensitive():
    catalog = builtin_catalog()
    assert catalog.get("Facade") is catalog.get("facade")
    assert "SINGLETON" in catalog


def test_load_without_source_gives_builtins():
    assert load_catalog(None).names() == builtin_catalog().names()


def test_empty_directory_gives_builtins(tmp_path):
    assert load_catalog(tmp_path).names() == builtin_catalog().names()


def test_user_pattern_extends_catalog(tmp_path):
    (tmp_path / "observer.cg").write_text(
        "model observer\nassoc subject watcher\ngen concrete watcher\n", encoding="utf-8"
    )
    catalog = load_catalog(tmp_path)
    assert catalog.names() == ["composite", "facade", "observer", "prototype", "singleton"]
    assert catalog.is_user_defined("observer")
    assert not catalog.is_user_defined("facade")


def test_user_pattern_shadows_builtin(tmp_path):
    (tmp_path / "facade.cg").write_text("model Facade\nassoc x y\ndep x z\n", encoding="utf-8")
    catalog = load_catalog(tmp_path)
    assert catalog.names() == builtin_catalog().names()
    assert len(catalog.get("facade").edges) == 2
    assert catalog.is_user_defined("facade")


def test_name_falls_back_to_file_stem(tmp_path):
    (tmp_path / "Mediator.cg").write_text("assoc hub spoke\n", encoding="utf-8")
    catalog = load_catalog(tmp_path)
    assert "mediator" in catalog


def test_single_file_source(tmp_path):
    file = tmp_path / "visitor.cg"
    file.write_text("model visitor\ndep visitor element\n", encoding="utf-8")
    assert "visitor" in load_catalog(file)


def test_zero_edge_pattern_rejected(tmp_path):
    (tmp_path / "hollow.cg").write_text("model hollow\nclass a\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="has no edges"):
        load_catalog(tmp_path)


def test_disconnected_pattern_rejected(tmp_path):
    (tmp_path / "split.cg").write_text("model split\nassoc a b\ngen c d\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="'split.cg': pattern is not weakly connected"):
        load_catalog(tmp_path)


def test_direct_catalog_applies_the_same_pattern_rules():
    split = ClassGraph.from_edges("split", edges(("a", "b", 1), ("c", "d", 3)))
    with pytest.raises(CatalogError, match="pattern 'x' is not weakly connected"):
        PatternCatalog(entries={"x": split})
    hollow = ClassGraph("hollow", frozenset({"a"}), frozenset())
    with pytest.raises(CatalogError, match="pattern 'x' has no edges"):
        PatternCatalog(entries={"x": hollow})


def test_isolated_class_beside_a_connected_pattern_is_fine(tmp_path):
    (tmp_path / "lonely.cg").write_text("assoc a b\nclass c\n", encoding="utf-8")
    assert load_catalog(tmp_path).get("lonely").nodes == {"a", "b", "c"}


def test_unparseable_entry_names_the_file(tmp_path):
    (tmp_path / "broken.cg").write_text("model broken\nassoc a\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="broken.cg"):
        load_catalog(tmp_path)


def test_entry_lines_end_only_at_newlines(tmp_path):
    (tmp_path / "observer.cg").write_text(
        "model observer # note \u2028 x\ndep observer subject\x0c\n", encoding="utf-8"
    )
    assert load_catalog(tmp_path).get("observer").edges == edges(("observer", "subject", 2))
    (tmp_path / "broken.cg").write_text("model broken\x0c\nassoc a\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="broken.cg.*line 2:"):
        load_catalog(tmp_path)


def test_duplicate_user_names_rejected(tmp_path):
    (tmp_path / "one.cg").write_text("model same\nassoc a b\n", encoding="utf-8")
    (tmp_path / "two.cg").write_text("model Same\nassoc x y\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="duplicate pattern name"):
        load_catalog(tmp_path)


def test_missing_path_rejected(tmp_path):
    with pytest.raises(CatalogError, match="not found"):
        load_catalog(tmp_path / "nowhere")
