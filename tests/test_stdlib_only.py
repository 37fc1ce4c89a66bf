"""The package imports nothing outside the standard library and reads every name it
imports, only ``finsent.textfile`` turns file bytes into text and text into lines,
and the reference chunker, an oracle for ``finsent.chunker``, imports nothing from
the package."""
import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "finsent"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_sources_are_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    foreign = sorted({
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "finsent"
    })
    assert not foreign, f"{path.name} imports {', '.join(foreign)}"


def _unread_imports(path: Path):
    """Names ``path`` binds by ``import`` or ``from ... import`` (``from __future__`` aside)
    that it neither reads nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    unread = _unread_imports(path)
    assert not unread, f"{path.name} imports {', '.join(unread)} and never reads it"


def test_an_unread_import_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("from __future__ import annotations\nimport os.path\nimport re, sys as system\n"
                      "from typing import List, Mapping\n__all__ = ['List']\nprint(re, os.sep)\n")
    assert _unread_imports(source) == ["Mapping", "system"]


# calls that read a file or split text into lines, each allowed only in the reader
_READERS = {"decode", "splitlines", "read_text", "read_bytes", "open"}
# (file, function, call): the rules-file writer's field check, which rejects a
# field holding anything any line splitter breaks at
_ALLOWED = {("arm.py", "_unwritable", "splitlines")}


def _reader_calls(path: Path):
    """``(file name, enclosing function, called name)`` for each reading call in ``path``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in _READERS:
                yield path.name, inner, name
            yield from visit(child, inner)
    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")


def test_only_the_reader_decodes_files_and_splits_lines():
    calls = {call for path in SOURCES if path.name != "textfile.py" for call in _reader_calls(path)}
    assert calls == _ALLOWED
    assert {name for _, _, name in _reader_calls(PACKAGE / "textfile.py")} >= {"decode", "read_bytes"}


def test_reference_chunker_shares_no_code_with_the_package():
    shared = sorted(name for name in _absolute_imports(TESTS / "reference_chunker.py")
                    if name.partition(".")[0] == "finsent")
    assert not shared, f"reference_chunker.py imports {', '.join(shared)}"
