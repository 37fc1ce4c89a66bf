"""The package imports nothing outside the standard library, and the reference
chunker, an oracle for ``finsent.chunker``, imports nothing from the package."""
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


def test_reference_chunker_shares_no_code_with_the_package():
    shared = sorted(name for name in _absolute_imports(TESTS / "reference_chunker.py")
                    if name.partition(".")[0] == "finsent")
    assert not shared, f"reference_chunker.py imports {', '.join(shared)}"
