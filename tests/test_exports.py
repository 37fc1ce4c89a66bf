"""Every exported name resolves: each module's ``__all__`` and the package's imports."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import finsent

_MODULES = sorted(info.name for info in pkgutil.iter_modules(finsent.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"finsent.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"finsent.{name}.__all__ names {missing}, which it does not define"


def test_package_imports_resolve():
    tree = ast.parse(Path(finsent.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + (node.module or ""), "finsent")
        for alias in node.names:
            assert hasattr(module, alias.name), f"finsent imports {alias.name} from {module.__name__}, which lacks it"
            assert hasattr(finsent, alias.asname or alias.name)
