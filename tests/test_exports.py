"""Every exported name resolves and has a caller outside the tests: each module's
``__all__`` and the package's imports."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import finsent

_MODULES = sorted(info.name for info in pkgutil.iter_modules(finsent.__path__))
_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "finsent"


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


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_has_a_caller_outside_tests(name):
    # a name only tests use is dead weight; the package's re-exports in __init__ do not count,
    # and in its own module the definition and the __all__ entry are two mentions
    module = importlib.import_module(f"finsent.{name}")
    own = (_SRC / f"{name}.py").read_text(encoding="utf-8")
    others = [p for p in _SRC.glob("*.py") if p.stem not in (name, "__init__")]
    elsewhere = "\n".join(p.read_text(encoding="utf-8")
                          for p in [*others, *(_ROOT / "benchmarks").glob("*.py"), _ROOT / "README.md"])
    unused = [attr for attr in getattr(module, "__all__", ())
              if len(re.findall(rf"\b{attr}\b", own)) <= 2 and not re.search(rf"\b{attr}\b", elsewhere)]
    assert not unused, f"finsent.{name}.__all__ names {unused}, which only tests use"
