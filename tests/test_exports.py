"""Every exported name resolves and has a caller outside the tests: each module's
``__all__``, served by the package on first use, and importing one module loads
only what it imports."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
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
    # the package searches exactly the modules that declare __all__, and no two declare
    # one name, so the search order cannot change what a name resolves to
    searched = [importlib.import_module(f"finsent.{name}") for name in finsent._MODULES]
    declaring = {name for name in _MODULES if hasattr(importlib.import_module(f"finsent.{name}"), "__all__")}
    assert sorted(finsent._MODULES) == sorted(declaring)
    declared = Counter(attr for module in searched for attr in module.__all__)
    assert [attr for attr, count in declared.items() if count > 1] == []
    assert len(declared) > 58  # the names the package once re-exported by hand
    assert not set(declared) & set(_MODULES), "a submodule would shadow an exported name"
    for module in searched:
        for attr in module.__all__:
            assert getattr(finsent, attr) is getattr(module, attr), f"finsent.{attr} is not {module.__name__}.{attr}"
    assert hasattr(importlib.import_module("finsent.evaluate"), "_score_folds")
    for attr in ("no_such_name", "_score_folds", "__all__", "evaluate.tag_text"):
        with pytest.raises(AttributeError, match=attr):
            getattr(finsent, attr)


def test_names_resolve_when_the_filesystem_ignores_case(monkeypatch):
    # on a case-insensitive filesystem (the macOS and Windows defaults) lexicon.py also
    # answers to Lexicon.py; the import system's own finder still tells them apart
    def exists(path, _exists=os.path.exists):
        folder, base = os.path.split(os.fspath(path))
        return _exists(path) or os.path.isdir(folder) and base.lower() in map(str.lower, os.listdir(folder))
    monkeypatch.setattr(os.path, "exists", exists)
    assert os.path.exists(_SRC / "Lexicon.py")
    for name in finsent._MODULES:
        module = importlib.import_module(f"finsent.{name}")
        for attr in module.__all__:
            assert getattr(finsent, attr) is getattr(module, attr), f"finsent.{attr} is not {module.__name__}.{attr}"


def _fresh_modules(code: str) -> set:
    """The modules a fresh interpreter has loaded after running ``code`` with the package on its path."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(_SRC.parent)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_a_cold_start_loads_no_evaluation_code(tmp_path):
    # what benchmarks/coldstart.py imports and sets up; no record there is a dataclass
    from finsent.arm import Transaction
    from finsent.classify import save_model, train

    save_model(train([Transaction(frozenset({"LagInd::UP"}), label) for label in ("positive", "neutral", "negative")]),
               tmp_path)
    loaded = _fresh_modules(
        "from finsent.chunker import bundled_grammar\nfrom finsent.classify import load_model\n"
        "from finsent.lexicon import load_default_lexicon\nload_default_lexicon()\n"
        f"bundled_grammar('indicator_direction')\nbundled_grammar('numeric_direction')\nload_model({str(tmp_path)!r})"
    )
    assert {"finsent.chunker", "finsent.classify", "finsent.lexicon"} <= loaded
    assert not {"finsent.evaluate", "finsent.semtag", "csv", "dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("code, package_modules", [
    ("import finsent\nassert not hasattr(finsent, '__all__') and not hasattr(finsent, '_score_folds')", {"finsent"}),
    ("import finsent\nfound = finsent.textfile\nimport finsent.textfile as own\nassert found is own", {"finsent", "finsent.textfile"}),
    ("import finsent\nassert hasattr(finsent, 'textfile')", {"finsent", "finsent.textfile"}),
    ("from finsent import textfile", {"finsent", "finsent.textfile"}),
    ("import finsent\nfinsent.chunker.chunk_spans",
     {"finsent", "finsent.chunker", "finsent.pos_text", "finsent.record", "finsent.textfile"}),
    ("from finsent import tag_text\nfrom finsent.evaluate import tag_text as own\nassert tag_text is own",
     {"finsent", *(f"finsent.{name}" for name in _MODULES if name != "cli")}),
    # the rule layer loads a model without the tagging layer
    ("from finsent.classify import load_model",
     {"finsent", "finsent.classify", "finsent.arm", "finsent.record", "finsent.textfile"}),
], ids=["hasattr-private", "attribute-submodule", "hasattr-submodule", "import-submodule", "submodule-name",
        "import-name", "classify-load-model"])
def test_a_fresh_package_imports_only_what_is_asked_for(code, package_modules):
    assert {name for name in _fresh_modules(code) if name.partition(".")[0] == "finsent"} == package_modules


def test_package_version_is_the_project_version():
    # Python 3.10 has no tomllib: read the [project] table's version with a regex
    pyproject = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == finsent.__version__


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_has_a_caller_outside_tests(name):
    # a name only tests use is dead weight; the package's docstring does not count,
    # and in its own module the definition and the __all__ entry are two mentions
    module = importlib.import_module(f"finsent.{name}")
    own = (_SRC / f"{name}.py").read_text(encoding="utf-8")
    others = [p for p in _SRC.glob("*.py") if p.stem not in (name, "__init__")]
    elsewhere = "\n".join(p.read_text(encoding="utf-8")
                          for p in [*others, *(_ROOT / "benchmarks").glob("*.py"), _ROOT / "README.md"])
    unused = [attr for attr in getattr(module, "__all__", ())
              if len(re.findall(rf"\b{attr}\b", own)) <= 2 and not re.search(rf"\b{attr}\b", elsewhere)]
    assert not unused, f"finsent.{name}.__all__ names {unused}, which only tests use"
