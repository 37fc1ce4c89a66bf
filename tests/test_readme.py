"""README's "Library use" block runs, and gives the results its comments state."""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_gives_the_results_its_comments_state():
    namespace: dict = {}
    shown = []  # the value of each bare expression, as an interactive session would show it
    with pytest.warns(UserWarning, match="'negative' absent from training data"):  # two rows, two classes
        for statement in ast.parse(_library_use_block()).body:
            if isinstance(statement, ast.Expr):
                shown.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert namespace["tags"] == {"LagInd::UP"}
    assert shown == [frozenset({"LagInd::UP"}), frozenset({"LagInd::DOWN"}), "positive"]
    assert all(type(tag) is str for tag in namespace["tags"] | shown[0])
