"""No Python file of the repo imports a name at module level and never uses it.

One case per file of ``src/``, ``tests/``, ``examples/`` and
``benchmarks/``; package ``__init__`` files (whose imports are
re-exports) and ``from __future__`` imports are skipped.  An imported
name counts as used when it appears as a name anywhere in the module,
as a function parameter (a pytest fixture of that name) or inside a
string constant that parses as an expression (a quoted annotation, an
``__all__`` entry).  Prose does not parse, so a docstring that only
mentions the name does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TREES = ("src", "tests", "examples", "benchmarks")


def _files() -> list[Path]:
    return sorted(
        path
        for tree in _TREES
        for path in (_ROOT / tree).rglob("*.py")
        if path.name != "__init__.py" and "__pycache__" not in path.parts
    )


def _imported(module: ast.Module) -> dict[str, int]:
    """Module-level imported name -> line, including imports nested in
    top-level ``if`` / ``try`` blocks (``if TYPE_CHECKING:``)."""
    found: dict[str, int] = {}
    pending = list(module.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            if isinstance(node, ast.Try):
                pending.extend(node.finalbody)
                for handler in node.handlers:
                    pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    found[alias.asname or alias.name] = node.lineno
    return found


def _used(module: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id for inner in ast.walk(expression) if isinstance(inner, ast.Name)
            )
    return used


def unused_imports(source: str) -> list[str]:
    """``"name (line N)"`` for each module-level import never used."""
    module = ast.parse(source)
    used = _used(module)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_imported(module).items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", _files(), ids=lambda path: path.relative_to(_ROOT).as_posix()
)
def test_no_unused_module_import(path: Path) -> None:
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(_ROOT)} imports unused {', '.join(unused)}"


def test_scan_reports_a_planted_import_and_spares_a_quoted_annotation(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        '"""Uses math in prose only."""\n'
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Sequence\n"
        "\n"
        "def first(items: 'Sequence[int]') -> int:\n"
        "    return items[0]\n",
        encoding="utf-8",
    )
    assert unused_imports(planted.read_text(encoding="utf-8")) == ["math (line 3)"]
