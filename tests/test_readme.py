"""The README names only what exists.

Every name the README gives a reader to type or to open is checked
against the tree, so a rename or a deletion that leaves the README
behind fails here instead of misleading the next reader.  The checks
read the README's code blocks and backticked spans:

* ``repro <word>``: a subcommand :func:`repro.cli.main` dispatches, or a
  registered scenario name or alias;
* ``REPRO_*``: a name read somewhere in ``src/``, ``bench/``,
  ``benchmarks/`` or a ``conftest.py`` (checked in the whole README);
* a repo path (``src/…``, ``tests/…``, ``bench/…``, ``examples/…``,
  ``benchmarks/…``, ``.github/…``, ``.claude/…``; a ``::test`` suffix is
  dropped): it exists;
* a dotted ``repro.…`` name: it imports and resolves;
* a ``--flag``: a string literal in ``src/``, ``bench/`` or a
  ``conftest.py``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import registry
from repro.errors import EngineError

_ROOT = Path(__file__).resolve().parents[1]
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_COMMAND = re.compile(r"(?<!from )\brepro(?:\s+-[\w-]+)*\s+([A-Za-z][\w-]*)")
_ENV = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|bench|examples|benchmarks|\.github|\.claude)/[\w./-]*"
)
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _code(text: str) -> list[str]:
    """The README's code: each fenced block, then each backticked span
    of the prose around them."""
    spans = _SPAN.findall(_FENCE.sub("", text))
    return _FENCE.findall(text) + [span.replace("\n", " ") for span in spans]


def _sources(*trees: str) -> list[Path]:
    files = [path for tree in trees for path in sorted((_ROOT / tree).rglob("*.py"))]
    return files + sorted(_ROOT.glob("**/conftest.py"))


def _subcommands() -> set[str]:
    """The words ``main`` compares ``argv[0]`` against, minus the flags."""
    words = set()
    for node in ast.walk(ast.parse(inspect.getsource(main))):
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "argv[0]":
            for comparator in node.comparators:
                for constant in ast.walk(comparator):
                    if isinstance(constant, ast.Constant) and isinstance(
                        constant.value, str
                    ):
                        words.add(constant.value)
    return {word for word in words if not word.startswith("-")}


def _is_scenario(word: str) -> bool:
    try:
        registry.get(word)
    except EngineError:
        return False
    return True


@functools.cache
def _env_names() -> frozenset[str]:
    text = "\n".join(path.read_text() for path in _sources("src", "bench", "benchmarks"))
    return frozenset(_ENV.findall(text))


@functools.cache
def _string_literals() -> frozenset[str]:
    literals = set()
    for path in _sources("src", "bench"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return frozenset(literals)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


def stale_entries(readme: Path) -> list[str]:
    """Each name in ``readme`` that the tree does not have."""
    text = readme.read_text()
    code = _code(text)
    found = []
    subcommands = _subcommands()
    for word in sorted({w for chunk in code for w in _COMMAND.findall(chunk)}):
        if word not in subcommands and not _is_scenario(word):
            found.append(f"repro {word}: no such subcommand or scenario")
    for name in sorted(set(_ENV.findall(text)) - _env_names()):
        found.append(f"{name}: read nowhere")
    for path in sorted({p for chunk in code for p in _PATH.findall(chunk)}):
        if not (_ROOT / path.split("::")[0]).exists():
            found.append(f"{path}: no such path")
    for dotted in sorted({d for chunk in code for d in _DOTTED.findall(chunk)}):
        if not _resolves(dotted):
            found.append(f"{dotted}: does not resolve")
    for flag in sorted({f for chunk in code for f in _FLAG.findall(chunk)}):
        if flag not in _string_literals():
            found.append(f"{flag}: no such flag")
    return found


def test_the_readme_names_only_what_exists():
    assert stale_entries(_ROOT / "README.md") == []


def test_main_dispatches_the_documented_subcommands():
    assert _subcommands() == {"list", "version", "run", "results", "trace"}


_GOOD = """\
```bash
repro run fig8 --pods 1 --store s.sqlite
PYTHONPATH=src python -m pytest --runslow tests/test_readme.py
```
`repro results list`, `REPRO_OBS`, `bench/run.py --trace 1`,
`tests/test_readme.py::test_the_readme_names_only_what_exists`,
`repro.engine.registry.get`, `from repro import Tag`.
"""


@pytest.mark.parametrize(
    "line",
    [
        "`repro frobnicate --jobs 2`",
        "Set `REPRO_NO_SUCH_SWITCH=1` first.",
        "See `tests/no_such_test.py::test_x`.",
        "`repro.engine.registry.no_such_name`",
        "```bash\nrepro run fig08 --no-such-flag\n```",
    ],
    ids=["subcommand", "env-name", "path", "dotted-name", "flag"],
)
def test_the_check_sees_each_stale_entry(tmp_path, line):
    readme = tmp_path / "README.md"
    readme.write_text(f"{_GOOD}\n{line}\n")
    assert len(stale_entries(readme)) == 1


def test_the_check_passes_a_clean_readme(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text(_GOOD)
    assert stale_entries(readme) == []
