"""Data derived from a ``Tag`` has one home: the memo on the tag.

``Tag.derived`` memoizes, and every ``Tag`` mutator clears the memo, so
nothing built from a tag can outlive a change to it.  A cache elsewhere
keyed by the tag object cannot see a mutation.  This scan fails when a
module under ``src/repro`` other than ``core/tag.py``:

* imports ``weakref`` (the identity-keyed caches were weak-keyed), or
* defines a module-level mapping keyed by ``Tag`` / ``TemporalTag``, or
  a module-level ``lru_cache`` / ``cache`` function taking one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).parent
_HOME = _SRC / "core" / "tag.py"
_KEYED_BY_TAG = re.compile(
    r"Weak\w*(Dictionary|Set)"
    r"|\b(dict|Dict|Mapping|MutableMapping|defaultdict|OrderedDict)"
    r"\[\s*['\"]?(\w+\.)*(Temporal)?Tag\b"
)
_CACHE_DECORATORS = {"lru_cache", "cache"}


def _name(node: ast.AST) -> str:
    """The last dotted part of a decorator (``functools.lru_cache(8)`` ->
    ``lru_cache``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def offences(source: str) -> list[str]:
    """What in ``source`` keeps tag-derived data outside the tag."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "weakref" for alias in node.names
        ):
            found.append(f"line {node.lineno}: imports weakref")
        elif isinstance(node, ast.ImportFrom) and node.module == "weakref":
            found.append(f"line {node.lineno}: imports from weakref")
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            parts = [node.value] if node.value is not None else []
            if isinstance(node, ast.AnnAssign):
                parts.append(node.annotation)
            text = " ".join(ast.unparse(part) for part in parts)
            if _KEYED_BY_TAG.search(text):
                found.append(f"line {node.lineno}: module-level cache keyed by a tag")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cached = any(_name(d) in _CACHE_DECORATORS for d in node.decorator_list)
            takes_tag = any(
                arg.annotation is not None
                and re.search(r"\b(Temporal)?Tag\b", ast.unparse(arg.annotation))
                for arg in node.args.args + node.args.kwonlyargs
            )
            if cached and takes_tag:
                found.append(f"line {node.lineno}: {node.name} caches per tag")
    return found


def test_no_tag_derived_cache_outside_the_tag():
    found = {
        str(path.relative_to(_SRC)): offences(path.read_text())
        for path in sorted(_SRC.rglob("*.py"))
        if path != _HOME
    }
    assert {module: lines for module, lines in found.items() if lines} == {}, (
        "memoize tag-derived data with Tag.derived"
    )


@pytest.mark.parametrize(
    "source",
    [
        "import weakref\n",
        "from weakref import WeakKeyDictionary\n",
        "_PLAN_CACHE: 'weakref.WeakKeyDictionary[Tag, tuple]' = make()\n",
        "_PLANS = WeakKeyDictionary()\n",
        "_META: dict[Tag, tuple] = {}\n",
        "_PEAKS: 'dict[TemporalTag, Tag]' = {}\n",
        "@lru_cache(maxsize=None)\ndef plan(tag: Tag) -> tuple:\n    return ()\n",
        "@functools.cache\ndef plan(tag: 'Tag') -> tuple:\n    return ()\n",
    ],
)
def test_the_scan_sees_each_kind_of_cache(source):
    assert offences(source)


def test_the_scan_passes_what_is_not_a_tag_cache():
    source = (
        "_POOLS: dict[str, tuple[Tag, ...]] = {}\n"
        "@lru_cache(maxsize=None)\n"
        "def get_pool(name: str) -> tuple[Tag, ...]:\n    return ()\n"
        "def plan(tag: Tag) -> dict[Tag, int]:\n    return {}\n"
    )
    assert offences(source) == []
    assert offences(_HOME.read_text()) == []  # the home needs no cache either
