"""Everything public in ``src/repro`` has a user outside ``tests/``.

A function, method or option that only its tests use is a capability
nobody uses: it is deleted, made a constant, or, when tests need it as a
reference or a fixture, it lives in ``tests/``.  Three scans fail when
one appears.  Each ``ast``-parses every module under ``src/repro``
except the package ``__init__`` files.  The caller trees are ``src/``,
``bench/``, ``benchmarks/``, ``examples/``, ``setup.py`` and the root
``conftest.py``.

* **Names.**  Each public top-level ``def``, ``class`` and assigned name
  must be used in the caller trees.  A use is a name, an attribute or an
  imported name, or a ``"pkg.mod:name"`` string, the form a lazy factory
  table or a console script names a callable by.  The name's own
  definition is not a use, nor is a re-export: an ``__all__`` list, a
  ``lazy_exports`` table or an import in a package ``__init__``.
* **Methods.**  Each public method or property of a public class must
  appear in the caller trees as an attribute, or as the name string of
  a ``getattr``, ``hasattr`` or ``setattr`` call.  The scan sees names,
  not types: a method that shares its name with another attribute looks
  used, so check those by hand.
* **Options.**  Each defaulted parameter of a public function, or of a
  public method or constructor of a public class, must be passed by
  some call in the caller trees or in ``tests/``: tests count here, so
  a seed or a stream a test substitutes stays.  The call must be to a
  callable of that name (the class, for a constructor), passing the
  parameter by keyword or by position; a call with ``*args`` or
  ``**kwargs`` passes everything.

A module or name kept without a user sits on ``ALLOWED`` with the
reason, and is exempt from all three scans (a class entry covers its
methods); an entry that is gone or has since found a caller fails too.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_CALLER_TREES = ("src", "bench", "benchmarks", "examples")
_CALLER_FILES = ("setup.py", "conftest.py")
_FACTORY = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+:([A-Za-z_]\w*)(?!\w)")

# Kept with no caller outside tests: "module" or "module:name" -> reason.
ALLOWED = {
    "repro.core.serialize": "the TAG's JSON form; ROADMAP item 10's `repro explain` reads it",
    "repro.core.bandwidth:trunk_saving": "§4.2 Eq. 4, the bit-for-bit reference of its inlined copy",
    "repro.core.bandwidth:hose_saving_possible": "§4.2 Eq. 2",
    "repro.core.bandwidth:trunk_saving_possible": "§4.2 Eq. 6",
    "repro.engine.runners:register_runner": "the README's extension point for a new engine kind",
    "repro.inference.builder:infer_tag": "§3's traffic-to-TAG step; ROADMAP item 15 needs it",
    "repro.validation.traffic_check:validate_allocation": "ROADMAP item 17's failure claim needs it",
    "repro.workloads.bing:pool_statistics": "ROADMAP item 9's pool fidelity table needs it",
    "repro.topology.builder:multi_rooted_tree": "the §4 remark on multi-rooted trees",
    "repro.enforcement.maxmin:maxmin_rates": "ROADMAP item 7, and the seed-parity digest",
}


def _modules(root: Path) -> list[str]:
    package = root / "src"
    return sorted(
        ".".join(path.relative_to(package).with_suffix("").parts)
        for path in package.rglob("*.py")
        if path.name != "__init__.py"
    )


def _path(root: Path, module: str) -> Path:
    return root / "src" / Path(*module.split(".")).with_suffix(".py")


def _defined(statement: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]


def _parse(root: Path, module: str) -> ast.Module:
    return ast.parse(_path(root, module).read_text())


def public_names(root: Path, module: str) -> list[str]:
    tree = _parse(root, module)
    names = [name for statement in tree.body for name in _defined(statement)]
    return sorted({name for name in names if not name.startswith("_")})


def _uses(node: ast.AST, reexport: bool) -> set[str]:
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias) and not reexport:
            found.add(child.name.rpartition(".")[2])
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.update(_FACTORY.findall(child.value))
    return found


def _file_uses(path: Path) -> set[str]:
    """What ``path`` uses, minus each top-level statement's own names."""
    tree = ast.parse(path.read_text())
    reexport = path.name == "__init__.py"
    found = set()
    for statement in tree.body:
        found |= _uses(statement, reexport) - set(_defined(statement))
    return found


def _files(root: Path, trees: tuple[str, ...]) -> list[Path]:
    files = [path for tree in trees for path in sorted((root / tree).rglob("*.py"))]
    return files + [root / name for name in _CALLER_FILES if (root / name).exists()]


@functools.lru_cache(maxsize=None)
def used_names(root: Path) -> frozenset[str]:
    return frozenset().union(*map(_file_uses, _files(root, _CALLER_TREES)))


def uncalled(root: Path, module: str) -> list[str]:
    """Public names of ``module`` with no caller and no ``ALLOWED`` entry."""
    if module in ALLOWED:
        return []
    used = used_names(root)
    return [
        name
        for name in public_names(root, module)
        if name not in used and f"{module}:{name}" not in ALLOWED
    ]


@pytest.mark.parametrize("module", _modules(_ROOT))
def test_every_public_name_has_a_caller(module):
    names = uncalled(_ROOT, module)
    assert not names, (
        f"{module}: no caller outside tests/ for {', '.join(names)}; delete, "
        "move into tests/, or add to ALLOWED with a reason"
    )


# ----------------------------------------------------------------------
# methods and options
# ----------------------------------------------------------------------
_NAME_STRING_CALLS = ("getattr", "hasattr", "setattr")


def _public_classes(tree: ast.Module) -> list[ast.ClassDef]:
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def _functions(body: list[ast.stmt]) -> list[ast.FunctionDef]:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _exempt(module: str, top: str) -> bool:
    return module in ALLOWED or f"{module}:{top}" in ALLOWED


def public_methods(root: Path, module: str) -> list[str]:
    """``Class.method`` for each public method or property of a public class."""
    return sorted(
        {
            f"{cls.name}.{function.name}"
            for cls in _public_classes(_parse(root, module))
            for function in _functions(cls.body)
            if not function.name.startswith("_")
        }
    )


@functools.lru_cache(maxsize=None)
def attribute_names(root: Path) -> frozenset[str]:
    """Every attribute the caller trees read or write, by name."""
    found = set()
    for path in _files(root, _CALLER_TREES):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _NAME_STRING_CALLS
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                found.add(node.args[1].value)
    return frozenset(found)


def unreached(root: Path, module: str) -> list[str]:
    """Public methods of ``module`` that no caller tree reaches."""
    used = attribute_names(root)
    return [
        method
        for method in public_methods(root, module)
        if method.partition(".")[2] not in used
        and not _exempt(module, method.partition(".")[0])
    ]


@pytest.mark.parametrize("module", _modules(_ROOT))
def test_every_public_method_has_a_caller(module):
    methods = unreached(_ROOT, module)
    assert not methods, (
        f"{module}: no caller outside tests/ for {', '.join(methods)}; "
        "delete, or move into tests/"
    )


def _defaulted(function: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each defaulted parameter; keyword-only ones
    have no position.  A bound method's receiver takes no position."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    if bound and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def options(root: Path, module: str) -> list[tuple[str, str, str, str, int | None]]:
    """``(top, label, callee, parameter, position)`` per defaulted parameter
    of a public function, or of a public method or constructor of a public
    class; ``callee`` is the name a call to it goes by."""
    tree = _parse(root, module)
    found = [
        (function.name, function.name, function.name, name, position)
        for function in _functions(tree.body)
        if not function.name.startswith("_")
        for name, position in _defaulted(function, bound=False)
    ]
    for cls in _public_classes(tree):
        for function in _functions(cls.body):
            if function.name == "__init__":
                label = callee = cls.name
            elif function.name.startswith("_"):
                continue
            else:
                label, callee = f"{cls.name}.{function.name}", function.name
            found += [
                (cls.name, label, callee, name, position)
                for name, position in _defaulted(function, bound=True)
            ]
    return found


@functools.lru_cache(maxsize=None)
def calls(root: Path) -> dict[str, list[tuple[bool, int, frozenset[str]]]]:
    """Per callee name, each call in the caller trees and ``tests/`` as
    ``(passes everything, positional count, keyword names)``."""
    table: dict[str, list[tuple[bool, int, frozenset[str]]]] = {}
    for path in _files(root, (*_CALLER_TREES, "tests")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            else:
                continue
            everything = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = frozenset(k.arg for k in node.keywords if k.arg)
            table.setdefault(callee, []).append((everything, len(node.args), keywords))
    return table


def unset(root: Path, module: str) -> list[str]:
    """Defaulted parameters of ``module`` that no call passes."""
    table = calls(root)
    return [
        f"{label}({name})"
        for top, label, callee, name, position in options(root, module)
        if not _exempt(module, top)
        and not any(
            everything
            or name in keywords
            or (position is not None and count > position)
            for everything, count, keywords in table.get(callee, ())
        )
    ]


@pytest.mark.parametrize("module", _modules(_ROOT))
def test_every_option_is_set_somewhere(module):
    names = unset(_ROOT, module)
    assert not names, (
        f"{module}: no call passes {', '.join(names)}; make each a constant "
        "with its default value"
    )


def test_allowlist_is_short():
    assert len(ALLOWED) <= 10


def stale(root: Path, entry: str) -> str | None:
    """Why an ``ALLOWED`` entry no longer belongs there, if it does not."""
    module, _, name = entry.partition(":")
    if module not in _modules(root):
        return "no such module"
    names = public_names(root, module)
    if name:
        if name not in names:
            return "no such name"
        names = [name]
    if not set(names) - used_names(root):
        return "it has a caller now"
    return None


@pytest.mark.parametrize("entry", sorted(ALLOWED))
def test_allowlist_entry_is_not_stale(entry):
    assert stale(_ROOT, entry) is None, f"{entry}: {stale(_ROOT, entry)}"


def _tree(root: Path, files: dict[str, str]) -> Path:
    base = {"setup.py": "", "src/x/__init__.py": ""}
    for name, text in {**base, **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_the_scan_reports_a_planted_unused_function(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": "def used():\n    pass\n\ndef planted():\n    return planted\n",
            "src/x/app.py": "from x.lib import used\n\nused()\n",
            "tests/test_lib.py": "from x.lib import planted\n\nplanted()\n",
        },
    )
    assert uncalled(root, "x.lib") == ["planted"]
    assert uncalled(root, "x.app") == []


def test_a_factory_string_is_a_use(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": "def made():\n    pass\n",
            "src/x/app.py": "FACTORIES = {'made': 'x.lib:made'}\n",
            "examples/run.py": "from x.app import FACTORIES\n",
        },
    )
    assert uncalled(root, "x.lib") == []


@pytest.mark.parametrize(
    "init",
    [
        "__all__ = ['planted']\n",
        "from x._lazy import lazy_exports\n"
        "__all__ = ['planted']\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {'x.lib': ('planted',)})\n",
        "from x.lib import planted\n__all__ = ['planted']\n",
    ],
    ids=["all-list", "lazy-table", "eager-reexport"],
)
def test_a_reexport_alone_is_not_a_use(tmp_path, init):
    root = _tree(
        tmp_path,
        {
            "src/x/__init__.py": init,
            "src/x/_lazy.py": "def lazy_exports(package, table):\n    pass\n",
            "src/x/lib.py": "def planted():\n    pass\n",
        },
    )
    assert uncalled(root, "x.lib") == ["planted"]


def test_a_stale_allowlist_entry_is_reported(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": "def kept():\n    pass\n\ndef called():\n    pass\n",
            "src/x/app.py": "from x.lib import called\n",
        },
    )
    assert stale(root, "x.lib:kept") is None
    assert stale(root, "x.lib") is None
    assert stale(root, "x.lib:called") == "it has a caller now"
    assert stale(root, "x.lib:gone") == "no such name"
    assert stale(root, "x.gone") == "no such module"


def test_the_scan_reports_a_planted_test_only_method(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": (
                "class Box:\n"
                "    def used(self):\n        pass\n\n"
                "    def planted(self):\n        pass\n\n"
                "    def _private(self):\n        pass\n"
            ),
            "src/x/app.py": "from x.lib import Box\n\nBox().used()\n",
            "tests/test_lib.py": "from x.lib import Box\n\nBox().planted()\n",
        },
    )
    assert unreached(root, "x.lib") == ["Box.planted"]


@pytest.mark.parametrize(
    "use",
    ["box.planted()", "box.planted = None", "getattr(box, 'planted', None)"],
    ids=["call", "store", "getattr"],
)
def test_an_attribute_use_counts_as_a_caller(tmp_path, use):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": "class Box:\n    def planted(self):\n        pass\n",
            "examples/run.py": f"box = object()\n{use}\n",
        },
    )
    assert unreached(root, "x.lib") == []


def test_the_scan_reports_a_planted_unset_parameter(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": (
                "def run(stream, *, seed=0, planted=1.0):\n    pass\n\n\n"
                "class Box:\n"
                "    def __init__(self, size=2):\n        pass\n\n"
                "    def fill(self, level=3):\n        pass\n"
            ),
            "src/x/app.py": "from x.lib import Box, run\n\nrun([])\nBox(4).fill()\n",
            "tests/test_lib.py": "from x.lib import run\n\nrun([], seed=1)\n",
        },
    )
    assert unset(root, "x.lib") == ["run(planted)", "Box.fill(level)"]


@pytest.mark.parametrize(
    "call",
    ["run([], planted=2.0)", "run([], 2.0)", "run(*args)", "run(**kwargs)"],
    ids=["keyword", "positional", "star-args", "star-kwargs"],
)
def test_a_call_that_passes_the_parameter_sets_it(tmp_path, call):
    root = _tree(
        tmp_path,
        {
            "src/x/lib.py": "def run(stream, planted=1.0):\n    pass\n",
            "tests/test_lib.py": (
                f"from x.lib import run\n\nargs, kwargs = (), {{}}\n{call}\n"
            ),
        },
    )
    assert unset(root, "x.lib") == []
