"""Every public name in ``src/repro`` has a caller outside ``tests/``.

A function that only its tests call is a capability nobody uses: it is
deleted, or, when tests need it as a reference or a fixture, it lives in
``tests/``.  This scan fails when such a name appears.  It ``ast``-parses
every module under ``src/repro`` except the package ``__init__`` files
and lists its public top-level ``def``, ``class`` and assigned names.
Each must be used in ``src/``, ``bench/``, ``benchmarks/``, ``examples/``,
``setup.py`` or the root ``conftest.py``.  A use is:

* a name, an attribute or an imported name;
* a ``"pkg.mod:name"`` string, the form a lazy factory table or a
  console script names a callable by.

The name's own definition is not a use, nor is a re-export: an
``__all__`` list, a ``lazy_exports`` table or an import in a package
``__init__``.  A name kept without a caller sits on ``ALLOWED`` with the
reason; an entry that is gone or has since found a caller fails too.
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


def public_names(root: Path, module: str) -> list[str]:
    tree = ast.parse(_path(root, module).read_text())
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


@functools.lru_cache(maxsize=None)
def used_names(root: Path) -> frozenset[str]:
    files = [path for tree in _CALLER_TREES for path in sorted((root / tree).rglob("*.py"))]
    files += [root / name for name in _CALLER_FILES if (root / name).exists()]
    return frozenset().union(*map(_file_uses, files))


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
