"""The public API surface: imports, exports, version, error hierarchy."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_setup_py_reads_same_version(self):
        # The same extraction setup.py performs must yield the version
        # the package reports, and setup.py must not hardcode its own.
        import re
        from pathlib import Path

        root = Path(repro.__file__).parents[2]
        init_text = (root / "src" / "repro" / "__init__.py").read_text()
        extracted = re.search(r'^__version__ = "(.+?)"', init_text, re.M)
        assert extracted is not None
        assert extracted.group(1) == repro.__version__
        setup_text = (root / "setup.py").read_text()
        assert "version=VERSION" in setup_text
        assert f'version="{repro.__version__}"' not in setup_text

    def test_quickstart_docstring_example_works(self):
        from repro import CloudMirrorPlacer, Ledger, Placement, Tag, paper_datacenter

        tag = Tag("shop")
        tag.add_component("web", size=8)
        tag.add_component("db", size=4)
        tag.add_edge("web", "db", send=100.0, recv=200.0)
        tag.add_self_loop("db", 50.0)
        ledger = Ledger(paper_datacenter(scale=0.125))
        result = CloudMirrorPlacer(ledger).place(tag)
        assert isinstance(result, Placement)


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.engine",
            "repro.models",
            "repro.topology",
            "repro.placement",
            "repro.workloads",
            "repro.simulation",
            "repro.inference",
            "repro.enforcement",
            "repro.temporal",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__all__, f"{module_name} exports nothing"
        for name in module.__all__:
            assert getattr(module, name) is not None


_SRC = Path(repro.__file__).parents[1]
_PACKAGES = sorted(
    ".".join(init.parent.relative_to(_SRC).parts)
    for init in (_SRC / "repro").rglob("__init__.py")
)

# Run in a fresh interpreter per package and order.  ``before`` reads every
# export first, the way a caller does; ``after`` first imports every
# submodule, which binds each one on its package.  Either way an export is
# a module only when it is the exported submodule itself, and one the
# package's own ``__init__`` does not bind is what every submodule holding
# that name holds (``_kernels`` binds its dispatch slots itself).
_EXPORT_CHECK = """
import importlib, json, pkgutil, sys, types

package_name, order = sys.argv[1:]
package = importlib.import_module(package_name)
own = set(vars(package))
exports = getattr(package, "__all__", ())
prefix = package_name + "."

def import_submodules():
    for info in pkgutil.walk_packages(package.__path__, prefix):
        importlib.import_module(info.name)

if order == "after":
    import_submodules()
first = {name: getattr(package, name) for name in exports}
import_submodules()
problems = []
for name, value in first.items():
    if getattr(package, name) is not value:
        problems.append(f"{name} changed once every submodule was imported")
    if isinstance(value, types.ModuleType):
        if value is not sys.modules.get(prefix + name) or hasattr(value, name):
            problems.append(f"{name} is the module {value.__name__}")
        continue
    if name in own:
        continue
    held = [
        vars(module)[name]
        for key, module in list(sys.modules.items())
        if key.startswith(prefix) and name in vars(module)
        and not isinstance(vars(module)[name], types.ModuleType)
    ]
    if not held or any(other is not value for other in held):
        problems.append(f"{name} is not what its defining module holds")
if not set(exports) <= set(dir(package)):
    problems.append(f"dir() lacks {sorted(set(exports) - set(dir(package)))}")
try:
    package.no_such_export
    problems.append("an unknown name resolved")
except AttributeError as error:
    if repr(package_name) not in str(error):
        problems.append(f"AttributeError does not name the package: {error}")
print(json.dumps(problems))
"""


class TestLazyExports:
    """Each package's exports resolve on first use to what eager imports gave."""

    @pytest.mark.parametrize("package", _PACKAGES)
    def test_exports_are_their_defining_modules_objects(self, package):
        for order in ("before", "after"):
            out = subprocess.run(
                [sys.executable, "-c", _EXPORT_CHECK, package, order],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(_SRC)),
            )
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout) == [], order


# What a service-loop process imports: bench/workloads.py's repro imports.
_SERVICE_LOOP_IMPORTS = (
    "repro.engine.registry",
    "repro.engine.runners",
    "repro.results.codecs",
    "repro.simulation.service",
    "repro.simulation.runner",
    "repro.placement",
    "repro.topology",
    "repro.temporal",
    "repro.workloads",
)
_NOT_LOADED = (
    "sqlite3",
    "multiprocessing",
    "csv",
    "logging",
    "argparse",
    "repro.enforcement",
    "repro.inference",
    "repro.results.store",
    "repro.engine.engine",
    "repro.obs.trace",
    "repro.placement.oktopus",
    "repro.placement.secondnet",
    "repro.models.pipe",
)


class TestImportBudget:
    """Counted, not timed: what a cold start compiles and runs."""

    def _loaded(self, code: str) -> list[str]:
        out = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(_SRC)),
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    def test_a_service_loop_process_loads_no_optional_layer(self):
        loaded = self._loaded("\n".join(f"import {m}" for m in _SERVICE_LOOP_IMPORTS))
        assert [name for name in _NOT_LOADED if name in loaded] == []
        own = [name for name in loaded if name.split(".")[0] == "repro"]
        assert len(own) <= 40, sorted(own)

    def test_import_repro_loads_no_subpackage(self):
        loaded = self._loaded("import repro")
        assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._lazy"]


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_single_catch_all(self):
        from repro.core.tag import Tag

        tag = Tag()
        with pytest.raises(errors.ReproError):
            tag.add_component("", 1)
        with pytest.raises(errors.ReproError):
            tag.component("missing")
