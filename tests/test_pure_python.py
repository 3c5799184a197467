"""The package is pure Python, and its hot loops have one implementation.

The placement inner loops live in the modules that own their state;
nothing is compiled and nothing chooses between implementations.  This
scan fails when the tree grows a second implementation back:

* a ``.c`` file under ``src/``;
* ``ext_modules`` or ``Extension`` in ``setup.py``;
* a backend switch (``REPRO_KERNELS``, ``REPRO_BUILD_EXT``) in a module
  under ``src/``, in ``setup.py`` or in ``README.md``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_SWITCH = re.compile(r"REPRO_KERNELS|REPRO_BUILD_EXT")
_EXTENSION = re.compile(r"\b(ext_modules|Extension)\b")


def offences(root: Path) -> list[str]:
    """What under ``root`` builds or selects a second implementation."""
    src = root / "src"
    found = [f"{path.relative_to(root)}: C source" for path in sorted(src.rglob("*.c"))]
    setup = root / "setup.py"
    if _EXTENSION.search(setup.read_text()):
        found.append("setup.py: builds an extension module")
    for path in [setup, root / "README.md", *sorted(src.rglob("*.py"))]:
        if _SWITCH.search(path.read_text()):
            found.append(f"{path.relative_to(root)}: names a backend switch")
    return found


def test_one_pure_python_kernel_implementation():
    assert offences(_ROOT) == [], "the package is pure Python, with no backend switch"


def _tree(root: Path, files: dict[str, str]) -> Path:
    base = {
        "setup.py": "from setuptools import setup\nsetup(name='x')\n",
        "README.md": "# x\n",
        "src/x/__init__.py": "",
    }
    for name, text in {**base, **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.mark.parametrize(
    "files",
    [
        {"src/x/_fast.c": "int f(void) { return 0; }\n"},
        {"setup.py": "from setuptools import Extension, setup\n"},
        {"setup.py": "setup(name='x', ext_modules=[])\n"},
        {"setup.py": "import os\nos.environ.get('REPRO_BUILD_EXT')\n"},
        {"src/x/__init__.py": "ENV_FLAG = 'REPRO_KERNELS'\n"},
        {"README.md": "REPRO_KERNELS=c repro run fig08\n"},
        {"README.md": "REPRO_BUILD_EXT=1 pip install -e .\n"},
    ],
    ids=[
        "c-source",
        "setup-extension",
        "setup-ext-modules",
        "setup-build-switch",
        "src-kernel-switch",
        "readme-kernel-switch",
        "readme-build-switch",
    ],
)
def test_the_scan_sees_each_pattern(tmp_path, files):
    assert offences(_tree(tmp_path, files))


def test_the_scan_passes_a_clean_tree(tmp_path):
    assert offences(_tree(tmp_path, {})) == []


def test_subprocess_imports_this_tree_from_any_cwd(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert Path(out.stdout.strip()).resolve() == Path(repro.__file__).resolve()


class TestVersionCommand:
    def test_reports_package_and_environment(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "numpy " in out
        assert "env: REPRO_OBS=" in out

    def test_double_dash_spelling(self, capsys):
        assert main(["version"]) == 0
        version = capsys.readouterr().out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == version
