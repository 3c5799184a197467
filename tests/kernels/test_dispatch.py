"""Dispatch-shim behavior: backend selection, rebinding, diagnostics.

The policy lives in the pure ``_select_backend`` so every
``REPRO_KERNELS`` value is testable without rebuilding the extension or
re-importing the package; the rebinding tests exercise the module-level
``use_backend`` hook the parity suite and benchmarks rely on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _kernels
from repro._kernels import (
    ENV_FLAG,
    _select_backend,
    available_backends,
    kernels_info,
    pyref,
    use_backend,
)


class TestSelectBackend:
    def test_auto_prefers_compiled_when_built(self):
        assert _select_backend("auto", True) == ("c", None)

    def test_auto_falls_back_without_the_extension(self):
        assert _select_backend("auto", False) == ("py", None)

    def test_py_is_always_honored(self):
        assert _select_backend("py", True) == ("py", None)
        assert _select_backend("py", False) == ("py", None)

    def test_c_selects_compiled_when_built(self):
        assert _select_backend("c", True) == ("c", None)

    def test_c_without_extension_warns_and_falls_back(self):
        backend, warning = _select_backend("c", False)
        assert backend == "py"
        assert "REPRO_BUILD_EXT" in warning

    def test_unknown_value_warns_and_acts_like_auto(self):
        for built, expected in ((True, "c"), (False, "py")):
            backend, warning = _select_backend("fancy", built)
            assert backend == expected
            assert "fancy" in warning

    def test_empty_and_whitespace_mean_auto(self):
        assert _select_backend("", True) == ("c", None)
        assert _select_backend("  PY  ", True) == ("py", None)


class TestUseBackend:
    def teardown_method(self):
        use_backend("auto")

    def test_py_rebinds_to_the_reference_functions(self):
        assert use_backend("py") == "py"
        assert _kernels.ledger_adjust is pyref.ledger_adjust
        assert _kernels.expand_edges is pyref.expand_edges

    def test_auto_rebinds_to_the_best_available(self):
        backend = use_backend("auto")
        assert backend == ("c" if _kernels.compiled_available else "py")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="fancy"):
            use_backend("fancy")

    @pytest.mark.skipif(
        not _kernels.compiled_available, reason="compiled kernels not built"
    )
    def test_c_rebinds_to_the_extension(self):
        from repro._kernels import _ckernels

        assert use_backend("c") == "c"
        assert _kernels.ledger_adjust is _ckernels.ledger_adjust
        assert _kernels.expand_edges is _ckernels.expand_edges

    def test_kernels_info_reports_the_active_backend(self):
        use_backend("py")
        info = kernels_info()
        assert info["backend"] == "py"
        assert info["env"] == ENV_FLAG
        assert info["compiled_available"] == _kernels.compiled_available

    def test_available_backends_shape(self):
        backends = available_backends()
        assert backends[0] == "py"
        assert backends == (
            ("py", "c") if _kernels.compiled_available else ("py",)
        )


# The tree under test, wherever it is checked out.
_SRC = Path(__file__).resolve().parents[2] / "src"


class TestImportTimeSelection:
    """End-to-end: the env var steers a fresh interpreter's import."""

    def _import_kernels(self, env_value, code, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        env.pop(ENV_FLAG, None)
        if env_value is not None:
            env[ENV_FLAG] = env_value
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def _kernels_backend(self, env_value: str | None) -> str:
        out = self._import_kernels(
            env_value, "from repro._kernels import backend; print(backend)"
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_py_env_forces_pure_python(self):
        assert self._kernels_backend("py") == "py"

    def test_default_is_auto(self):
        expected = "c" if _kernels.compiled_available else "py"
        assert self._kernels_backend(None) == expected

    def test_unknown_value_raises_runtime_warning(self):
        out = self._import_kernels("fancy", "import repro._kernels")
        assert out.returncode != 0
        assert "fancy" in out.stderr

    def test_subprocess_imports_this_tree_from_any_cwd(self, tmp_path):
        out = self._import_kernels(
            "py", "import repro._kernels as k; print(k.__file__)", tmp_path
        )
        assert out.returncode == 0, out.stderr
        assert Path(out.stdout.strip()).resolve() == Path(_kernels.__file__).resolve()


class TestVersionCommand:
    def test_reports_backend_and_availability(self, capsys):
        from repro.cli import main

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "repro " in out
        assert f"requested {ENV_FLAG}=" in out
        assert f"backend={_kernels.backend}" in out

    def test_double_dash_spelling(self, capsys):
        from repro.cli import main

        assert main(["--version"]) == 0
        assert "kernels:" in capsys.readouterr().out
