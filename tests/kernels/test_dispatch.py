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
import types
from pathlib import Path

import pytest

from repro import _kernels
from repro._kernels import (
    _KERNEL_NAMES,
    ENV_FLAG,
    _select_backend,
    _stale_reason,
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


# A fresh interpreter whose `_ckernels` is a stand-in lacking the last
# kernel in `_KERNEL_NAMES` — what an .so built before that kernel was
# added looks like.  No rebuild needed: the import system finds the
# stand-in in sys.modules.
_STALE_PRELUDE = """
import sys, types
names = {names!r}
stand_in = types.ModuleType("repro._kernels._ckernels")
for name in names[:-1]:
    setattr(stand_in, name, lambda *args: None)
sys.modules[stand_in.__name__] = stand_in
"""


class TestStaleExtension:
    """An extension lacking a kernel counts as not built (never a bare
    AttributeError out of the first import of the kernels, which every
    ledger and placer makes)."""

    def test_stale_reason_names_what_is_missing(self):
        whole = types.SimpleNamespace(**dict.fromkeys(_KERNEL_NAMES, len))
        assert _stale_reason(whole) is None
        assert _stale_reason(None) is None
        del whole.temporal_adjust, whole.voc_requirement
        reason = _stale_reason(whole)
        assert "temporal_adjust, voc_requirement" in reason
        assert "ledger_adjust" not in reason and "build_ext" in reason

    def test_auto_and_c_warn_and_fall_back_but_py_is_silent(self):
        for requested in ("auto", "c"):
            backend, warning = _select_backend(requested, False, "lacks eq1")
            assert backend == "py" and "lacks eq1" in warning
        assert _select_backend("py", False, "lacks eq1") == ("py", None)

    def _run(self, env_value, code, *flags):
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        env[ENV_FLAG] = env_value
        prelude = _STALE_PRELUDE.format(names=_KERNEL_NAMES)
        return subprocess.run(
            [sys.executable, *flags, "-c", prelude + code],
            capture_output=True,
            text=True,
            env=env,
        )

    @pytest.mark.parametrize("requested", ["auto", "c"])
    def test_import_repro_survives_and_runs_pure_python(self, requested):
        out = self._run(
            requested,
            "import repro.topology.ledger\n"
            "from repro import _kernels\n"
            "print(_kernels.backend, _kernels.available_backends())\n"
            "try:\n"
            "    _kernels.use_backend('c')\n"
            "except RuntimeError as error:\n"
            "    print('RuntimeError:', error)\n",
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "py ('py',)",
            "RuntimeError: compiled kernels are not built (REPRO_BUILD_EXT=1 "
            "pip install -e . builds them)",
        ]
        assert "RuntimeWarning" in out.stderr
        assert f"lacks {_KERNEL_NAMES[-1]}" in out.stderr

    def test_the_warning_is_a_runtime_warning(self):
        out = self._run(
            "auto", "import repro.topology.ledger", "-W", "error::RuntimeWarning"
        )
        assert out.returncode != 0
        assert f"lacks {_KERNEL_NAMES[-1]}" in out.stderr

    def test_forced_py_never_mentions_it(self):
        out = self._run(
            "py", "import repro.topology.ledger", "-W", "error::RuntimeWarning"
        )
        assert out.returncode == 0, out.stderr

    def test_version_shows_why(self):
        out = self._run(
            "py", "from repro.cli import main\nraise SystemExit(main(['version']))"
        )
        assert out.returncode == 0, out.stderr
        assert "available: py)" in out.stdout
        assert (
            f"kernels: the compiled extension is stale: it lacks "
            f"{_KERNEL_NAMES[-1]}" in out.stdout
        )


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
