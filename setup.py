"""Packaging for the CloudMirror/TAG reproduction (pip-installable)."""

import os
import re
from pathlib import Path

from setuptools import Extension, find_packages, setup

# Single-source the version from the package itself.
_HERE = Path(__file__).parent
VERSION = re.search(
    r'^__version__ = "(.+?)"', (_HERE / "src" / "repro" / "__init__.py").read_text(), re.M
).group(1)
README = _HERE / "README.md"

# The compiled placement kernels are strictly opt-in: a plain install is
# pure Python everywhere, and `REPRO_BUILD_EXT=1 pip install -e .` builds
# the accelerated backend.  -ffp-contract=off keeps the C arithmetic
# bit-exact with CPython (no FMA contraction of the multiply-adds).
if os.environ.get("REPRO_BUILD_EXT") == "1":
    EXT_MODULES = [
        Extension(
            "repro._kernels._ckernels",
            sources=["src/repro/_kernels/_ckernels.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ]
else:
    EXT_MODULES = []

setup(
    name="repro-cloudmirror",
    version=VERSION,
    description=(
        "Reproduction of Lee et al., 'Application-Driven Bandwidth "
        "Guarantees in Datacenters' (SIGCOMM 2014): TAG abstraction, "
        "CloudMirror placement, baselines, inference, enforcement, and a "
        "parallel scenario engine for the full evaluation."
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "coverage"],
    },
    ext_modules=EXT_MODULES,
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ]
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: System :: Networking",
        "Topic :: Scientific/Engineering",
    ],
)
