"""Packaging for the CloudMirror/TAG reproduction (pip-installable)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package itself.
_HERE = Path(__file__).parent
VERSION = re.search(
    r'^__version__ = "(.+?)"', (_HERE / "src" / "repro" / "__init__.py").read_text(), re.M
).group(1)
README = _HERE / "README.md"

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
        "test": ["pytest", "hypothesis"],
        "dev": ["pytest", "hypothesis", "coverage"],
    },
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
