"""PEP 562 lazy exports: a package imports a module when one of its names is used.

A package ``__init__`` keeps its ``__all__`` and replaces its import block
with a table of which module defines each export::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.tag": ("Component", "Tag", "TagEdge"),
    })

``from repro.core import Tag`` then runs ``repro.core.tag`` on that line,
not when ``repro.core`` is imported, and caches ``Tag`` in the package so
the next lookup is a plain attribute.  A name in ``__all__`` that no
module in the table defines is a submodule, imported as one.

A name that is also the name of its defining submodule (``ami`` of
``repro.inference.ami``) is bound at once: importing that submodule later
would otherwise set the *module* on the package under the export's name.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose exports
    ``table`` maps from their defining module: ``{module: names}``."""
    namespace = sys.modules[package].__dict__
    defined_in = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        # __import__, not importlib.import_module: only the builtin import
        # path is what ``python -X importtime`` reports.
        module = defined_in.get(name)
        if module is not None:
            __import__(module)
            value = getattr(sys.modules[module], name)
        elif name in namespace["__all__"]:
            __import__(f"{package}.{name}")
            value = sys.modules[f"{package}.{name}"]
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | set(namespace["__all__"]))

    for name, module in defined_in.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
