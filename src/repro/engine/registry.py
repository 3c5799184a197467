"""Scenario registry: name -> (scenario, presenter, options) for the CLI.

Experiment modules call :func:`register` at import time; the CLI (and
anything else that wants "every experiment in the repo") calls
:func:`load_all` to trigger those imports, then looks scenarios up by
canonical name or alias.  Presenters render a finished
:class:`~repro.engine.scenario.ScenarioResult` to stdout — the engine
itself never prints.  A scenario's own flags (``--workload``,
``--max-senders``, ...) are :class:`ScenarioOption` rows on its entry:
``repro run <name>`` adds them to its one parser, so they combine with
``--store``/``--shard``/``--seeds`` like any grid axis.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.engine.scenario import Scenario, ScenarioResult
from repro.errors import EngineError

__all__ = [
    "RegisteredScenario",
    "ScenarioOption",
    "entries",
    "float_list",
    "get",
    "int_list",
    "load_all",
    "names",
    "one_of",
    "param_option",
    "register",
    "str_list",
]

Presenter = Callable[[ScenarioResult], None]


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part != "")


def one_of(choices: Sequence[str]) -> Callable[[str], str]:
    """An option ``type`` accepting exactly the strings in ``choices``."""

    def choice(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"{value!r} is not one of {', '.join(choices)}"
            )
        return value

    return choice


@dataclass(frozen=True)
class ScenarioOption:
    """One scenario-specific flag and how it rewrites the scenario.

    ``type`` parses the flag's text (argparse semantics: raise
    ``ValueError`` or ``ArgumentTypeError`` to refuse it); when the flag
    is given, ``apply(scenario, value)`` returns the rewritten scenario
    — when it is not, the registered scenario stands as declared.
    """

    flag: str
    type: Callable[[str], Any]
    help: str
    apply: Callable[[Scenario, Any], Scenario]

    @property
    def dest(self) -> str:
        return _dest(self.flag)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def param_option(
    flag: str, type: Callable[[str], Any], help: str
) -> ScenarioOption:
    """An option overwriting the ``Scenario.params`` entry named like it.

    ``--max-vms`` sets ``max_vms``; the scenario must declare the key.
    """
    key = _dest(flag)

    def apply(scenario: Scenario, value: Any) -> Scenario:
        return scenario.override(
            params=tuple(
                (name, value if name == key else old)
                for name, old in scenario.params
            )
        )

    return ScenarioOption(flag, type, help, apply)


@dataclass(frozen=True)
class RegisteredScenario:
    """One registry row: the default scenario, its renderer, its flags."""

    scenario: Scenario
    present: Presenter
    aliases: tuple[str, ...] = ()
    options: tuple[ScenarioOption, ...] = ()

    @property
    def name(self) -> str:
        return self.scenario.name


_REGISTRY: dict[str, RegisteredScenario] = {}
_ALIASES: dict[str, str] = {}


def register(
    scenario: Scenario,
    present: Presenter,
    *,
    aliases: tuple[str, ...] = (),
    options: tuple[ScenarioOption, ...] = (),
) -> RegisteredScenario:
    """Register ``scenario`` under its canonical name (plus aliases).

    Re-registering the same name replaces the entry (supports module
    reloads); an alias may not shadow a different scenario's name.
    """
    entry = RegisteredScenario(scenario, present, aliases, options)
    if _ALIASES.get(scenario.name, scenario.name) != scenario.name:
        raise EngineError(
            f"scenario name {scenario.name!r} collides with an alias of "
            f"{_ALIASES[scenario.name]!r}"
        )
    _REGISTRY[scenario.name] = entry
    for alias in aliases:
        existing = _ALIASES.get(alias)
        if alias in _REGISTRY or (existing is not None and existing != scenario.name):
            raise EngineError(f"alias {alias!r} collides with an existing scenario")
        _ALIASES[alias] = scenario.name
    return entry


def get(name: str) -> RegisteredScenario:
    """Look up a scenario by canonical name or alias."""
    load_all()
    canonical = _ALIASES.get(name, name)
    entry = _REGISTRY.get(canonical)
    if entry is None:
        raise EngineError(
            f"unknown scenario {name!r}; registered: {', '.join(names())}"
        )
    return entry


def names() -> list[str]:
    """Canonical scenario names in registration order."""
    load_all()
    return list(_REGISTRY)


def entries() -> Iterator[RegisteredScenario]:
    load_all()
    return iter(list(_REGISTRY.values()))


def load_all() -> None:
    """Import the experiment modules so their scenarios register."""
    import repro.experiments  # noqa: F401  (import-time registration)
