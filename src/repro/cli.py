"""Command-line entry point for the scenario engine.

::

    repro list                       # registered scenarios
    repro run fig08 --jobs 4         # run one scenario in parallel
    repro run fig07 --seeds 0,1,2    # grid overrides
    repro run fig08 --store runs.sqlite      # persistent + resumable
    repro run fig08 --store a.sqlite --shard 0/2   # this machine's half
    repro run fig08 --progress json  # machine-readable heartbeats
    repro run fig08 --telemetry --store runs.sqlite  # persist obs data
    repro results list runs.sqlite   # inspect / aggregate stored runs
    repro trace export --store runs.sqlite -o trace.json  # Chrome trace
    repro run table1 --workload hpcloud --store runs.sqlite  # own flags
    repro profile fig08 --trials 2 --pods 1  # cProfile + obs counters
    repro version                    # package + kernel backend diagnostics
    repro -v run fig08               # INFO logging (-vv DEBUG, -q errors)
    repro fig08 --pods 1             # spells "repro run fig08 --pods 1"

``run`` is the one way to launch an experiment.  It looks the scenario
up first — the name is the first argument — and builds its parser for
it: the grid overrides the scenario's kind consumes (``--seeds``,
``--loads``, ``--bmax``, ``--placers``, ``--pods``, ``--arrivals``; one
the kind would ignore is refused, not dropped) plus the options the
scenario's registry entry declares (``repro run table1 --workload
hpcloud``, ``repro run service --cohort 256``; ``repro run <name> -h``
lists them).  ``--jobs N`` executes the trial matrix over N worker
processes (``--jobs 0`` = one per CPU; default: ``os.cpu_count()``
capped at 8, serial for wall-clock kinds).  ``--store PATH`` makes the
run persistent: already-computed trials are served from the store and
fresh ones are recorded as they finish, so an interrupted run resumes.
``--shard i/n`` runs one deterministic stride of the matrix; combine
per-shard stores with ``repro results merge``.  ``repro <name> ...`` is
nothing but a spelling of ``repro run <name> ...``; there is no
``--seed`` flag (argparse reads it as the prefix of ``--seeds`` it is).

Tables go to stdout, diagnostics (``error: ...``) to stderr; exit code 2
is a usage error (unknown scenario or flag), 1 a failed run.

Observability: leading ``-v``/``-q`` flags (before the subcommand)
configure stdlib logging for the ``repro.*`` hierarchy.  ``run`` takes
``--progress {live,json,off}`` (default: live on a TTY, off otherwise)
and ``--telemetry`` (enable span/counter instrumentation; persisted as
``telemetry`` rows when ``--store`` is given).  ``repro trace export``
turns stored telemetry into Chrome-trace JSON; ``repro profile``
cProfiles a scenario's trials in-process.  See :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import Engine, Scenario, Variant, default_jobs, kind_axes, registry
from repro.errors import EngineError, ReproError

__all__ = ["build_scenario", "fail", "main", "parse_scenario_args"]


def _list_scenarios() -> int:
    print("usage: repro run <scenario> [--jobs N] [--seeds 0,1,..] [options]")
    print("       repro run <scenario> -h   # the flags that scenario takes")
    print("\nregistered scenarios:")
    for entry in registry.entries():
        scenario = entry.scenario
        aliases = f" (alias: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {scenario.name:<10} {scenario.title}{aliases}")
    return 0


def _version() -> int:
    """``repro version`` — package, interpreter, and kernel diagnostics.

    The kernel lines answer the first question a surprising benchmark
    result raises: which backend actually ran, and why (requested value
    vs what was available).
    """
    import os
    import platform

    import numpy

    from repro import __version__
    from repro._kernels import ENV_FLAG, available_backends, kernels_info
    from repro.obs import core as obs

    info = kernels_info()
    print(f"repro {__version__} (python {platform.python_version()})")
    print(f"numpy {numpy.__version__}")
    print(
        f"kernels: backend={info['backend']} "
        f"(requested {ENV_FLAG}={info['requested']}, "
        f"available: {', '.join(available_backends())})"
    )
    if info["stale"] is not None:
        print(f"kernels: {info['stale']}")
    # Environment toggles, as set vs unset: the second question a
    # surprising run raises is which switches it inherited.
    kernels_env = os.environ.get(ENV_FLAG)
    obs_env = os.environ.get(obs.ENV_FLAG)
    print(
        f"env: {ENV_FLAG}="
        f"{kernels_env if kernels_env is not None else '(unset)'} "
        f"{obs.ENV_FLAG}={obs_env if obs_env is not None else '(unset)'} "
        f"(obs {'enabled' if obs.enabled() else 'disabled'})"
    )
    return 0


# The generic grid flags: (flag, the Scenario axis it overrides — also
# its argparse dest —, type, help).  A scenario's kind consumes a subset
# (``kind_axes``); the rest are hidden from its --help and refused.
_AXIS_FLAGS = (
    ("--seeds", "seeds", registry.int_list, "seed grid, e.g. 0,1,2"),
    ("--loads", "loads", registry.float_list, "load grid, e.g. 0.5,0.9"),
    ("--bmax", "bmaxes", registry.float_list, "B_max grid, e.g. 400,800"),
    (
        "--placers",
        "placers",
        registry.str_list,
        "placer variants, e.g. cm,ovoc,secondnet",
    ),
    ("--pods", "pods", int, "datacenter pods"),
    ("--arrivals", "arrivals", int, "tenant arrivals per trial"),
)


def parse_scenario_args(
    parser: argparse.ArgumentParser, argv: list[str]
) -> tuple[registry.RegisteredScenario, argparse.Namespace]:
    """Parse ``<scenario> [flags]`` for ``repro run`` and ``repro profile``.

    ``parser`` arrives with the subcommand's own flags; the scenario is
    looked up first — it is the first argument — so the parser can offer
    the grid axes its kind consumes plus the options its registry entry
    declares.  Raises :class:`EngineError` for a usage error: an unknown
    scenario, or a grid flag the kind would silently ignore.
    """
    parser.add_argument("name", help="scenario name or alias (see 'repro list')")
    entry = None
    ignored_axes: set[str] = set()
    if argv and not argv[0].startswith("-"):
        entry = registry.get(argv[0])
        ignored_axes = {axis for _, axis, _, _ in _AXIS_FLAGS} - kind_axes(
            entry.scenario.kind
        )
    grid = parser.add_argument_group("grid overrides")
    for flag, axis, type_, help_ in _AXIS_FLAGS:
        if axis in ignored_axes:
            help_ = argparse.SUPPRESS  # still parsed, to be refused below
        grid.add_argument(flag, dest=axis, type=type_, help=help_)
    if entry is not None and entry.options:
        own = parser.add_argument_group(f"{entry.name} options")
        for option in entry.options:
            own.add_argument(option.flag, type=option.type, help=option.help)
    args = parser.parse_args(argv)
    if entry is None:
        raise EngineError(
            f"the scenario comes first: {parser.prog} <scenario> [flags]"
        )
    ignored = [
        flag
        for flag, axis, _, _ in _AXIS_FLAGS
        if axis in ignored_axes and getattr(args, axis) is not None
    ]
    if ignored:
        raise EngineError(
            f"{', '.join(ignored)} would have no effect on "
            f"{entry.name!r} (kind {entry.scenario.kind!r})"
        )
    return entry, args


def build_scenario(
    entry: registry.RegisteredScenario, args: argparse.Namespace
) -> Scenario:
    """The registered scenario with the parsed overrides applied."""
    variants = None
    if args.placers:
        variants = tuple(Variant(name) for name in args.placers)
    scenario = entry.scenario.override(
        seeds=args.seeds,
        loads=args.loads,
        bmaxes=args.bmaxes,
        variants=variants,
        pods=args.pods,
        arrivals=args.arrivals,
    )
    for option in entry.options:
        value = getattr(args, option.dest)
        if value is not None:
            scenario = option.apply(scenario, value)
    return scenario


def fail(error: object, code: int) -> int:
    """Diagnostics go to stderr: stdout is the table, and gets redirected."""
    print(f"error: {error}", file=sys.stderr)
    return code


def _run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro run", description="run one registered scenario"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = one per CPU; default: cpu_count capped "
        "at 8, serial for wall-clock kinds)",
    )
    parser.add_argument(
        "--store",
        help="results store path: skip cached trials, record fresh ones",
    )
    parser.add_argument(
        "--shard",
        help="run one stride i/n of the trial matrix (e.g. 0/2); "
        "requires --store",
    )
    parser.add_argument(
        "--progress",
        choices=("live", "json", "off"),
        default=None,
        help="progress reporting: live stderr line, JSON heartbeats, or "
        "off (default: live when stderr is a TTY, off otherwise)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable span/counter instrumentation; per-trial telemetry "
        "rows are persisted when --store is given",
    )
    try:
        entry, args = parse_scenario_args(parser, argv)
    except EngineError as error:
        return fail(error, 2)
    if args.shard is not None and args.store is None:
        return fail(
            "--shard needs --store (a shard's results must be persisted "
            "to be merged)",
            2,
        )
    store = shard = None
    try:
        scenario = build_scenario(entry, args)
        jobs = args.jobs if args.jobs is not None else default_jobs(scenario.kind)
        if args.store is not None:
            from repro.results import ResultStore, parse_shard

            store = ResultStore(args.store)
            if args.shard is not None:
                shard = parse_shard(args.shard)
        progress = None
        mode = args.progress
        if mode is None:
            # Default: a human watching a terminal gets the live line;
            # redirected stderr (CI logs, pipes) stays clean.
            mode = "live" if sys.stderr.isatty() else "off"
        if mode != "off":
            from repro.obs import ProgressReporter

            progress = ProgressReporter(mode)
        if args.telemetry:
            from repro.obs import core as obs

            obs.enable()  # env-backed, so spawn workers inherit it
            if store is None:
                import logging

                logging.getLogger("repro.cli").info(
                    "--telemetry without --store: traces are collected "
                    "but not persisted"
                )
        result = Engine(n_jobs=jobs).run(
            scenario, store=store, shard=shard, progress=progress
        )
        entry.present(result)
    except ReproError as error:
        return fail(error, 1)
    finally:
        if store is not None:
            store.close()
    trials = "trial" if len(result) == 1 else "trials"
    cached = f", {result.cache_hits} cached" if args.store is not None else ""
    print(
        f"[{scenario.name}] {len(result)} {trials} in {result.elapsed:.2f}s "
        f"(n_jobs={result.n_jobs}{cached})"
    )
    return 0


def _strip_verbosity(argv: list[str]) -> tuple[list[str], int]:
    """Consume leading ``-v``/``-q`` flags (before the subcommand).

    Only the leading position is global — ``repro run fig08 -v`` is left
    for the subcommand parser to reject.
    """
    verbosity = 0
    while argv:
        flag = argv[0]
        if flag in ("-v", "--verbose"):
            verbosity += 1
        elif flag in ("-q", "--quiet"):
            verbosity -= 1
        elif flag.startswith("-v") and set(flag[1:]) == {"v"}:
            verbosity += len(flag) - 1  # -vv, -vvv
        else:
            break
        argv = argv[1:]
    return argv, verbosity


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, verbosity = _strip_verbosity(argv)
    from repro.obs import setup_logging

    setup_logging(verbosity)
    try:
        if not argv or argv[0] in ("-h", "--help", "list"):
            return _list_scenarios()
        if argv[0] in ("version", "--version"):
            return _version()
        if argv[0] == "run":
            return _run(argv[1:])
        if argv[0] == "results":
            from repro.results.cli import results_main

            return results_main(argv[1:])
        if argv[0] == "trace":
            from repro.obs.trace import trace_main

            return trace_main(argv[1:])
        if argv[0] == "profile":
            from repro.obs.profile import profile_main

            return profile_main(argv[1:])
        return _run(argv)  # repro <name> ... == repro run <name> ...
    except BrokenPipeError:
        # Piped into head/less that exited: not an error.  Detach stdout
        # so the interpreter's shutdown flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
