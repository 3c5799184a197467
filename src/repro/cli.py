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
    repro profile fig08 --trials 2   # cProfile + obs counter summary
    repro version                    # package + kernel backend diagnostics
    repro -v run fig08               # INFO logging (-vv DEBUG, -q errors)
    repro fig08 --pods 1             # shorthand for "run fig08 --pods 1"

``run`` accepts grid overrides (``--seeds``, ``--loads``, ``--bmax``,
``--placers``, ``--pods``, ``--arrivals``) that rewrite the registered
scenario's axes — plus ``--load-profile {poisson,diurnal}`` for the
service kind's arrival shape — plus ``--jobs N`` to execute the trial matrix over N
worker processes (``--jobs 0`` = one per CPU; default: ``os.cpu_count()``
capped at 8, serial for wall-clock kinds).  ``--store PATH`` makes the
run persistent: already-computed trials are served from the store and
fresh ones are recorded as they finish, so an interrupted run resumes.
``--shard i/n`` runs one deterministic stride of the matrix; combine
per-shard stores with ``repro results merge``.  The legacy
``repro-experiment <name>`` spelling keeps working via the shorthand.

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

__all__ = ["main"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part != "")


def _list_scenarios() -> int:
    print("usage: repro run <scenario> [--jobs N] [--seeds 0,1,..] [options]")
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


def _build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run", description="run one registered scenario"
    )
    parser.add_argument("name", help="scenario name or alias (see 'repro list')")
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
    parser.add_argument("--seeds", type=_int_list, help="seed grid, e.g. 0,1,2")
    parser.add_argument("--loads", type=_float_list, help="load grid, e.g. 0.5,0.9")
    parser.add_argument("--bmax", type=_float_list, help="B_max grid, e.g. 400,800")
    parser.add_argument(
        "--placers", type=_str_list, help="placer variants, e.g. cm,ovoc,secondnet"
    )
    parser.add_argument("--pods", type=int, help="datacenter pods")
    parser.add_argument("--arrivals", type=int, help="tenant arrivals per trial")
    parser.add_argument(
        "--load-profile",
        choices=("poisson", "diurnal"),
        default=None,
        help="arrival shape for service-kind scenarios: flat Poisson "
        "rate or a cyclic day/night profile",
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
    return parser


# CLI flag -> the scenario grid axis it overrides.
_FLAG_AXES = (
    ("seeds", "seeds"),
    ("loads", "loads"),
    ("bmax", "bmaxes"),
    ("placers", "placers"),
    ("pods", "pods"),
    ("arrivals", "arrivals"),
)


def _unsupported_flags(scenario: Scenario, args: argparse.Namespace) -> list[str]:
    """Overrides the scenario's kind would silently ignore."""
    supported = kind_axes(scenario.kind)
    flags = [
        f"--{flag}"
        for flag, axis in _FLAG_AXES
        if getattr(args, flag) is not None and axis not in supported
    ]
    # Not a grid axis: the arrival shape is a service-runner param, so
    # it rides on params rather than _FLAG_AXES.
    if args.load_profile is not None and scenario.kind != "service":
        flags.append("--load-profile")
    return flags


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    variants = None
    if args.placers:
        variants = tuple(Variant(name) for name in args.placers)
    params = None
    if args.load_profile is not None:
        merged = dict(scenario.params)
        merged["load_profile"] = args.load_profile
        params = tuple(sorted(merged.items()))
    return scenario.override(
        seeds=args.seeds,
        loads=args.loads,
        bmaxes=args.bmax,
        variants=variants,
        pods=args.pods,
        arrivals=args.arrivals,
        params=params,
    )


def _run(argv: list[str]) -> int:
    args = _build_run_parser().parse_args(argv)
    try:
        entry = registry.get(args.name)
    except EngineError as error:
        print(error)
        return 2
    unsupported = _unsupported_flags(entry.scenario, args)
    if unsupported:
        print(
            f"error: {', '.join(unsupported)} would have no effect on "
            f"{entry.scenario.name!r} (kind {entry.scenario.kind!r})"
        )
        return 2
    if args.shard is not None and args.store is None:
        print("error: --shard needs --store (a shard's results must be "
              "persisted to be merged)")
        return 2
    store = shard = None
    try:
        scenario = _apply_overrides(entry.scenario, args)
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
        print(f"error: {error}")
        return 1
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


def _shorthand(name: str, rest: list[str]) -> int:
    """``repro <name> [flags]``: the experiment's own CLI.

    Unlike ``repro run`` (the generic grid interface), this dispatches
    to the experiment module's ``main``, which understands its
    experiment-specific flags (``--workload``, ``--max-senders``, ...) —
    the legacy ``repro-experiment`` behaviour.
    """
    try:
        entry = registry.get(name)
    except EngineError as error:
        print(error)
        return 2
    if entry.cli is None:
        return _run([name, *rest])
    try:
        entry.cli(rest)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    return 0


def _strip_verbosity(argv: list[str]) -> tuple[list[str], int]:
    """Consume leading ``-v``/``-q`` flags (before the subcommand).

    Only the leading position is global — ``repro run fig08 -v`` is left
    for the subcommand parser to reject, so experiment CLIs that define
    their own ``-v`` keep working.
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
        return _shorthand(argv[0], argv[1:])
    except BrokenPipeError:
        # Piped into head/less that exited: not an error.  Detach stdout
        # so the interpreter's shutdown flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
