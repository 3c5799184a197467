"""``repro profile`` — cProfile one scenario's trials + obs counters.

Optimising a loop starts from where interpreted time actually goes;
this command answers that with evidence instead of guesses: it runs a (capped) slice of a
scenario's trial matrix serially under :mod:`cProfile`, prints the
top-N ``pstats`` table, and follows it with a flat summary of the obs
hot-path counters collected during the same run — so "N seconds in
``adjust_uplink_id``" sits next to "M journal ops" and the per-op cost
falls out by division.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro.obs import core

__all__ = ["profile_main"]

SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "pcalls", "time")


def profile_main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="run scenario trials under cProfile and print the "
        "top-N pstats table plus the obs hot-path counters",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="number of trials from the grid to profile (0 = all; default 1)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="pstats rows to print (default 25)",
    )
    parser.add_argument(
        "--sort",
        choices=SORT_KEYS,
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "-o",
        "--output",
        help="also dump the raw profile to this path (pstats binary "
        "format, loadable with snakeviz / pstats.Stats)",
    )
    parser.add_argument(
        "--store",
        help="persist the profiled trial results and their telemetry to "
        "this results store (same rows as 'repro run --store "
        "--telemetry'; combines with -o)",
    )
    # The scenario, its grid overrides and its own options parse and
    # apply exactly as for 'repro run' — same two functions.
    from repro.cli import build_scenario, fail, parse_scenario_args
    from repro.engine.runners import execute_trial
    from repro.errors import EngineError, ReproError

    try:
        entry, args = parse_scenario_args(parser, argv)
    except EngineError as error:
        return fail(error, 2)
    try:
        scenario = build_scenario(entry, args)
        trials = scenario.expand()
    except ReproError as error:
        return fail(error, 1)
    if args.trials > 0:
        trials = trials[: args.trials]
    print(
        f"profiling {len(trials)} {scenario.kind!r} trial(s) of "
        f"{scenario.name!r} (serial, instrumented)",
        file=sys.stderr,
    )

    profiler = cProfile.Profile()
    results = []
    # Counters on for the duration so the hot-path tallies line up with
    # the profile; per-trial TraceRecorders inside execute_trial snapshot
    # deltas, the scope's dict keeps the run-wide totals we print below.
    with core.enabled_scope() as counters:
        profiler.enable()
        try:
            for trial in trials:
                results.append(execute_trial(trial))
        finally:
            profiler.disable()
        totals = dict(counters)

    if args.store:
        # Recording happens after profiler.disable() so store I/O never
        # pollutes the pstats table; the recorder is the engine's own
        # hook, so the rows (trial + telemetry) match 'repro run
        # --store --telemetry' exactly.
        from repro.engine.engine import Engine
        from repro.results import ResultStore

        with ResultStore(args.store) as store:
            record = Engine._make_recorder(store)
            for result in results:
                record(result)
        print(
            f"recorded {len(results)} trial(s) to {args.store}",
            file=sys.stderr,
        )
    if args.output:
        profiler.dump_stats(args.output)
        print(f"wrote raw profile to {args.output}", file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)

    print("obs counters:")
    if not totals:
        print("  (none hit)")
    else:
        width = max(len(name) for name in totals)
        for name in sorted(totals):
            print(f"  {name:<{width}}  {totals[name]:>12,}")
    return 0
