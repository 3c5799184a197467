"""``repro results`` — inspect and maintain persistent result stores.

::

    repro results list  runs.sqlite                 # per-scenario rollup
    repro results show  runs.sqlite fig08           # mean ± 95% CI table
    repro results show  runs.sqlite fig08 --metric bw_rejection_rate
    repro results export runs.sqlite --format csv -o trials.csv
    repro results export runs.sqlite --format jsonl --scenario fig08
    repro results merge merged.sqlite a.sqlite b.sqlite
    repro results gc    runs.sqlite                 # drop undecodable rows

``merge`` combines per-shard stores (see ``repro run --shard i/n``) by
copying rows verbatim; aggregating the merged store is bit-identical to
aggregating a single full-matrix run.  ``export`` writes one row per
stored trial (grid-point columns plus flattened payload metrics) for
pandas/R analysis.  ``gc`` reclaims rows no current codec can decode:
a stale codec version, a retired kind, or a corrupt payload.  Any
other verb that meets such a row prints ``error: ...`` to stderr and
exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError, ResultsError
from repro.results.aggregate import aggregate, samples_from_store
from repro.results.export import EXPORT_FORMATS, stream_export
from repro.results.present import (
    aggregate_chart,
    aggregate_table,
    store_summary_table,
)
from repro.results.store import ResultStore

__all__ = ["results_main"]


def _open_existing(path: str) -> ResultStore:
    if not Path(path).is_file():
        raise ResultsError(f"no results store at {path!r}")
    return ResultStore(path)


def _list(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        store_summary_table(store).show()
        print(f"{len(store)} rows total")
    return 0


def _show(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        samples = samples_from_store(store, scenario=args.scenario)
        if not samples:
            print(f"no stored results for scenario {args.scenario!r}")
            return 1
        aggregates = aggregate(
            samples, metric=args.metric, confidence=args.confidence
        )
        if not aggregates:
            print(f"no metric {args.metric!r} in scenario {args.scenario!r}")
            return 1
        seeds = max(agg.n for agg in aggregates)
        aggregate_table(
            aggregates,
            f"{args.scenario} — stored results across {seeds} seed(s) "
            f"({args.confidence:.0%} CI)",
        ).show()
        if args.metric is not None:
            chart = aggregate_chart(aggregates, args.metric)
            if chart:
                print(chart)
    return 0


def _export(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        # Count first: an empty filter must not create (or truncate) the
        # output file, and streaming can't know the total up front.
        count = store.count(scenario=args.scenario, kind=args.kind)
        if count == 0:
            # stdout is the data stream when no -o is given; diagnostics
            # go to stderr so piped consumers see an empty stream.
            print("no stored results match the filter", file=sys.stderr)
            return 1

        def rows():
            return store.iter_rows(scenario=args.scenario, kind=args.kind)

        if args.output is None or args.output == "-":
            # "-" is the conventional explicit-stdout spelling; both
            # paths emit exactly the bytes a file export would contain.
            stream_export(rows, args.format, sys.stdout)
        else:
            # utf-8 + no newline translation: equal stores must export
            # byte-identical files on every platform.  Rows stream from
            # SQLite straight to the handle — O(1) rows in memory.
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                stream_export(rows, args.format, out)
            print(f"wrote {count} rows to {args.output}")
    return 0


def _merge(args: argparse.Namespace) -> int:
    sources = [_open_existing(path) for path in args.sources]
    with ResultStore(args.dest) as dest:
        added = dest.merge_from(sources)
        total = len(dest)
    for source in sources:
        source.close()
    print(f"merged {added} new rows from {len(sources)} store(s); "
          f"{total} rows in {args.dest}")
    return 0


def _gc(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        removed = store.gc()
        remaining = len(store)
        freed = store.vacuum() if args.vacuum else None
    print(f"removed {removed} stale rows; {remaining} remain")
    if freed is not None:
        print(f"vacuum reclaimed {freed} bytes")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro results", description="inspect persistent result stores"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="per-scenario rollup")
    list_cmd.add_argument("store", help="path to a results store")
    list_cmd.set_defaults(handler=_list)

    show_cmd = commands.add_parser(
        "show", help="mean ± bootstrap CI across stored seeds"
    )
    show_cmd.add_argument("store", help="path to a results store")
    show_cmd.add_argument("scenario", help="scenario name, e.g. fig08")
    show_cmd.add_argument(
        "--metric", help="restrict to one metric (also renders its chart)"
    )
    show_cmd.add_argument(
        "--confidence", type=float, default=0.95,
        help="CI confidence level (default 0.95)",
    )
    show_cmd.set_defaults(handler=_show)

    export_cmd = commands.add_parser(
        "export", help="one row per stored trial, CSV or JSON-lines"
    )
    export_cmd.add_argument("store", help="path to a results store")
    export_cmd.add_argument(
        "--format", choices=EXPORT_FORMATS, default="csv",
        help="output format (default csv)",
    )
    export_cmd.add_argument(
        "--scenario", help="restrict to one scenario, e.g. fig08"
    )
    export_cmd.add_argument("--kind", help="restrict to one trial kind")
    export_cmd.add_argument(
        "-o", "--output",
        help="destination file, or '-' for stdout (the default)",
    )
    export_cmd.set_defaults(handler=_export)

    merge_cmd = commands.add_parser(
        "merge", help="combine per-shard stores into one"
    )
    merge_cmd.add_argument("dest", help="destination store (created if absent)")
    merge_cmd.add_argument("sources", nargs="+", help="source stores")
    merge_cmd.set_defaults(handler=_merge)

    gc_cmd = commands.add_parser(
        "gc", help="drop rows no current codec can decode"
    )
    gc_cmd.add_argument("store", help="path to a results store")
    gc_cmd.add_argument(
        "--vacuum",
        action="store_true",
        help="also rebuild the file so freed pages return to the filesystem",
    )
    gc_cmd.set_defaults(handler=_gc)

    return parser


def results_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
