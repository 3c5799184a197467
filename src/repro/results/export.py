"""Export stored trial results to CSV or JSON-lines for external tools.

One output row per stored trial: the grid-point identity columns
(scenario, kind, variant, topology, load, B_max, seed, x, arrivals),
bookkeeping (fingerprint, codec version, original wall seconds), and the
payload flattened to its scalar metric series via the kind's codec
``metrics`` extractor — exactly the numbers the in-repo aggregation
layer averages, so a pandas/R analysis starts from the same series the
ASCII charts render.

Metric columns are the sorted union across the exported rows; a row
without a given metric leaves the cell empty (CSV) or omits the key
(JSONL).  Rows come out in the store's deterministic order, so equal
stores export byte-identical files.

The exporter *streams*: :func:`stream_export` writes each row the
moment it is flattened and never holds more than one row in memory, so
exporting a million-trial store costs O(1) row buffer.  JSONL is a
single pass; CSV needs the metric-name union before the header can be
written, so it makes two passes over the row iterator (names + count
first, rows second) — still O(1) rows held, at the price of reading the
store twice.  The obs gauge ``export.row_buffer_peak`` measures the
peak number of simultaneously-buffered flattened rows (the export test
pins it at 1).
"""

from __future__ import annotations

import csv
import json
from typing import Any, Callable, Iterator, TextIO

from repro.errors import ResultsError
from repro.obs import core as _obs
from repro.results.store import StoredRow

__all__ = ["EXPORT_FORMATS", "stream_export"]

EXPORT_FORMATS = ("csv", "jsonl")

_IDENTITY_COLUMNS = (
    "scenario",
    "kind",
    "variant",
    "topology",
    "load",
    "bmax",
    "seed",
    "x",
    "arrivals",
    "elapsed",
    "codec_version",
    "fingerprint",
)


def _flatten(row: StoredRow) -> dict[str, Any]:
    flat: dict[str, Any] = {
        "scenario": row.scenario,
        "kind": row.kind,
        "variant": row.variant,
        "topology": row.topology,
        "load": row.load,
        "bmax": row.bmax,
        "seed": row.seed,
        "x": row.x if isinstance(row.x, (int, float, str)) else json.dumps(row.x),
        "arrivals": row.arrivals,
        "elapsed": row.elapsed,
        "codec_version": row.codec_version,
        "fingerprint": row.fingerprint,
    }
    return flat


def _flat_with_metrics(row: StoredRow) -> dict[str, Any]:
    flat = _flatten(row)
    for name, value in row.metrics().items():
        flat[f"metric_{name}"] = value
    return flat


def _note_row(c: Any) -> None:
    """Instrument one flattened-row lifetime (always exactly one live)."""
    c.bump("export.rows")
    if c.get("export.row_buffer_peak", 0) < 1:
        c["export.row_buffer_peak"] = 1


def stream_export(
    make_rows: Callable[[], Iterator[StoredRow]],
    fmt: str,
    out: TextIO,
) -> int:
    """Write rows to ``out`` incrementally; returns the row count.

    ``make_rows`` is a zero-argument callable returning a *fresh* row
    iterator — called once for JSONL and twice for CSV (the header needs
    the metric-name union before any row can be written).  Each row is
    flattened, written, and dropped: peak row buffer is 1 regardless of
    store size.  Output bytes are identical to the pre-streaming
    exporter's.
    """
    if fmt not in EXPORT_FORMATS:
        raise ResultsError(
            f"unknown export format {fmt!r}; options: {EXPORT_FORMATS}"
        )
    c = _obs.counters
    count = 0
    if fmt == "jsonl":
        for row in make_rows():
            flat = _flat_with_metrics(row)
            if c is not None:
                _note_row(c)
            out.write(json.dumps(flat, sort_keys=True, separators=(",", ":")))
            out.write("\n")
            count += 1
        return count
    metric_names: set[str] = set()
    for row in make_rows():
        metric_names.update(row.metrics())
        count += 1
    metric_columns = tuple(f"metric_{name}" for name in sorted(metric_names))
    writer = csv.DictWriter(
        out,
        fieldnames=_IDENTITY_COLUMNS + metric_columns,
        restval="",
        lineterminator="\n",
    )
    writer.writeheader()
    written = 0
    for row in make_rows():
        flat = _flat_with_metrics(row)
        if c is not None:
            _note_row(c)
        writer.writerow(flat)
        written += 1
    if written != count:
        raise ResultsError(
            f"store changed during export: pass 1 saw {count} rows, "
            f"pass 2 saw {written}"
        )
    return count
