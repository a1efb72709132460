"""Exporters: JSONL trace, JSON metrics, summary table, slow-request log.

Two render paths over one :class:`MetricsRegistry` snapshot:

- :func:`render_metrics_summary` — the human-readable table the CLI
  prints with ``--summary``;
- :func:`write_metrics` — the JSON snapshot (``--metrics-out``).

The trace (``--trace``) reads back with :func:`load_trace`, and
:func:`render_flamegraph` turns its span tree into the text flamegraph
``impact-inline report TRACE.jsonl`` prints.

This module also owns the **slow-request/error log** schema: one JSON
object per line, appended by the service for every request slower than
its threshold and for every failed request (see
:func:`slow_request_record`).
"""

from __future__ import annotations

import json
import time

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer

#: Schema version stamped on every slow-request/error log record.
SLOW_LOG_SCHEMA_VERSION = 1


def write_trace(tracer: Tracer, path: str) -> None:
    """Write the full trace as JSONL, one record per line."""
    tracer.write(path)


def load_trace(path: str) -> list[dict]:
    """Read a ``--trace`` JSONL file back into its record list.

    Raises :class:`ValueError` naming the first line that is not a
    trace record (a JSON object with a ``type``).
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                record = None
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"line {number} is not a trace record")
            records.append(record)
    return records


def render_flamegraph(records: list[dict], width: int = 40) -> str:
    """A text flamegraph from a trace's span tree.

    Sibling spans with the same name are merged (seconds summed, counts
    kept), children indent under their parents, and each line carries a
    bar proportional to the root total, so the hot phase is visible at
    a glance without any tooling.
    """
    spans = [r for r in records if r.get("type") == "span"]
    if not spans:
        return "flamegraph: (no spans in trace)"
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    total = sum(span["seconds"] for span in children.get(None, [])) or 1.0

    lines: list[str] = []

    def emit(parents: list[int | None], depth: int) -> None:
        merged: dict[str, dict] = {}
        for parent in parents:
            for span in children.get(parent, []):
                entry = merged.setdefault(
                    span["name"], {"seconds": 0.0, "count": 0, "ids": []}
                )
                entry["seconds"] += span["seconds"]
                entry["count"] += 1
                entry["ids"].append(span["id"])
        for name, entry in sorted(
            merged.items(), key=lambda item: -item[1]["seconds"]
        ):
            bar = "#" * max(1, round(width * entry["seconds"] / total))
            label = f"{'  ' * depth}{name}"
            count = f" x{entry['count']}" if entry["count"] > 1 else ""
            lines.append(
                f"{label:<48} {entry['seconds']:>9.4f}s{count:<6} {bar}"
            )
            if depth < 16:
                emit(entry["ids"], depth + 1)

    emit([None], 0)
    return "\n".join(lines)


def write_metrics(metrics: MetricsRegistry, path: str) -> None:
    """Write the metrics snapshot as a JSON document."""
    metrics.write(path)


def render_metrics_summary(metrics: MetricsRegistry) -> str:
    """Human-readable summary of every counter and histogram."""
    snapshot = metrics.snapshot()
    rows: list[tuple[str, str, str]] = []
    for name, value in snapshot["counters"].items():
        rows.append((name, "counter", _number(value)))
    for name, stats in snapshot["histograms"].items():
        detail = (
            f"n={stats['count']} mean={_number(stats['mean'])}"
            f" min={_number(stats['min'])} max={_number(stats['max'])}"
        )
        if "p50" in stats:
            detail += (
                f" p50={_number(stats['p50'])} p90={_number(stats['p90'])}"
                f" p99={_number(stats['p99'])}"
            )
        rows.append((name, "histogram", detail))
    if not rows:
        return "metrics: (empty)"
    name_width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    lines = ["metrics:"]
    for name, kind, value in rows:
        lines.append(f"  {name:<{name_width}}  {kind:<{kind_width}}  {value}")
    return "\n".join(lines)


def _number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


# ----------------------------------------------------------------------
# the slow-request / error log (threshold-gated JSONL)


def slow_request_record(
    *,
    kind: str,
    op: str,
    seconds: float,
    trace_id: str | None = None,
    request_id: str | None = None,
    threshold: float | None = None,
    error: str | None = None,
    cache_hits: float = 0,
    cache_misses: float = 0,
    unix_time: float | None = None,
) -> dict:
    """One slow-request (``kind="slow"``) or error (``kind="error"``)
    log record in the stable v1 schema."""
    if kind not in ("slow", "error"):
        raise ValueError(f"kind must be 'slow' or 'error', got {kind!r}")
    record = {
        "schema": SLOW_LOG_SCHEMA_VERSION,
        "kind": kind,
        "unix_time": round(
            time.time() if unix_time is None else unix_time, 6
        ),
        "op": op,
        "seconds": round(seconds, 6),
        "trace_id": trace_id,
        "request_id": request_id,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }
    if threshold is not None:
        record["threshold"] = threshold
    if error is not None:
        record["error"] = error
    return record


def append_jsonl(path: str, record: dict) -> None:
    """Append one JSON object as a line (the slow-log write primitive)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
