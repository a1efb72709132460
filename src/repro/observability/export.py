"""Exporters: JSONL trace, JSON metrics, summary table, slow-request log.

Two render paths over one :class:`MetricsRegistry` snapshot:

- :func:`render_metrics_summary` — the human-readable table the CLI
  prints with ``--summary``;
- :func:`write_metrics` — the JSON snapshot (``--metrics-out``).

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
