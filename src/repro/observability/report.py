"""Performance-report rendering for bench records and comparisons.

Three output shapes over :mod:`repro.observability.bench` data:

- :func:`render_comparison_table` — an aligned terminal table of the
  classified deltas (regressions first);
- :func:`render_markdown_report` — a full performance report:
  verdict, regression/improvement tables, per-pass and per-phase
  wall-time attribution, cache hit rates, and the inline-audit reason
  rollup;
- :func:`render_flamegraph` — a text flamegraph built from a trace's
  JSONL span tree (the files ``--trace`` writes), siblings of the same
  name merged, bar widths proportional to root wall time.
"""

from __future__ import annotations

import json

from repro.observability.bench import BenchComparison, BenchRecord, MetricDelta


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def _relative(delta: MetricDelta) -> str:
    relative = delta.relative
    if relative == float("inf"):
        return "new"
    return f"{relative:+.1%}"


def _delta_rows(deltas: list[MetricDelta]) -> list[list[str]]:
    return [
        [
            delta.benchmark,
            delta.metric,
            _fmt(delta.baseline),
            _fmt(delta.current),
            _relative(delta),
            delta.status,
        ]
        for delta in deltas
    ]


_DELTA_HEADERS = ["benchmark", "metric", "baseline", "current", "delta", "status"]


def render_comparison_table(
    comparison: BenchComparison, show_ok: bool = False
) -> str:
    """Terminal rendering of a comparison: regressions first."""
    interesting = (
        comparison.regressions
        + comparison.time_regressions
        + comparison.improvements
        + [d for d in comparison.deltas if d.status in ("added", "removed")]
    )
    if show_ok:
        interesting = interesting + [
            delta for delta in comparison.deltas if delta.status == "ok"
        ]
    lines = [
        f"bench comparison: {comparison.verdict()}"
        f" ({len(comparison.regressions)} regressions,"
        f" {len(comparison.time_regressions)} time regressions,"
        f" {len(comparison.improvements)} improvements)"
    ]
    if comparison.missing_benchmarks:
        lines.append(
            "missing benchmarks: " + ", ".join(comparison.missing_benchmarks)
        )
    if interesting:
        lines.append(_table(_DELTA_HEADERS, _delta_rows(interesting)))
    else:
        lines.append("no metric moved; records are equivalent.")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# markdown / HTML


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _record_header_rows(
    baseline: BenchRecord, current: BenchRecord | None
) -> list[list[str]]:
    records = [("baseline", baseline)] + (
        [("current", current)] if current else []
    )
    out = []
    for label, record in records:
        out.append(
            [
                label,
                record.config_name,
                record.git_sha[:12],
                _fmt(record.wall_seconds),
                str(len(record.benchmarks)),
            ]
        )
    return out


def _pass_attribution_rows(record: BenchRecord) -> list[list[str]]:
    rows = []
    for name, stats in sorted(
        record.pass_seconds.items(),
        key=lambda item: item[1].get("seconds", 0.0),
        reverse=True,
    ):
        rows.append(
            [
                name,
                f"{stats.get('seconds', 0.0):.4f}",
                str(int(stats.get("invocations", 0))),
                str(int(stats.get("changes", 0))),
                f"{stats.get('p99', 0.0):.5f}",
            ]
        )
    return rows


def _phase_attribution_rows(record: BenchRecord) -> list[list[str]]:
    rows = []
    for name, stats in sorted(
        record.phase_seconds.items(),
        key=lambda item: item[1].get("seconds", 0.0),
        reverse=True,
    ):
        rows.append(
            [
                name,
                f"{stats.get('seconds', 0.0):.4f}",
                str(int(stats.get("count", 0))),
            ]
        )
    return rows


def render_markdown_report(
    comparison: BenchComparison, flame: str | None = None
) -> str:
    """A markdown performance report for a baseline/current comparison."""
    baseline, current = comparison.baseline, comparison.current
    parts = [
        "# Performance report",
        "",
        f"**Verdict: {comparison.verdict()}** — "
        f"{len(comparison.regressions)} regressions, "
        f"{len(comparison.time_regressions)} wall-time regressions "
        f"(tolerance {comparison.time_tolerance:.0%}), "
        f"{len(comparison.improvements)} improvements.",
        "",
        _markdown_table(
            ["record", "config", "git", "wall s", "benchmarks"],
            _record_header_rows(baseline, current),
        ),
    ]
    if comparison.missing_benchmarks:
        parts += [
            "",
            "**Missing benchmarks:** "
            + ", ".join(comparison.missing_benchmarks),
        ]
    if comparison.added_benchmarks:
        parts += [
            "",
            "**New benchmarks:** " + ", ".join(comparison.added_benchmarks),
        ]
    regressions = comparison.regressions + comparison.time_regressions
    if regressions:
        parts += [
            "",
            "## Regressions",
            "",
            _markdown_table(_DELTA_HEADERS, _delta_rows(regressions)),
        ]
    if comparison.improvements:
        parts += [
            "",
            "## Improvements",
            "",
            _markdown_table(
                _DELTA_HEADERS, _delta_rows(comparison.improvements)
            ),
        ]
    if current.pass_seconds:
        parts += [
            "",
            "## Per-pass time attribution (current)",
            "",
            _markdown_table(
                ["pass", "seconds", "invocations", "changes", "p99 s"],
                _pass_attribution_rows(current),
            ),
        ]
    if current.phase_seconds:
        parts += [
            "",
            "## Per-phase wall time (current)",
            "",
            _markdown_table(
                ["phase", "seconds", "spans"],
                _phase_attribution_rows(current),
            ),
        ]
    if current.cache:
        cache = current.cache
        parts += [
            "",
            "## Cache",
            "",
            f"hits {int(cache.get('hits', 0))}, misses"
            f" {int(cache.get('misses', 0))}, disk hits"
            f" {int(cache.get('disk_hits', 0))}, hit rate"
            f" {cache.get('hit_rate', 0.0):.1%}.",
        ]
    if current.audit_total:
        parts += [
            "",
            "## Inline-audit reason rollup (current)",
            "",
            _markdown_table(
                ["reason", "arcs"],
                [
                    [reason, str(count)]
                    for reason, count in sorted(
                        current.audit_total.items(),
                        key=lambda item: -item[1],
                    )
                ],
            ),
        ]
    if flame:
        parts += ["", "## Flamegraph", "", "```", flame.rstrip("\n"), "```"]
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# flamegraph


def load_trace(path: str) -> list[dict]:
    """Read a ``--trace`` JSONL file back into its record list."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
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
