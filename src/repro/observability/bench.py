"""Benchmark telemetry records and regression detection.

The paper's claim is quantitative, so this module makes every suite run
a durable, comparable measurement. :func:`record_suite` (or the
lower-level :func:`record_from_results`) turns one
:func:`~repro.experiments.pipeline.run_suite` execution into a
schema-versioned :class:`BenchRecord` — per-benchmark dynamic
instruction counts and VM :class:`~repro.vm.counters.Counters`, code
sizes, per-phase and per-pass wall time (from
:class:`~repro.observability.Tracer` spans and the
:class:`~repro.pipeline.manager.PassManager` metrics),
``pipeline.cache.*`` hit rates, and inline-audit reason-code rollups —
stamped with timestamp, git SHA, and run configuration. Records are
written as ``BENCH_<config>.json`` files (repo root by convention).

:func:`compare` classifies the deltas between two records:

- **exact** metrics (dynamic instructions, control transfers, calls,
  code size, expansion counts) are deterministic VM outputs, so any
  increase beyond a small relative ``epsilon`` is a regression;
- **time** metrics (per-phase and total wall seconds) are noisy, so
  they only regress beyond a configurable ``time_tolerance`` and by
  default do not affect the comparison's exit status.

Rendering of comparisons (terminal table, markdown/HTML report, text
flamegraph) lives in :mod:`repro.observability.report`.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field

#: Bump when the record layout changes incompatibly; :func:`load_record`
#: refuses records from a different major schema.
BENCH_SCHEMA_VERSION = 1

#: Default relative slack for exact metrics (deterministic counts).
DEFAULT_EPSILON = 0.0

#: Default relative slack for wall-clock metrics.
DEFAULT_TIME_TOLERANCE = 0.25

#: The exact (deterministic) per-benchmark metrics compare() gates on.
EXACT_METRICS = (
    "il",
    "ct",
    "calls",
    "returns",
    "post_il",
    "post_ct",
    "post_calls",
    "post_returns",
    "code_size_after",
)


def git_sha(default: str = "unknown") -> str:
    """The current git commit hash, or ``default`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def collect_phase_seconds(tracer) -> dict[str, dict]:
    """Aggregate a tracer's span records by span name.

    Returns ``{span_name: {"seconds": total, "count": n}}`` — the
    per-phase wall-time attribution (``benchmark.compile``,
    ``benchmark.profile``, ``frontend.*``, ``profile.run`` …).
    """
    phases: dict[str, dict] = {}
    for record in tracer.records:
        if record.get("type") != "span":
            continue
        entry = phases.setdefault(
            record["name"], {"seconds": 0.0, "count": 0}
        )
        entry["seconds"] = round(entry["seconds"] + record["seconds"], 6)
        entry["count"] += 1
    return phases


def _benchmark_payload(result) -> dict:
    """Flatten one BenchmarkResult into the record's per-benchmark dict."""
    from repro.observability.audit import summarize_decisions

    return {
        "runs": result.runs,
        "counters": result.profile.total.to_summary(),
        "post_counters": result.post_profile.total.to_summary(),
        "code_size_before": result.inline.original_size,
        "code_size_after": result.inline.final_size,
        "code_increase": result.code_increase,
        "call_decrease": result.call_decrease,
        "expansions": len(result.inline.records),
        "functions_removed": len(result.inline.removed_functions),
        "outputs_match": result.outputs_match,
        "audit": summarize_decisions(result.inline.decisions),
    }


def _cache_payload(counters: dict) -> dict:
    """Cache hit/miss statistics from a metrics counter dict."""
    hits = counters.get("pipeline.cache.hits", 0)
    misses = counters.get("pipeline.cache.misses", 0)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "disk_hits": counters.get("pipeline.cache.disk_hits", 0),
        "evictions": counters.get("pipeline.cache.evictions", 0),
        "hit_rate": hits / lookups if lookups else 0.0,
    }


@dataclass
class BenchRecord:
    """One schema-versioned suite measurement."""

    config: dict
    benchmarks: dict[str, dict]
    phase_seconds: dict[str, dict] = field(default_factory=dict)
    pass_seconds: dict[str, dict] = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    audit_total: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    created_unix: float = 0.0
    git_sha: str = "unknown"
    schema_version: int = BENCH_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": "bench_record",
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "config": dict(self.config),
            "wall_seconds": self.wall_seconds,
            "benchmarks": {
                name: dict(data) for name, data in self.benchmarks.items()
            },
            "phase_seconds": dict(self.phase_seconds),
            "pass_seconds": dict(self.pass_seconds),
            "cache": dict(self.cache),
            "audit_total": dict(self.audit_total),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        if not isinstance(payload, dict) or payload.get("kind") != "bench_record":
            raise ValueError("not a bench record")
        version = payload.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"bench record schema {version!r} is not supported"
                f" (expected {BENCH_SCHEMA_VERSION})"
            )
        return cls(
            config=payload.get("config", {}),
            benchmarks=payload.get("benchmarks", {}),
            phase_seconds=payload.get("phase_seconds", {}),
            pass_seconds=payload.get("pass_seconds", {}),
            cache=payload.get("cache", {}),
            audit_total=payload.get("audit_total", {}),
            wall_seconds=payload.get("wall_seconds", 0.0),
            created_unix=payload.get("created_unix", 0.0),
            git_sha=payload.get("git_sha", "unknown"),
            schema_version=version,
        )

    # ------------------------------------------------------------------

    @property
    def config_name(self) -> str:
        return self.config.get("name", "suite")

    def default_path(self) -> str:
        return f"BENCH_{self.config_name}.json"

    def write(self, path: str | None = None) -> str:
        """Serialize to ``path`` (default ``BENCH_<config>.json``)."""
        path = path or self.default_path()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def load_record(path: str) -> BenchRecord:
    """Load and schema-check one ``BENCH_*.json`` record."""
    with open(path, encoding="utf-8") as handle:
        return BenchRecord.from_dict(json.load(handle))


def record_from_results(
    results,
    obs,
    config: dict,
    wall_seconds: float = 0.0,
    sha: str | None = None,
    timestamp: float | None = None,
) -> BenchRecord:
    """Build a record from ``run_suite`` results plus their live obs."""
    from repro.pipeline.manager import pass_timings

    benchmarks = {result.name: _benchmark_payload(result) for result in results}
    audit_total: dict[str, int] = {}
    for data in benchmarks.values():
        for reason, count in data["audit"].items():
            audit_total[reason] = audit_total.get(reason, 0) + count
    return BenchRecord(
        config=dict(config),
        benchmarks=benchmarks,
        phase_seconds=collect_phase_seconds(obs.tracer),
        pass_seconds=pass_timings(obs.metrics),
        cache=_cache_payload(obs.metrics.counters),
        audit_total=audit_total,
        wall_seconds=round(wall_seconds, 6),
        created_unix=timestamp if timestamp is not None else time.time(),
        git_sha=sha if sha is not None else git_sha(),
    )


def record_suite(name: str, config, *, obs=None, session=None) -> BenchRecord:
    """Run the suite under ``config`` with full telemetry and record it.

    ``name`` names the record (default file ``BENCH_<name>.json``) and
    ``config`` (a :class:`~repro.experiments.pipeline.RunConfig`)
    supplies the record's ``config`` stamp. A live
    :class:`~repro.observability.Observability` may be passed in (e.g.
    to also export the trace); by default one is created.
    """
    from repro.experiments import pipeline
    from repro.observability import Observability

    obs = obs if obs is not None else Observability.create()
    start = time.perf_counter()
    results = pipeline.run_suite(config, obs=obs, session=session)
    wall = time.perf_counter() - start
    return record_from_results(
        results, obs, config.stamp(name), wall_seconds=wall
    )


# ----------------------------------------------------------------------
# comparison engine


@dataclass
class MetricDelta:
    """One compared metric between baseline and current records."""

    benchmark: str  # benchmark name, or "(suite)" for suite-wide metrics
    metric: str
    baseline: float
    current: float
    kind: str  # "exact" | "time"
    status: str  # "ok" | "improved" | "regressed" | "added" | "removed"

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def relative(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return self.current / self.baseline - 1.0

    def describe(self) -> str:
        return (
            f"{self.benchmark}.{self.metric}: {self.baseline:g} ->"
            f" {self.current:g} ({self.relative:+.1%})"
        )


@dataclass
class BenchComparison:
    """The classified delta set between two bench records."""

    baseline: BenchRecord
    current: BenchRecord
    deltas: list[MetricDelta] = field(default_factory=list)
    epsilon: float = DEFAULT_EPSILON
    time_tolerance: float = DEFAULT_TIME_TOLERANCE

    def _by_status(self, status: str, kind: str | None = None):
        return [
            delta
            for delta in self.deltas
            if delta.status == status and (kind is None or delta.kind == kind)
        ]

    @property
    def regressions(self) -> list[MetricDelta]:
        """Exact-metric regressions — the ones that gate exit status."""
        return self._by_status("regressed", "exact")

    @property
    def time_regressions(self) -> list[MetricDelta]:
        return self._by_status("regressed", "time")

    @property
    def improvements(self) -> list[MetricDelta]:
        return self._by_status("improved")

    @property
    def missing_benchmarks(self) -> list[str]:
        return sorted(
            set(self.baseline.benchmarks) - set(self.current.benchmarks)
        )

    @property
    def added_benchmarks(self) -> list[str]:
        return sorted(
            set(self.current.benchmarks) - set(self.baseline.benchmarks)
        )

    def ok(self, fail_on_time: bool = False) -> bool:
        """True when no gating regressions (and no dropped benchmarks)."""
        if self.regressions or self.missing_benchmarks:
            return False
        if fail_on_time and self.time_regressions:
            return False
        return True

    def verdict(self, fail_on_time: bool = False) -> str:
        if self.ok(fail_on_time):
            return "PASS"
        return "REGRESSED"


def _classify(baseline: float, current: float, tolerance: float) -> str:
    if current > baseline * (1.0 + tolerance):
        return "regressed"
    if current < baseline:
        return "improved"
    return "ok"


def compare(
    baseline: BenchRecord,
    current: BenchRecord,
    epsilon: float = DEFAULT_EPSILON,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
) -> BenchComparison:
    """Classify every shared metric of two records.

    Exact metrics regress on any increase beyond ``epsilon`` (relative);
    wall-clock metrics regress beyond ``time_tolerance``. Benchmarks
    present on only one side are reported as removed/added rather than
    silently skipped.
    """
    comparison = BenchComparison(
        baseline, current, epsilon=epsilon, time_tolerance=time_tolerance
    )
    deltas = comparison.deltas
    for name in sorted(set(baseline.benchmarks) | set(current.benchmarks)):
        base = baseline.benchmarks.get(name)
        cur = current.benchmarks.get(name)
        if base is None or cur is None:
            status = "added" if base is None else "removed"
            deltas.append(
                MetricDelta(
                    benchmark=name,
                    metric="il",
                    baseline=0.0 if base is None else _exact_value(base, "il"),
                    current=0.0 if cur is None else _exact_value(cur, "il"),
                    kind="exact",
                    status=status,
                )
            )
            continue
        for metric in EXACT_METRICS:
            base_value = _exact_value(base, metric)
            cur_value = _exact_value(cur, metric)
            deltas.append(
                MetricDelta(
                    benchmark=name,
                    metric=metric,
                    baseline=base_value,
                    current=cur_value,
                    kind="exact",
                    status=_classify(base_value, cur_value, epsilon),
                )
            )
    for phase in sorted(
        set(baseline.phase_seconds) & set(current.phase_seconds)
    ):
        base_value = baseline.phase_seconds[phase]["seconds"]
        cur_value = current.phase_seconds[phase]["seconds"]
        deltas.append(
            MetricDelta(
                benchmark="(suite)",
                metric=f"phase.{phase}.seconds",
                baseline=base_value,
                current=cur_value,
                kind="time",
                status=_classify(base_value, cur_value, time_tolerance),
            )
        )
    if baseline.wall_seconds and current.wall_seconds:
        deltas.append(
            MetricDelta(
                benchmark="(suite)",
                metric="wall_seconds",
                baseline=baseline.wall_seconds,
                current=current.wall_seconds,
                kind="time",
                status=_classify(
                    baseline.wall_seconds,
                    current.wall_seconds,
                    time_tolerance,
                ),
            )
        )
    return comparison


def _exact_value(payload: dict, metric: str) -> float:
    """Resolve one EXACT_METRICS name against a per-benchmark payload."""
    if metric.startswith("post_"):
        return payload.get("post_counters", {}).get(metric[len("post_") :], 0)
    if metric in ("il", "ct", "calls", "returns"):
        return payload.get("counters", {}).get(metric, 0)
    return payload.get(metric, 0)
