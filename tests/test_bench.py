"""Tests for bench telemetry records, comparison, and reports."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.pipeline import RunConfig
from repro.observability import Observability
from repro.observability.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    collect_phase_seconds,
    compare,
    load_record,
    record_suite,
)
from repro.observability.report import (
    load_trace,
    render_comparison_table,
    render_flamegraph,
    render_markdown_report,
)
from repro.pipeline.manager import pass_timings


@pytest.fixture(scope="module")
def record():
    """One real two-benchmark record, shared across the module."""
    return record_suite("t", RunConfig(names=["wc", "tee"]))


class TestBenchRecord:
    def test_record_contents(self, record):
        assert record.schema_version == BENCH_SCHEMA_VERSION
        assert set(record.benchmarks) == {"wc", "tee"}
        wc = record.benchmarks["wc"]
        assert wc["counters"]["il"] > 0
        assert wc["post_counters"]["calls"] <= wc["counters"]["calls"]
        assert wc["code_size_after"] >= wc["code_size_before"]
        assert wc["outputs_match"]
        assert "ACCEPTED" in wc["audit"] or wc["audit"]
        assert record.audit_total
        assert record.config["name"] == "t"
        assert record.created_unix > 0

    def test_phase_and_pass_seconds_present(self, record):
        assert "benchmark.compile" in record.phase_seconds
        assert "benchmark.profile" in record.phase_seconds
        assert record.phase_seconds["benchmark.compile"]["count"] == 2
        # the five optimizer passes and six inliner phases all report
        assert "constant-fold" in record.pass_seconds
        assert "select" in record.pass_seconds
        for stats in record.pass_seconds.values():
            assert set(stats) == {
                "seconds",
                "invocations",
                "changes",
                "p50",
                "p90",
                "p99",
            }

    def test_round_trip_and_self_compare(self, record, tmp_path):
        path = record.write(str(tmp_path / "BENCH_t.json"))
        loaded = load_record(path)
        assert loaded.to_dict() == record.to_dict()
        comparison = compare(record, loaded)
        assert comparison.regressions == []
        assert comparison.ok()
        assert comparison.verdict() == "PASS"

    def test_default_path_uses_config_name(self, record):
        assert record.default_path() == "BENCH_t.json"

    def test_schema_version_gate(self, tmp_path):
        payload = {"kind": "bench_record", "schema_version": 999}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_record(str(path))
        with pytest.raises(ValueError, match="not a bench record"):
            BenchRecord.from_dict({"schema_version": BENCH_SCHEMA_VERSION})

    def test_jobs2_counts_match_serial(self, record):
        parallel = record_suite("t2", RunConfig(names=["wc", "tee"], jobs=2))
        comparison = compare(record, parallel)
        assert comparison.regressions == []
        assert comparison.ok()
        # and the reverse direction too: parallel introduced nothing
        assert compare(parallel, record).regressions == []


class TestCompare:
    def _doctor(self, record, benchmark, metric, factor):
        payload = json.loads(json.dumps(record.to_dict()))
        payload["benchmarks"][benchmark]["counters"][metric] = int(
            payload["benchmarks"][benchmark]["counters"][metric] * factor
        )
        return BenchRecord.from_dict(payload)

    def test_inflated_counts_regress(self, record):
        doctored = self._doctor(record, "wc", "il", 2)
        comparison = compare(record, doctored)
        assert not comparison.ok()
        offenders = {(d.benchmark, d.metric) for d in comparison.regressions}
        assert ("wc", "il") in offenders

    def test_reduced_counts_improve(self, record):
        doctored = self._doctor(record, "wc", "il", 0.5)
        comparison = compare(record, doctored)
        assert comparison.ok()
        improved = {(d.benchmark, d.metric) for d in comparison.improvements}
        assert ("wc", "il") in improved

    def test_epsilon_tolerates_small_drift(self, record):
        doctored = self._doctor(record, "wc", "il", 1.005)
        assert not compare(record, doctored).ok()
        assert compare(record, doctored, epsilon=0.01).ok()

    def test_missing_benchmark_fails(self, record):
        payload = record.to_dict()
        del payload["benchmarks"]["tee"]
        shrunk = BenchRecord.from_dict(json.loads(json.dumps(payload)))
        comparison = compare(record, shrunk)
        assert comparison.missing_benchmarks == ["tee"]
        assert not comparison.ok()
        # the other direction is an addition, not a failure
        assert compare(shrunk, record).ok()

    def test_time_regressions_do_not_gate_by_default(self, record):
        payload = record.to_dict()
        for stats in payload["phase_seconds"].values():
            stats["seconds"] *= 10
        payload["wall_seconds"] *= 10
        slower = BenchRecord.from_dict(json.loads(json.dumps(payload)))
        comparison = compare(record, slower)
        assert comparison.time_regressions
        assert comparison.regressions == []
        assert comparison.ok()
        assert not comparison.ok(fail_on_time=True)


class TestRendering:
    def test_comparison_table_names_offender(self, record):
        payload = json.loads(json.dumps(record.to_dict()))
        payload["benchmarks"]["wc"]["counters"]["calls"] *= 4
        doctored = BenchRecord.from_dict(payload)
        text = render_comparison_table(compare(record, doctored))
        assert "REGRESSED" in text
        assert "wc" in text and "calls" in text

    def test_markdown_report_sections(self, record):
        text = render_markdown_report(compare(record, record))
        assert "# Performance report" in text
        assert "PASS" in text
        assert "Per-pass time attribution" in text
        assert "constant-fold" in text
        assert "Inline-audit reason rollup" in text


class TestFlamegraph:
    def test_renders_span_tree(self, tmp_path):
        obs = Observability.create()
        with obs.tracer.span("suite"):
            with obs.tracer.span("benchmark"):
                with obs.tracer.span("benchmark.compile"):
                    pass
            with obs.tracer.span("benchmark"):
                pass
        path = tmp_path / "trace.jsonl"
        obs.tracer.write(str(path))
        flame = render_flamegraph(load_trace(str(path)))
        lines = flame.splitlines()
        assert lines[0].startswith("suite")
        assert any(line.startswith("  benchmark") for line in lines)
        assert any("x2" in line for line in lines if "benchmark " in line)
        assert any("benchmark.compile" in line for line in lines)

    def test_empty_trace(self):
        assert "no spans" in render_flamegraph([])


class TestHelpers:
    def test_collect_phase_seconds(self):
        obs = Observability.create()
        with obs.tracer.span("alpha"):
            pass
        with obs.tracer.span("alpha"):
            pass
        obs.tracer.event("not-a-span")
        phases = collect_phase_seconds(obs.tracer)
        assert phases["alpha"]["count"] == 2
        assert phases["alpha"]["seconds"] >= 0

    def test_pass_timings_schema(self):
        obs = Observability.create()
        obs.metrics.observe("pipeline.pass.fold.seconds", 0.25)
        obs.metrics.observe("pipeline.pass.fold.seconds", 0.75)
        obs.metrics.inc("pipeline.pass.fold.changes", 3)
        obs.metrics.observe("unrelated.seconds", 1.0)
        timings = pass_timings(obs.metrics)
        assert set(timings) == {"fold"}
        assert timings["fold"]["seconds"] == pytest.approx(1.0)
        assert timings["fold"]["invocations"] == 2
        assert timings["fold"]["changes"] == 3


class TestBenchCli:
    def test_bench_writes_record_and_report_round_trips(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = cli_main(["bench", "--benchmarks", "wc", "--config", "suite"])
        assert code == 0
        record_path = tmp_path / "BENCH_suite.json"
        assert record_path.exists()
        payload = json.loads(record_path.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert "wc" in payload["benchmarks"]
        capsys.readouterr()

        code = cli_main(["report", str(record_path), str(record_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_report_exits_nonzero_naming_offender(self, tmp_path, capsys):
        record = record_suite("one", RunConfig(names=["wc"]))
        base_path = record.write(str(tmp_path / "BENCH_base.json"))
        payload = json.loads(json.dumps(record.to_dict()))
        payload["benchmarks"]["wc"]["counters"]["il"] *= 2
        doctored = BenchRecord.from_dict(payload)
        cur_path = doctored.write(str(tmp_path / "BENCH_cur.json"))

        code = cli_main(["report", base_path, cur_path])
        captured = capsys.readouterr()
        assert code == 1
        assert "wc" in captured.err and "il" in captured.err

    def test_report_formats(self, tmp_path, capsys):
        record = record_suite("fmt", RunConfig(names=["wc"]))
        path = record.write(str(tmp_path / "BENCH_fmt.json"))
        out_path = tmp_path / "report.md"
        code = cli_main(
            ["report", path, "--format", "markdown", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().startswith("# Performance report")
        capsys.readouterr()

    def test_bench_record_stamps_run_config(self, tmp_path, capsys):
        out = tmp_path / "BENCH_exp.json"
        code = cli_main(
            ["bench", "--benchmarks", "wc", "tee", "--jobs", "2", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        record = load_record(str(out))
        assert record.config["jobs"] == 2
        assert set(record.benchmarks) == {"wc", "tee"}
        assert compare(record, record).ok()
        assert set(record.config) == {
            "name", "scale", "benchmarks", "jobs", "executor", "pass_spec",
            "threshold", "size_limit_factor",
        }
