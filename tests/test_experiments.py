"""Tests for the experiment harness: pipeline and table builders."""

import pytest

from repro.experiments.pipeline import (
    RunConfig,
    aggregate_dynamic_breakdown,
    run_benchmark,
    run_suite,
)
from repro.experiments.report import fixed, pct, render_table
from repro.experiments.tables import (
    all_tables,
    post_inline_breakdown,
    table1,
    table2,
    table3,
    table4,
)
from repro.inliner.classify import SiteClass
from repro.pipeline.session import CompilationSession
from repro.vm.machine import Machine
from repro.workloads import benchmark_by_name


@pytest.fixture(scope="module")
def two_results():
    """Pipeline results for a cheap benchmark pair (module-scoped)."""
    return [
        run_benchmark(benchmark_by_name("wc"), RunConfig()),
        run_benchmark(benchmark_by_name("cmp"), RunConfig()),
    ]


class TestPipeline:
    def test_outputs_match_flag(self, two_results):
        assert all(result.outputs_match for result in two_results)

    def test_wc_barely_changes(self, two_results):
        wc = two_results[0]
        assert wc.call_decrease <= 0.05
        assert wc.code_increase <= 0.05

    def test_cmp_halves_calls(self, two_results):
        cmp_result = two_results[1]
        assert 0.35 <= cmp_result.call_decrease <= 0.65

    def test_per_call_metrics_positive(self, two_results):
        for result in two_results:
            assert result.ils_per_call > 0
            assert result.cts_per_call >= 0

    def test_avg_il_thousands(self, two_results):
        for result in two_results:
            assert result.avg_il_thousands == pytest.approx(
                result.profile.avg_il / 1000.0
            )

    def test_run_suite_subset(self):
        results = run_suite(RunConfig(names=["tee"]))
        assert [r.name for r in results] == ["tee"]

    def test_breakdown_fractions_sum_to_one(self, two_results):
        mix = aggregate_dynamic_breakdown(two_results)
        assert sum(mix.values()) == pytest.approx(1.0)


class TestSingleExecution:
    """Each (module, input) pair runs once: the output check compares
    the observations its profiling runs took."""

    @pytest.fixture
    def machine_runs(self, monkeypatch):
        runs = []
        original_run = Machine.run

        def counting_run(self):
            runs.append(self)
            return original_run(self)

        monkeypatch.setattr(Machine, "run", counting_run)
        return runs

    def test_cold_run_executes_each_module_once_per_input(self, machine_runs):
        result = run_benchmark(benchmark_by_name("cmp"), RunConfig())
        assert result.outputs_match
        assert len(machine_runs) == 2 * result.runs

    def test_warm_session_checks_without_running(self, machine_runs):
        session = CompilationSession()
        benchmark = benchmark_by_name("cmp")
        cold = run_benchmark(benchmark, RunConfig(), session=session)
        machine_runs.clear()
        warm = run_benchmark(benchmark, RunConfig(), session=session)
        assert machine_runs == []
        assert warm.outputs_match
        assert all_tables([warm]) == all_tables([cold])


class TestTables:
    def test_table1_contains_row_per_benchmark(self, two_results):
        text = table1(two_results)
        assert "wc" in text and "cmp" in text
        assert "input description" in text

    def test_table2_has_avg_row(self, two_results):
        text = table2(two_results)
        assert "AVG" in text
        assert "external" in text and "safe" in text

    def test_table3_reports_calls(self, two_results):
        text = table3(two_results)
        assert "Dynamic" in text

    def test_table4_has_avg_and_sd(self, two_results):
        text = table4(two_results)
        assert "AVG" in text and "SD" in text
        assert "code inc" in text and "call dec" in text

    def test_breakdown_mentions_paper_numbers(self, two_results):
        text = post_inline_breakdown(two_results)
        assert "56.1" in text  # the paper's reference values in the title

    def test_all_tables_reports_verification(self, two_results):
        text = all_tables(two_results)
        assert "byte-identical" in text

    def test_wc_row_shape_matches_paper(self, two_results):
        # Paper Table 4: wc has 0% code inc and 0% call dec.
        text = table4(two_results)
        wc_row = next(line for line in text.splitlines() if line.startswith("wc"))
        assert "0%" in wc_row


class TestClassifiedFractionsInPipeline:
    def test_wc_dynamic_calls_mostly_external(self, two_results):
        wc = two_results[0]
        assert wc.classified.dynamic_fraction(SiteClass.EXTERNAL) > 0.9

    def test_cmp_split_between_safe_and_external(self, two_results):
        cmp_result = two_results[1]
        safe = cmp_result.classified.dynamic_fraction(SiteClass.SAFE)
        external = cmp_result.classified.dynamic_fraction(SiteClass.EXTERNAL)
        assert safe == pytest.approx(0.5, abs=0.15)
        assert external == pytest.approx(0.5, abs=0.15)


class TestReportHelpers:
    def test_render_table_alignment(self):
        text = render_table("T", ["col", "x"], [["a", "1"], ["bb", "22"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith("---")

    def test_pct(self):
        assert pct(0.1234) == "12.3%"
        assert pct(0.5, 0) == "50%"

    def test_fixed_inf(self):
        assert fixed(float("inf")) == "inf"
        assert fixed(3.14159, 2) == "3.14"
