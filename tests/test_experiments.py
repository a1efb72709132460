"""Tests for the experiment harness: pipeline, table builders, the
ablations and the extension studies."""

import hashlib
from collections import Counter

import pytest

from repro.compiler import compile_program
from repro.errors import InlineError
from repro.experiments import ablations, extensions
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
from repro.inliner.manager import inline_module
from repro.observability import Observability, observing
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


#: ``run_suite(RunConfig())`` per program: the ``(il, ct, calls,
#: returns)`` totals over its small inputs before and after inlining,
#: ``(original_size, final_size)`` and the number of expansions.
SUITE_RUN_COUNTS = {
    "cccp": (
        (391147, 98496, 16792, 16792),
        (400434, 112224, 3064, 3064),
        (1045, 1305),
        11,
    ),
    "cmp": (
        (38700, 10355, 5981, 5981),
        (38700, 13287, 3049, 3049),
        (704, 712),
        2,
    ),
    "compress": (
        (375993, 54115, 16810, 16810),
        (388566, 69467, 1458, 1458),
        (732, 908),
        7,
    ),
    "eqn": (
        (268130, 57969, 13249, 13249),
        (274970, 66572, 4646, 4646),
        (908, 1134),
        11,
    ),
    "espresso": (
        (254127, 57023, 11327, 11327),
        (273119, 67153, 1197, 1197),
        (1013, 1263),
        9,
    ),
    "grep": (
        (457211, 97982, 20941, 20941),
        (478579, 117315, 1608, 1608),
        (896, 1108),
        6,
    ),
    "lex": (
        (632903, 177137, 46780, 46780),
        (665429, 207138, 16779, 16779),
        (959, 1196),
        8,
    ),
    "make": (
        (134354, 30960, 3833, 3833),
        (138168, 33965, 828, 828),
        (1042, 1295),
        8,
    ),
    "tar": (
        (61990, 8274, 8901, 8901),
        (61990, 11352, 5823, 5823),
        (845, 937),
        8,
    ),
    "tee": (
        (44469, 10337, 6052, 6052),
        (44469, 10337, 6052, 6052),
        (629, 629),
        0,
    ),
    "wc": (
        (70611, 30038, 3359, 3359),
        (70611, 30038, 3359, 3359),
        (627, 627),
        0,
    ),
    "yacc": (
        (523986, 106081, 20694, 20694),
        (537760, 123901, 2874, 2874),
        (1224, 1530),
        13,
    ),
}


def _scalars(counters) -> tuple[int, int, int, int]:
    return (counters.il, counters.ct, counters.calls, counters.returns)


class TestSuiteRunCounts:
    """The exact counts behind the tables, for the whole suite."""

    def test_run_suite_counts_are_pinned(self):
        counts = {
            result.name: (
                _scalars(result.profile.total),
                _scalars(result.post_profile.total),
                (result.inline.original_size, result.inline.final_size),
                len(result.inline.records),
            )
            for result in run_suite(RunConfig())
        }
        assert counts == SUITE_RUN_COUNTS
        # The sums are bench/run.py's gen_il, gen_calls and gen_code_size.
        post = [entry[1] for entry in counts.values()]
        assert sum(il for il, _, _, _ in post) == 3_372_795
        assert sum(calls for _, _, calls, _ in post) == 50_737
        assert sum(entry[2][1] for entry in counts.values()) == 12_644
        assert sum(entry[3] for entry in counts.values()) == 83

    def test_empty_pass_spec_skips_pre_optimization_on_both_paths(self):
        config = RunConfig(names=("wc",), pass_spec="")
        (uncached,) = run_suite(config)
        (cached,) = run_suite(config, session=CompilationSession())
        for before, after in (
            (uncached.profile.total, cached.profile.total),
            (uncached.post_profile.total, cached.post_profile.total),
        ):
            assert _scalars(before) == _scalars(after)
        assert all_tables([uncached]) == all_tables([cached])
        # Without pre-optimization wc runs more IL than the pinned run.
        assert uncached.profile.total.il > SUITE_RUN_COUNTS["wc"][0][0]


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


class TestAblations:
    """Each ablation task compiles and profiles its program once, and
    every point's outputs are compared."""

    def test_sweep_compiles_and_profiles_each_program_once(self):
        obs = Observability.create()
        with observing(obs):
            text = ablations.render_ablations(RunConfig(names=("wc", "tee", "cmp")))
        # What `tables ablations --benchmarks wc tee cmp` prints.
        digest = hashlib.md5((text + "\n").encode()).hexdigest()
        assert digest == "da07d7d5970f6c019e86b6fd44022e76"
        counters = obs.metrics.counters
        assert counters["frontend.modules_compiled"] == 3
        # Each original, and each distinct inlined module, runs once per
        # input.
        assert counters["vm.runs"] == 64
        # Each distinct configuration is inlined once per program: the
        # default one is a point of A, B, C and D.
        assert counters["inliner.expansions_performed"] == 23

    def test_heldout_inlines_each_program_once(self):
        obs = Observability.create()
        with observing(obs):
            points = ablations.heldout_input_check(RunConfig())
        assert [(p.label, p.code_increase, p.call_decrease) for p in points] == [
            ("train-inputs", 0.16954235580209456, 0.6038809721572699),
            ("held-out-inputs", 0.16954235580209456, 0.5751633340244072),
        ]
        spans = Counter(
            record["name"]
            for record in obs.tracer.records
            if record["type"] == "span"
        )
        assert spans["inline.expand"] == 12
        assert obs.metrics.counters["vm.runs"] <= 104

    def test_diverging_point_raises(self, monkeypatch):
        silent = compile_program("int main(void) { return 0; }")

        def planted(module, profile, **options):
            result = inline_module(module, profile, **options)
            result.module = silent
            return result

        monkeypatch.setattr(ablations, "inline_module", planted)
        with pytest.raises(
            InlineError, match=r"^wc \[T=1\]: inlined outputs diverge: .*stdout"
        ):
            ablations.threshold_sweep(RunConfig(names=("wc",)))


class TestExtensions:
    def test_diverging_inlining_raises_before_any_study(self, monkeypatch):
        silent = compile_program("int main(void) { return 0; }")

        def planted(module, profile, **options):
            result = inline_module(module, profile, **options)
            result.module = silent
            return result

        def study(*args, **kwargs):
            raise AssertionError("a study ran on a diverging inlining")

        monkeypatch.setattr(extensions, "inline_module", planted)
        for name in (
            "icache_experiment",
            "placement_experiment",
            "pressure_experiment",
        ):
            monkeypatch.setattr(extensions, name, study)
        with pytest.raises(
            InlineError,
            match=r"^compress \[inline\+optimize\]: inlined outputs diverge: .*stdout",
        ):
            extensions.render_extensions("small")


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
