"""Determinism and caching tests for parallel suite execution."""

from collections import Counter

import pytest

from repro.compiler import compile_program
from repro.experiments.pipeline import RunConfig, run_suite
from repro.experiments.tables import all_tables, table4
from repro.inliner.params import InlineParameters
from repro.observability import Observability, current, observing
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.pipeline import CompilationSession, parallel_map
from repro.pipeline.parallel import validate_jobs

# In suite (Table 1) order — run_suite returns results in suite order.
NAMES = ["cmp", "tee", "wc"]


@pytest.fixture(scope="module")
def serial_results():
    return run_suite(RunConfig(names=NAMES, jobs=1))


class TestUnknownNames:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown benchmark name"):
            RunConfig(names=["wc", "nonesuch"])

    def test_error_lists_every_unknown_name(self):
        with pytest.raises(ValueError, match="nonesuch, other"):
            RunConfig(names=["other", "wc", "nonesuch"])

    def test_known_subset_still_works(self, serial_results):
        assert [r.name for r in serial_results] == NAMES


class TestParallelDeterminism:
    def test_jobs2_equals_jobs1(self, serial_results):
        parallel = run_suite(RunConfig(names=NAMES, jobs=2))
        assert [r.name for r in parallel] == [r.name for r in serial_results]
        for serial, worker in zip(serial_results, parallel):
            assert worker.outputs_match == serial.outputs_match
            assert worker.output_divergences == serial.output_divergences
            assert worker.code_increase == serial.code_increase
            assert worker.call_decrease == serial.call_decrease
            assert worker.runs == serial.runs
            assert worker.profile.total == serial.profile.total
            assert worker.post_profile.total == serial.post_profile.total
            assert worker.inline.final_size == serial.inline.final_size
        assert all_tables(parallel) == all_tables(serial_results)

    def test_jobs_exceeding_benchmarks(self, serial_results):
        parallel = run_suite(RunConfig(names=NAMES, jobs=16))
        assert table4(parallel) == table4(serial_results)

    def test_worker_observability_merged(self):
        with observing(Observability.create()) as obs:
            run_suite(RunConfig(names=NAMES, jobs=2))
        assert obs.metrics.counters["pipeline.benchmarks"] == len(NAMES)
        benchmark_spans = [
            r
            for r in obs.tracer.records
            if r["type"] == "span" and r["name"] == "benchmark"
        ]
        assert len(benchmark_spans) == len(NAMES)
        assert {span["attrs"]["name"] for span in benchmark_spans} == set(NAMES)
        # Every absorbed record is tagged with its worker label, and ids
        # stay unique after renumbering.
        assert all("worker" in span for span in benchmark_spans)
        ids = [r["id"] for r in obs.tracer.records if "id" in r]
        assert len(ids) == len(set(ids))


class TestSessionCaching:
    def test_warm_suite_run_is_all_hits(self, serial_results):
        session = CompilationSession()
        with observing(Observability.create()) as cold_obs:
            run_suite(RunConfig(names=NAMES), session=session)
        assert cold_obs.metrics.counters["pipeline.cache.misses"] > 0

        with observing(Observability.create()) as warm_obs:
            warm = run_suite(RunConfig(names=NAMES), session=session)
        counters = warm_obs.metrics.counters
        hits = counters.get("pipeline.cache.hits", 0)
        misses = counters.get("pipeline.cache.misses", 0)
        assert hits / (hits + misses) >= 0.9
        # Zero recompiles and zero re-profiles on the warm run.
        assert counters.get("frontend.modules_compiled", 0) == 0
        assert counters.get("profiler.runs", 0) == 0
        # And the cached artifacts reproduce identical tables.
        assert all_tables(warm) == all_tables(serial_results)

    def test_cached_run_matches_uncached(self, serial_results):
        session = CompilationSession()
        cached = run_suite(RunConfig(names=NAMES), session=session)
        assert all_tables(cached) == all_tables(serial_results)

    def test_inliner_knobs_do_not_key_profiles(self):
        session = CompilationSession()
        run_suite(RunConfig(names=["wc"]), session=session)
        # Nothing clears this threshold, so the inlined module is the
        # original: both its profiles are the first run's.
        knobs = InlineParameters(weight_threshold=1e12)
        with observing(Observability.create()) as obs:
            run_suite(RunConfig(names=["wc"], params=knobs), session=session)
        assert obs.metrics.counters.get("profiler.runs", 0) == 0

    def test_one_benchmark_on_jobs_2_fills_the_live_session(self):
        # One item runs in this process, so no worker needs the session.
        session = CompilationSession()
        run_suite(RunConfig(names=["tee"], jobs=2), session=session)
        with observing(Observability.create()) as obs:
            run_suite(RunConfig(names=["tee"]), session=session)
        assert obs.metrics.counters.get("profiler.runs", 0) == 0

    def test_parallel_and_cached_together(self, serial_results):
        session = CompilationSession()
        results = run_suite(RunConfig(names=NAMES, jobs=2), session=session)
        assert all_tables(results) == all_tables(serial_results)


class TestProcessExecutor:
    def test_process_suite_equals_serial(self, serial_results, tmp_path):
        # The workers reach the session through its cache directory.
        session = CompilationSession(cache_dir=str(tmp_path / "cache"))
        parallel = run_suite(RunConfig(names=NAMES, jobs=2), session=session)
        assert [r.name for r in parallel] == NAMES
        assert all_tables(parallel) == all_tables(serial_results)

    def test_process_worker_observability_merged(self):
        # A worker's records carry the parent's bound trace id from the
        # moment they are emitted: run_benchmark mints no id of its own.
        obs = Observability.create()
        obs.tracer.bind(trace_id="suite-trace")
        with observing(obs):
            run_suite(RunConfig(names=NAMES, jobs=2))
        benchmark_spans = [
            r
            for r in obs.tracer.records
            if r["type"] == "span" and r["name"] == "benchmark"
        ]
        assert {span["attrs"]["name"] for span in benchmark_spans} == set(NAMES)
        assert {span["trace_id"] for span in benchmark_spans} == {"suite-trace"}

    def test_process_workers_share_disk_store(self, tmp_path):
        session = CompilationSession(cache_dir=str(tmp_path / "cache"))
        run_suite(RunConfig(names=NAMES, jobs=2), session=session)
        with observing(Observability.create()) as warm_obs:
            run_suite(RunConfig(names=NAMES), session=session)
        # The warm serial run reads artifacts the worker processes wrote.
        assert warm_obs.metrics.counters.get("pipeline.cache.disk_hits", 0) > 0

    def test_workers_record_what_one_process_records(self):
        # Forked workers inherit this process's libc prefix, so warm it
        # first: then neither run builds it. A worker inherits the
        # parent's binding too, and records only what it binds itself.
        compile_program("int main(void) { return 0; }", pass_spec=DEFAULT_OPT_SPEC)
        recorded = []
        for jobs in (1, 2):
            with observing(Observability.create()) as obs:
                run_suite(RunConfig(names=NAMES, jobs=jobs))
            spans = Counter(
                r["name"] for r in obs.tracer.records if r["type"] == "span"
            )
            recorded.append((obs.metrics.counters, spans))
        (serial, serial_spans), (workers, worker_spans) = recorded
        assert workers == serial
        assert worker_spans == serial_spans


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            validate_jobs(0)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            RunConfig(names=["wc"], jobs=-2)

    def test_run_config_rejects_zero_jobs(self):
        with pytest.raises(
            ValueError, match=r"jobs must be >= 1 \(1 = serial\), got 0"
        ):
            RunConfig(jobs=0)

    def test_run_config_rejects_unknown_names(self):
        with pytest.raises(
            ValueError,
            match=r"unknown benchmark name\(s\): nonesuch; known: cccp, cmp,",
        ):
            RunConfig(names=["wc", "nonesuch"])

    def test_run_config_rejects_bad_pass_specs(self):
        with pytest.raises(ValueError, match="unknown pass 'bogus'"):
            RunConfig(pass_spec="bogus")
        with pytest.raises(ValueError, match="empty pass spec"):
            RunConfig(pass_spec=" , ")
        with pytest.raises(ValueError, match="not None"):
            RunConfig(pass_spec=None)
        assert RunConfig(pass_spec="").pass_spec == ""
        assert RunConfig().pass_spec == DEFAULT_OPT_SPEC

    def test_run_config_names_are_frozen(self):
        config = RunConfig(names=["wc", "tee"])
        assert config.names == ("wc", "tee")
        assert config == RunConfig(names=("wc", "tee"))
        with pytest.raises(AttributeError):
            config.jobs = 2


def _square_task(item):
    current().metrics.inc("tick")
    return item * item


def _traced_task(item):
    obs = current()
    obs.metrics.inc("total", item)
    obs.tracer.event("item", value=item)
    return item


class TestParallelMap:
    def test_process_backend_with_picklable_task(self):
        items = list(range(8))
        with observing(Observability.create()) as obs:
            result = parallel_map(_square_task, items, jobs=2)
        assert result == [x * x for x in items]
        assert obs.metrics.counters["tick"] == len(items)

    def test_order_preserved(self):
        items = list(range(20))
        assert parallel_map(_square_task, items, jobs=4) == [
            x * x for x in items
        ]

    def test_serial_uses_parent_obs(self):
        with observing(Observability.create()) as obs:
            parallel_map(lambda x: current().metrics.inc("tick"), [1, 2], jobs=1)
        assert obs.metrics.counters["tick"] == 2

    def test_parallel_metrics_merge(self):
        # Each child is absorbed in item order, tagged with its label.
        items = [3, 1, 4, 1, 5]
        with observing(Observability.create()) as obs:
            parallel_map(_traced_task, items, jobs=2, worker_label="w")
        assert obs.metrics.counters["total"] == sum(items)
        events = [r for r in obs.tracer.records if r.get("name") == "item"]
        assert [(event["attrs"]["value"], event["worker"]) for event in events] == [
            (item, f"w-{index}") for index, item in enumerate(items)
        ]
