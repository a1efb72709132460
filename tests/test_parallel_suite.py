"""Determinism and caching tests for parallel suite execution."""

import pytest

from repro.experiments.pipeline import RunConfig, run_suite
from repro.experiments.tables import all_tables, table4
from repro.observability import Observability
from repro.pipeline import CompilationSession, parallel_map
from repro.pipeline.parallel import validate_executor, validate_jobs

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
        for serial, threaded in zip(serial_results, parallel):
            assert threaded.outputs_match == serial.outputs_match
            assert threaded.output_divergences == serial.output_divergences
            assert threaded.code_increase == serial.code_increase
            assert threaded.call_decrease == serial.call_decrease
            assert threaded.runs == serial.runs
        assert all_tables(parallel) == all_tables(serial_results)

    def test_jobs_exceeding_benchmarks(self, serial_results):
        parallel = run_suite(RunConfig(names=NAMES, jobs=16))
        assert table4(parallel) == table4(serial_results)

    def test_worker_observability_merged(self):
        obs = Observability.create()
        run_suite(RunConfig(names=NAMES, jobs=2), obs=obs)
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
        cold_obs = Observability.create()
        run_suite(RunConfig(names=NAMES), session=session, obs=cold_obs)
        assert cold_obs.metrics.counters["pipeline.cache.misses"] > 0

        warm_obs = Observability.create()
        warm = run_suite(RunConfig(names=NAMES), session=session, obs=warm_obs)
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

    def test_parallel_and_cached_together(self, serial_results):
        session = CompilationSession()
        results = run_suite(RunConfig(names=NAMES, jobs=2), session=session)
        assert all_tables(results) == all_tables(serial_results)


class TestProcessExecutor:
    def test_process_suite_equals_serial(self, serial_results):
        parallel = run_suite(
            RunConfig(names=NAMES, jobs=2, executor="process")
        )
        assert [r.name for r in parallel] == NAMES
        assert all_tables(parallel) == all_tables(serial_results)

    def test_process_worker_observability_merged(self):
        obs = Observability.create()
        run_suite(RunConfig(names=NAMES, jobs=2, executor="process"), obs=obs)
        assert obs.metrics.counters["pipeline.benchmarks"] == len(NAMES)
        benchmark_spans = [
            r
            for r in obs.tracer.records
            if r["type"] == "span" and r["name"] == "benchmark"
        ]
        assert {span["attrs"]["name"] for span in benchmark_spans} == set(NAMES)
        assert all("worker" in span for span in benchmark_spans)

    def test_process_workers_share_disk_store(self, tmp_path):
        session = CompilationSession(cache_dir=str(tmp_path / "cache"))
        run_suite(
            RunConfig(names=NAMES, jobs=2, executor="process"), session=session
        )
        warm_obs = Observability.create()
        run_suite(RunConfig(names=NAMES), session=session, obs=warm_obs)
        # The warm serial run reads artifacts the worker processes wrote.
        assert warm_obs.metrics.counters.get("pipeline.cache.disk_hits", 0) > 0


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

    def test_run_config_rejects_unknown_executor(self):
        with pytest.raises(
            ValueError, match="unknown executor 'fiber'; choose from thread, process"
        ):
            RunConfig(jobs=2, executor="fiber")

    def test_run_config_rejects_unknown_names(self):
        with pytest.raises(
            ValueError,
            match=r"unknown benchmark name\(s\): nonesuch; known: cccp, cmp,",
        ):
            RunConfig(names=["wc", "nonesuch"])

    def test_run_config_names_are_frozen(self):
        config = RunConfig(names=["wc", "tee"])
        assert config.names == ("wc", "tee")
        assert config == RunConfig(names=("wc", "tee"))
        with pytest.raises(AttributeError):
            config.jobs = 2

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            validate_executor("fiber")

    def test_parallel_map_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            parallel_map(lambda x, _obs: x, [1], jobs=2, executor="fiber")


def _square_task(item, obs):
    obs.metrics.inc("tick")
    return item * item


class TestParallelMap:
    def test_process_backend_with_picklable_task(self):
        obs = Observability.create()
        items = list(range(8))
        result = parallel_map(
            _square_task, items, jobs=2, obs=obs, executor="process"
        )
        assert result == [x * x for x in items]
        assert obs.metrics.counters["tick"] == len(items)

    def test_order_preserved(self):
        items = list(range(20))
        assert parallel_map(lambda x, _obs: x * x, items, jobs=4) == [
            x * x for x in items
        ]

    def test_serial_uses_parent_obs(self):
        obs = Observability.create()
        parallel_map(
            lambda x, child: child.metrics.inc("tick"), [1, 2], jobs=1, obs=obs
        )
        assert obs.metrics.counters["tick"] == 2

    def test_parallel_metrics_merge(self):
        obs = Observability.create()
        parallel_map(
            lambda x, child: child.metrics.inc("tick"),
            [1, 2, 3, 4],
            jobs=2,
            obs=obs,
        )
        assert obs.metrics.counters["tick"] == 4
