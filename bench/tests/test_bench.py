"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import collections
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import agree  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

SMOKE_PROGRAMS = ["wc", "tee", "cmp"]


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ----------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["program", 0.0, 10.0, None, {}],
        ["inliner", 1.0, 5.0, 0, {}],
        ["classify", 2.0, 3.0, 1, {}],
        ["vm", 6.0, 9.0, 0, {}],
    ]
    assert layers.self_times(spans) == [3.0, 3.0, 1.0, 3.0]


def test_nested_wrappers_record_parents_and_partition_time():
    log = layers.SpanLog()

    def inner():
        time.sleep(0.01)

    wrapped_inner = layers._wrap(log, inner, "vm", None, None)

    def outer():
        wrapped_inner()
        time.sleep(0.01)
        wrapped_inner()

    layers._wrap(log, outer, "program", None, None)()
    assert [span[0] for span in log.spans] == ["program", "vm", "vm"]
    assert [span[3] for span in log.spans] == [None, 0, 0]
    own = layers.self_times(log.spans)
    root = log.spans[0][2] - log.spans[0][1]
    assert sum(own) == pytest.approx(root)
    assert own[0] >= 0.01


def test_layer_metrics_attribute_checks_hits_and_programs():
    spans = [
        ["program", 0.0, 10.0, None, {"program": "wc"}],
        ["session", 0.0, 2.0, 0, {}],
        ["frontend", 0.0, 2.0, 1, {"lines": 100}],  # a miss: it compiled
        ["session", 2.0, 2.5, 0, {}],  # a hit
        ["vm", 3.0, 5.0, 0, {"first": True, "il": 100}],
        ["check", 5.0, 9.0, 0, {}],
        ["vm", 5.0, 9.0, 5, {"first": False, "il": 1000}],
        ["program", 10.0, 20.0, None, {"program": "tee"}],
    ]
    metrics = {name: value for name, (value, _unit) in layers.layer_metrics(spans, 2).items()}
    assert metrics["session.hit_rate"] == 0.5
    assert metrics["session.calls"] == 1.0  # per item
    assert metrics["frontend.share"] == pytest.approx(2 / 20)
    assert metrics["vm.share"] == pytest.approx(6 / 20)
    assert metrics["vm.check_share"] == pytest.approx(4 / 20)
    assert metrics["vm.first_run_share"] == pytest.approx(2 / 20)
    assert metrics["vm.il_per_s"] == pytest.approx(1000 / 4)
    assert metrics["frontend.lines_per_s"] == pytest.approx(50.0)
    assert metrics["program.wc.share"] == pytest.approx(0.5)
    assert metrics["program.wc.vm_share"] == pytest.approx(1.0)
    assert metrics["program.tee.vm_share"] == 0.0
    assert set(metrics) < set(declared("per_layer"))


def test_concatenated_runs_keep_their_own_parents():
    one = [
        ["program", 0.0, 10.0, None, {"program": "wc"}],
        ["vm.link", 1.0, 2.0, 0, {}],
        ["vm", 2.0, 6.0, 0, {"first": True, "il": 10}],
    ]
    two = layers.concat([one, one])
    assert [span[3] for span in two] == [None, 0, 0, None, 3, 3]
    assert layers.self_times(two) == layers.self_times(one) * 2
    assert layers.layer_metrics(two, 2) == layers.layer_metrics(one, 1)


def test_unclosed_spans_are_dropped_and_their_children_kept(tmp_path):
    spans = [
        ["program", 0.0, None, None, {}],
        ["vm", 1.0, 2.0, 0, {}],
        ["vm", 3.0, 4.0, None, {}],
    ]
    (tmp_path / "p.1.json").write_text(json.dumps(spans))
    (tmp_path / "p.2.json").write_text(json.dumps(spans))
    loaded = layers.load_spans(str(tmp_path / "p"))
    assert [span[3] for span in loaded] == [None, None, None, None]
    assert len(loaded) == 4


# ----------------------------------------------------------------------
# statistics


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(400) == 97
    assert run.tail_percentile(1000) == 99
    for n in (11, 57, 400, 1000):
        pct = run.tail_percentile(n)
        assert n * (100 - pct) / 100 >= 10
        assert n * (100 - (pct + 1)) / 100 < 10


def test_percentile_and_summary():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == statistics.median(values)
    assert run.percentile(values, 95) == pytest.approx(95.05)
    summary = run.summarize([1.0, 2.0, 3.0, 4.0])
    assert summary["value"] == 2.5 and summary["n"] == 4
    assert summary["q1"] < summary["value"] < summary["q3"]


def test_tail_is_the_same_percentile_for_any_count():
    # Falling back to another statistic below some count would make a
    # slow machine, which fits fewer requests in a window, jump.
    result = run.Result("w", 1, False)
    for count in (200, 150):
        many = [float(v) for v in range(1, count + 1)]
        result.add_tail("tail", many, 95)
        assert result.metrics["tail"]["value"] == run.percentile(many, 95)
        assert result.metrics["tail"]["value"] > 0.9 * count
    assert run.percentile([7.0], 95) == 7.0


# ----------------------------------------------------------------------
# the speed probe


def probe_with(samples) -> speed.Probe:
    probe = speed.Probe(0)
    probe.samples = samples
    return probe


def test_scaling_uses_the_samples_around_the_interval():
    ref = speed.REFERENCE_S
    # The machine runs at half the reference speed from t=10 to t=20.
    samples = [(t / 10, ref) for t in range(0, 100)]
    samples += [(t / 10, 2 * ref) for t in range(100, 200)]
    probe = probe_with(samples)
    assert probe.factor(2.0, 5.0) == pytest.approx(1.0)
    assert probe.factor(12.0, 18.0) == pytest.approx(0.5)
    # Four seconds measured at half speed are two at the reference speed.
    assert probe.scaled(4.0, 12.0, 16.0) == pytest.approx(2.0)


def test_short_intervals_use_the_nearest_samples():
    ref = speed.REFERENCE_S
    samples = [(0.0, ref), (1.0, ref), (2.0, ref), (10.0, 2 * ref), (11.0, 2 * ref),
               (12.0, 2 * ref), (13.0, 2 * ref), (14.0, 2 * ref)]
    probe = probe_with(samples)
    # No sample lies near t=11.5, so the five nearest decide.
    assert probe.factor(11.5, 11.51) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        probe_with([]).factor(0.0, 1.0)


def test_probe_samples_its_cpu_and_stops():
    cpu = run.measuring_cpu()
    with speed.Probe(cpu) as probe:
        proc = probe._proc
        time.sleep(0.3)
    assert proc.returncode == 0
    assert len(probe.samples) >= 3
    assert all(duration > 0 for _t, duration in probe.samples)
    start, end = probe.samples[0][0], probe.samples[-1][0]
    assert 0.1 < probe.factor(start, end) < 10


def test_measuring_pins_to_one_cpu_and_restores():
    before = os.sched_getaffinity(0)
    with run.measuring():
        assert os.sched_getaffinity(0) == {max(before)}
    assert os.sched_getaffinity(0) == before


# ----------------------------------------------------------------------
# the service request stream and oracles


@pytest.fixture(scope="module")
def inputs():
    return run.service_inputs()


def requests(seed: int, count: int, inputs: dict) -> list[dict]:
    return list(itertools.islice(run.request_stream(seed, inputs), count))


def test_same_seed_gives_the_same_requests(inputs):
    first = requests(7, 2 * run.ROUND, inputs)
    assert first == requests(7, 2 * run.ROUND, inputs)
    assert first != requests(8, 2 * run.ROUND, inputs)


def test_each_round_holds_the_exact_mix(inputs):
    round_ = requests(3, run.ROUND, inputs)
    for program in run.SERVICE_PROGRAMS:
        for op, weight in run.OP_MIX:
            chosen = [r for r in round_ if r["program"] == program and r["op"] == op]
            assert len(chosen) == weight


def test_every_input_comes_up_equally_often(inputs):
    stream = requests(5, 4 * run.ROUND + 7, inputs)
    for program in run.SERVICE_PROGRAMS:
        for op, _weight in run.OP_MIX:
            counts = collections.Counter(
                r["run"] for r in stream if r["program"] == program and r["op"] == op
            )
            assert set(counts) == set(range(len(inputs[program]["runs"])))
            assert max(counts.values()) - min(counts.values()) <= 1


def test_wc_oracle_counts_like_wc_c():
    assert run.wc_counts("a b\tc\n\nd  e\n") == "3 5 12\n"
    sample = {
        "request": run.make_request("profile", "wc", 0, {
            "wc": {"source": "", "runs": [("one two\n", [])]},
        }),
        "envelope": {"ok": True, "result": {"stdout": "1 2 8\n"}},
    }
    assert run.oracle_errors(sample) == []
    sample["envelope"]["result"]["stdout"] = "1 3 8\n"
    assert run.oracle_errors(sample)


def test_tee_oracle_compares_stdout_with_stdin():
    fake = {"tee": {"source": "", "runs": [("x\ny\n", ["out-a.txt"])]}}
    sample = {
        "request": run.make_request("profile", "tee", 0, fake),
        "envelope": {"ok": True, "result": {"stdout": "x\ny\n"}},
    }
    assert run.oracle_errors(sample) == []
    sample["envelope"]["result"]["stdout"] = "x\n"
    assert run.oracle_errors(sample)


def test_engine_fallback_when_fast_tier_is_gone(monkeypatch):
    import repro.vm.machine as machine

    assert run.tables_engine("tables-fast-cold") == "fast"
    assert run.tables_engine("tables-cold") == "counting"
    monkeypatch.setattr(machine, "ENGINES", ("counting",))
    assert run.tables_engine("tables-fast-cold") == "counting"


def test_agree_allows_the_bound_and_demands_exact_counts():
    spec = {"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "gen_il", "unit": "count", "better": "lower", "bound": 0.001},
    ]}

    def result(latency, il):
        return {"workloads": {"w": {"metrics": {
            "latency_p50_ms": {"value": latency}, "gen_il": {"value": il}}}}}

    assert all(row[-1] for row in agree.compare(spec, result(1.0, 5), result(1.09, 5)))
    assert not all(row[-1] for row in agree.compare(spec, result(1.0, 5), result(0.8, 5)))
    assert not all(row[-1] for row in agree.compare(spec, result(1.0, 5), result(1.0, 6)))


# ----------------------------------------------------------------------
# smoke runs of each workload


@pytest.mark.parametrize("workload", ["tables-cold", "tables-fast-cold", "tables-warm"])
def test_tables_workload_smoke(workload, tmp_path):
    result = run.run_tables(workload, 1, 0, False, tmp_path, names=SMOKE_PROGRAMS)
    assert result.correct, result.errors
    assert {n: m["unit"] for n, m in result.metrics.items()} == declared("end_to_end")
    assert result.metrics["gen_code_size"]["value"] > 0


def test_tables_workload_traced_smoke(tmp_path):
    result = run.run_tables("tables-warm", 1, 0, True, tmp_path, names=SMOKE_PROGRAMS)
    assert result.correct, result.errors
    assert {n: m["unit"] for n, m in result.metrics.items()} == declared("per_layer")
    assert result.metrics["session.hit_rate"]["value"] == 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_service_workload_smoke(trace, tmp_path):
    result = run.run_service(1, 60, trace, tmp_path, max_requests=20)
    assert result.correct, result.errors
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result.metrics.items()} == declared(kind)
    assert result.detail["requests"] == 20
