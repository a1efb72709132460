"""Tests for the observability subsystem: tracer, metrics, audit log,
no-op transparency, output-divergence diagnostics, and the CLI flags."""

import json
import logging

import pytest

from repro.compiler import compile_program
from repro.experiments.pipeline import (
    RunConfig,
    compare_outputs,
    run_benchmark,
    run_suite,
)
from repro.experiments.tables import all_tables
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.observability import (
    MAX_SAMPLES,
    NULL_OBS,
    DecisionReason,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Observability,
    TraceContext,
    Tracer,
    current,
    observing,
)
from repro.observability.context import new_trace_id, valid_id
from repro.observability.export import (
    SLOW_LOG_SCHEMA_VERSION,
    append_jsonl,
    load_trace,
    render_flamegraph,
    render_metrics_summary,
    slow_request_record,
)
from repro.observability.metrics import percentile
from repro.profiler.profile import RunSpec, profile_module
from repro.workloads import benchmark_by_name


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {r["name"]: r for r in tracer.records if r["type"] == "span"}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        # Inner closes first, so duration nests too.
        assert spans["inner"]["seconds"] <= spans["outer"]["seconds"]

    def test_span_attrs_added_inside_body(self):
        tracer = Tracer()
        with tracer.span("phase", fixed=1) as attrs:
            attrs["late"] = 2
        record = next(r for r in tracer.records if r["type"] == "span")
        assert record["attrs"] == {"fixed": 1, "late": 2}

    def test_event_attaches_to_open_span(self):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.event("milestone", n=3)
        span = next(r for r in tracer.records if r["type"] == "span")
        event = next(r for r in tracer.records if r["type"] == "event")
        assert event["span"] == span["id"]
        assert event["attrs"] == {"n": 3}

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            tracer.event("e")
        tracer.record({"type": "custom", "payload": [1, 2]})
        lines = tracer.to_jsonl().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "trace_start"
        types = {r["type"] for r in parsed}
        assert {"span", "event", "custom"} <= types

    def test_write_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write(str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["type"] == "span" for r in parsed)

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("x", a=1) as attrs:
            attrs["b"] = 2
            tracer.event("e")
        tracer.record({"type": "custom"})
        assert tracer.records == []
        assert not tracer.enabled


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.inc("calls")
        metrics.inc("calls", 4)
        assert metrics.counters["calls"] == 5

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("seconds", value)
        stats = metrics.histogram("seconds")
        assert stats["count"] == 3
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)

    def test_histogram_percentiles(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):
            metrics.observe("seconds", float(value))
        stats = metrics.histogram("seconds")
        assert stats["p50"] == pytest.approx(50.0)
        assert stats["p90"] == pytest.approx(90.0)
        assert stats["p99"] == pytest.approx(99.0)

    def test_histogram_percentiles_single_sample(self):
        metrics = MetricsRegistry()
        metrics.observe("seconds", 2.5)
        stats = metrics.histogram("seconds")
        assert stats["p50"] == stats["p90"] == stats["p99"] == 2.5

    def test_merge_combines_percentile_samples(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0):
            a.observe("seconds", value)
        for value in (9.0, 10.0):
            b.observe("seconds", value)
        a.merge(b)
        stats = a.histogram("seconds")
        assert stats["count"] == 4
        assert stats["p90"] == pytest.approx(10.0)
        assert stats["p50"] == pytest.approx(2.0)

    def test_summary_surfaces_percentiles(self):
        metrics = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            metrics.observe("seconds", value)
        text = render_metrics_summary(metrics)
        assert "p50=" in text and "p90=" in text and "p99=" in text

    def test_snapshot_json_round_trip(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.observe("c", 1.5)
        parsed = json.loads(metrics.to_json())
        assert parsed == {
            "counters": {"a": 1},
            "histograms": {"c": metrics.histogram("c")},
        }

    def test_null_metrics_discard(self):
        metrics = NullMetrics()
        metrics.inc("a")
        metrics.observe("c", 1)
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}

    def test_summary_table_renders_all_kinds(self):
        metrics = MetricsRegistry()
        metrics.inc("vm.calls", 12)
        metrics.observe("seconds", 0.25)
        text = render_metrics_summary(metrics)
        assert "vm.calls" in text and "counter" in text
        assert "seconds" in text and "histogram" in text

    def test_current_defaults_to_null(self):
        assert current() is NULL_OBS
        assert not NULL_OBS.enabled
        live = Observability.create()
        with observing(live):
            assert current() is live
        assert current() is NULL_OBS
        assert live.enabled


AUDIT_PROGRAM = """
int leaf(int x) { return x + 1; }
int once(int x) { return x * 2; }
int deep(int n) {
    if (n <= 0) return 0;
    return deep(n - 1) + leaf(n + 100);
}
int apply(int (*f)(int v), int x) { return f(x); }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 100; i++)
        s += leaf(i);
    s += once(s);
    s += deep(5);
    s += apply(leaf, 3);
    return 0;
}
"""


@pytest.fixture(scope="module")
def audit_module_and_profile():
    module = compile_program(AUDIT_PROGRAM, link_libc=False)
    profile = profile_module(module, [RunSpec()], check_exit=False)
    return module, profile


class TestInlineAuditLog:
    def _decisions(self, audit_module_and_profile, **param_overrides):
        module, profile = audit_module_and_profile
        params = InlineParameters(**param_overrides)
        result = inline_module(module, profile, params)
        return module, result

    def test_every_arc_audited_exactly_once(self, audit_module_and_profile):
        module, result = self._decisions(audit_module_and_profile)
        arcs = result.graph.call_site_arcs()
        decided_sites = [d.site for d in result.decisions]
        assert sorted(decided_sites) == sorted(arc.site for arc in arcs)
        assert len(set(decided_sites)) == len(decided_sites)

    def test_accepted_and_below_threshold(self, audit_module_and_profile):
        _, result = self._decisions(audit_module_and_profile)
        by_pair = {
            (d.caller, d.callee): d for d in result.decisions
        }
        hot = by_pair[("main", "leaf")]
        assert hot.reason is DecisionReason.ACCEPTED
        assert hot.accepted
        assert hot.cost is not None
        assert hot.inputs["weight"] >= hot.inputs["weight_threshold"]
        cold = by_pair[("main", "once")]
        assert cold.reason is DecisionReason.BELOW_THRESHOLD
        assert cold.inputs["weight"] < cold.inputs["weight_threshold"]

    def test_pointer_call_not_direct(self, audit_module_and_profile):
        _, result = self._decisions(audit_module_and_profile)
        pointer = [
            d for d in result.decisions if d.reason is DecisionReason.NOT_DIRECT
        ]
        assert pointer
        assert any(d.caller == "apply" for d in pointer)

    def test_self_recursion_is_order_violation_in_selection(
        self, audit_module_and_profile
    ):
        # The linear order puts deep at one position, so the deep->deep
        # arc violates callee-before-caller and never reaches the cost
        # function.
        _, result = self._decisions(audit_module_and_profile)
        self_arc = next(
            d for d in result.decisions if d.caller == "deep" and d.callee == "deep"
        )
        assert self_arc.reason is DecisionReason.ORDER_VIOLATION

    def test_recursive_limit(self, audit_module_and_profile):
        # stack_bound=0 makes any expansion touching the recursion
        # (deep -> leaf) a control-stack hazard.
        _, result = self._decisions(audit_module_and_profile, stack_bound=0)
        hazard = next(
            d for d in result.decisions if d.caller == "deep" and d.callee == "leaf"
        )
        assert hazard.reason is DecisionReason.RECURSIVE_LIMIT
        assert hazard.inputs["stack_usage"] > 0
        assert hazard.inputs["stack_bound"] == 0
        assert hazard.inputs["caller_recursive"]

    def test_size_limit(self, audit_module_and_profile):
        # A 1.0 growth factor forbids any growth at all.
        _, result = self._decisions(audit_module_and_profile, size_limit_factor=1.0)
        hot = next(
            d for d in result.decisions if d.caller == "main" and d.callee == "leaf"
        )
        assert hot.reason is DecisionReason.SIZE_LIMIT
        assert (
            hot.inputs["program_size"] + hot.inputs["size_delta"]
            > hot.inputs["size_limit"]
        )

    def test_max_expansions(self, audit_module_and_profile):
        _, result = self._decisions(audit_module_and_profile, max_expansions=0)
        reasons = [decision.reason for decision in result.decisions]
        assert DecisionReason.ACCEPTED not in reasons
        assert DecisionReason.MAX_EXPANSIONS in reasons

    def test_self_recursive_reason_in_cost_model(self, audit_module_and_profile):
        from repro.callgraph.build import build_call_graph
        from repro.inliner.cost import make_cost_model

        module, profile = audit_module_and_profile
        graph = build_call_graph(module, profile)
        model = make_cost_model(module, graph, InlineParameters())
        self_arc = next(
            arc
            for arc in graph.call_site_arcs()
            if arc.caller == "deep" and arc.callee == "deep"
        )
        decision = model.evaluate(self_arc)
        assert decision.reason is DecisionReason.SELF_RECURSIVE
        assert decision.cost == float("inf")

    def test_decision_record_shape(self, audit_module_and_profile):
        _, result = self._decisions(audit_module_and_profile)
        record = result.decisions[0].to_record()
        assert record["type"] == "inline_decision"
        assert {"site", "caller", "callee", "weight", "reason", "inputs"} <= set(
            record
        )
        json.dumps(record)  # must be JSON-serializable as-is


class TestNoOpTransparency:
    def test_observed_run_matches_unobserved_byte_for_byte(self):
        benchmark = benchmark_by_name("cmp")
        plain = run_benchmark(benchmark, RunConfig())
        with observing(Observability.create()) as obs:
            observed = run_benchmark(benchmark, RunConfig())
        assert all_tables([plain]) == all_tables([observed])
        # The observed run actually recorded something.
        assert obs.metrics.counters["pipeline.benchmarks"] == 1
        assert any(
            r.get("type") == "inline_decision" for r in obs.tracer.records
        )

    def test_trace_covers_all_arcs_of_benchmark(self):
        with observing(Observability.create()) as obs:
            result = run_benchmark(benchmark_by_name("cmp"), RunConfig())
        decision_sites = [
            r["site"]
            for r in obs.tracer.records
            if r.get("type") == "inline_decision"
        ]
        arc_sites = [a.site for a in result.inline.graph.call_site_arcs()]
        assert sorted(decision_sites) == sorted(arc_sites)


class TestOutputDivergenceDiagnostics:
    def _module(self, body: str):
        return compile_program(
            "#include <sys.h>\n" + body, link_libc=True
        )

    def test_matching_modules(self):
        module = self._module("int main(void) { putchar('a'); return 0; }")
        comparison = compare_outputs(module, module, [RunSpec()])
        assert comparison.matches
        assert comparison.divergences == []

    def test_stdout_divergence_is_described(self):
        module_a = self._module("int main(void) { putchar('a'); return 0; }")
        module_b = self._module("int main(void) { putchar('b'); return 0; }")
        comparison = compare_outputs(
            module_a, module_b, [RunSpec(label="probe")]
        )
        assert not comparison.matches
        (detail,) = comparison.divergences
        assert detail.startswith("probe:")
        assert "stdout differs at byte 0" in detail

    def test_exit_code_divergence_is_described(self):
        module_a = self._module("int main(void) { return 0; }")
        module_b = self._module("int main(void) { return 3; }")
        comparison = compare_outputs(module_a, module_b, [RunSpec()])
        (detail,) = comparison.divergences
        assert "exit code 0 != 3" in detail
        assert detail.startswith("input 0:")

    def test_stderr_divergence_is_described(self):
        module_a, module_b = (
            self._module(body) for body in self.PAIRS["stderr"]
        )
        comparison = compare_outputs(
            module_a, module_b, [RunSpec(label="probe")]
        )
        assert comparison.divergences == [
            "probe: stderr differs at byte 0 (lengths 1 vs 1)"
        ]

    def test_benchmark_result_carries_divergences(self):
        result = run_benchmark(benchmark_by_name("cmp"), RunConfig())
        assert result.outputs_match
        assert result.output_divergences == []

    #: Module pairs: equal, and diverging on each output channel.
    PAIRS = {
        "match": (
            "int main(void) { putchar('a'); return 0; }",
            "int main(void) { putchar('a'); return 0; }",
        ),
        "stdout": (
            "int main(void) { putchar('a'); return 0; }",
            "int main(void) { putchar('b'); return 0; }",
        ),
        "exit": ("int main(void) { return 0; }", "int main(void) { return 3; }"),
        "stderr": (
            "int main(void) { eputc('a'); putchar('x'); return 0; }",
            "int main(void) { eputc('b'); putchar('x'); return 0; }",
        ),
        "files": (
            'int main(void) { int fd = open("o", O_WRITE);'
            " fputc('a', fd); close(fd); return 0; }",
            'int main(void) { int fd = open("o", O_WRITE);'
            " fputc('b', fd); close(fd); return 0; }",
        ),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_observed_divergences_equal_running_ones(self, pair):
        module_a, module_b = (self._module(body) for body in self.PAIRS[pair])
        specs = [RunSpec(label="probe"), RunSpec(stdin=b"x")]
        running = compare_outputs(module_a, module_b, specs)
        assert running.reused == 0
        before = profile_module(module_a, specs, check_exit=False).observations
        after = profile_module(module_b, specs, check_exit=False).observations
        for recorded in (
            {"before": before, "after": after},
            {"before": before},
            {"after": after},
        ):
            observed = compare_outputs(module_a, module_b, specs, **recorded)
            assert observed.matches == running.matches
            assert observed.divergences == running.divergences
        assert (pair == "match") == running.matches

    def test_matching_observations_run_nothing(self):
        module = self._module("int main(void) { putchar('a'); return 0; }")
        specs = [RunSpec(), RunSpec(stdin=b"x")]
        seen = profile_module(module, specs).observations
        both = compare_outputs(module, module, specs, before=seen, after=seen)
        assert (both.reused, both.rerun) == (2, 0)
        one_side = compare_outputs(module, module, specs, before=seen)
        assert (one_side.reused, one_side.rerun) == (0, 2)
        # Observations of another input set are ignored, not misapplied.
        other = compare_outputs(
            module, module, specs, before=seen[:1], after=seen[:1]
        )
        assert (other.reused, other.rerun) == (0, 2)

    def test_check_span_and_metric_count_reuse(self):
        with observing(Observability.create()) as obs:
            result = run_benchmark(benchmark_by_name("cmp"), RunConfig())
        (span,) = [
            r for r in obs.tracer.records
            if r.get("name") == "benchmark.check_outputs"
        ]
        assert span["attrs"]["reused"] == result.runs
        assert span["attrs"]["rerun"] == 0
        assert obs.metrics.counters["pipeline.check.reused_inputs"] == result.runs


class TestSuiteLogging:
    def test_progress_uses_repro_logger(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.experiments"):
            run_suite(RunConfig(names=["cmp"]))
        messages = [r.getMessage() for r in caplog.records]
        assert any("[cmp] running ..." in m for m in messages)


class TestCliObservabilityFlags:
    PROGRAM = """
#include <sys.h>
int triple(int x) { return x * 3; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 40; i++)
        s += triple(i);
    print_int(s);
    return 0;
}
"""

    @pytest.fixture
    def c_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_inline_trace_and_metrics(self, c_file, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = cli_main(
            [
                "inline",
                c_file,
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert any(r["type"] == "inline_decision" for r in records)
        assert any(
            r["type"] == "span" and r["name"] == "frontend.compile"
            for r in records
        )
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["frontend.tokens_lexed"] > 0
        assert snapshot["counters"]["vm.instructions_retired"] > 0
        assert "wrote trace" in capsys.readouterr().err

    def test_run_trace_flag(self, c_file, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = tmp_path / "trace.jsonl"
        code = cli_main(["run", c_file, "--trace", str(trace)])
        assert code == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert any(r["type"] == "span" for r in records)

    def test_tables_trace_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = experiments_main(
            [
                "table4",
                "--benchmarks",
                "tee",
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        decisions = [r for r in records if r["type"] == "inline_decision"]
        assert decisions
        assert all(d["benchmark"] == "tee" for d in decisions)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["pipeline.benchmarks"] == 1


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

    @pytest.mark.parametrize(
        "text, line",
        [
            ('{"type": "span"}\n[1, 2]\n', 2),
            ('{"a": 1}\n', 1),
            ("{\n", 1),
            ("[" * 100_000 + "\n", 1),
        ],
        ids=["not-an-object", "no-type", "bad-json", "too-deep"],
    )
    def test_load_trace_names_the_first_non_record_line(
        self, tmp_path, text, line
    ):
        path = tmp_path / "not-a-trace.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^line {line} is not a trace"):
            load_trace(str(path))


class TestCompileWithAnalysisObservability:
    def test_obs_threads_through_same_spans(self):
        from repro.compiler import compile_with_analysis

        with observing(Observability.create()) as obs:
            result = compile_with_analysis(
                "#include <sys.h>\nint main(void){ putchar('x'); return 0; }\n"
            )
        assert result.module.functions
        span_names = {
            r["name"] for r in obs.tracer.records if r["type"] == "span"
        }
        assert {
            "frontend.compile",
            "frontend.preprocess",
            "frontend.parse",
            "frontend.analyze",
            "frontend.lower",
            "frontend.verify",
        } <= span_names
        assert obs.metrics.counters["frontend.modules_compiled"] == 1

    def test_default_stays_silent(self):
        from repro.compiler import compile_with_analysis

        result = compile_with_analysis(
            "#include <sys.h>\nint main(void){ return 0; }\n"
        )
        assert result.analysis is not None


class TestObservabilityAbsorb:
    def test_absorb_renumbers_and_tags(self):
        parent = Observability.create()
        child = Observability.create()
        with child.tracer.span("child.work"):
            child.tracer.event("tick")
        child.metrics.inc("widgets", 3)
        with parent.tracer.span("parent.outer"):
            parent.absorb(child, worker="w-0")
        records = parent.tracer.records
        child_span = next(
            r for r in records if r["type"] == "span" and r["name"] == "child.work"
        )
        outer = next(
            r for r in records if r["type"] == "span" and r["name"] == "parent.outer"
        )
        assert child_span["worker"] == "w-0"
        assert child_span["parent"] == outer["id"]
        assert parent.metrics.counters["widgets"] == 3
        ids = [r["id"] for r in records if "id" in r]
        assert len(ids) == len(set(ids))

    def test_null_obs_absorb_is_noop(self):
        from repro.observability import NULL_OBS

        child = Observability.create()
        child.metrics.inc("x")
        NULL_OBS.absorb(child)  # must not raise or record anything
        assert NULL_OBS.tracer.records == []


class TestTraceContext:
    def test_mint_is_unique_hex(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert valid_id(a.trace_id) and valid_id(a.request_id)

    def test_wire_round_trip(self):
        context = TraceContext.mint()
        assert TraceContext.from_wire(context.to_wire()) == context

    def test_from_wire_rejects_garbage(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("deadbeef") is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"trace_id": "not hex!"}) is None
        assert TraceContext.from_wire({"trace_id": "ab"}) is None  # too short

    def test_from_wire_remints_bad_request_id(self):
        context = TraceContext.from_wire({"trace_id": "deadbeef01", "request_id": "!"})
        assert context.trace_id == "deadbeef01"
        assert valid_id(context.request_id)


class TestTracerBoundContext:
    def test_bind_stamps_every_record(self):
        tracer = Tracer()
        tracer.bind(trace_id="abc123")
        with tracer.span("work"):
            tracer.event("tick")
        tracer.record({"type": "custom"})
        stamped = [r for r in tracer.records if r["type"] != "trace_start"]
        assert stamped and all(r["trace_id"] == "abc123" for r in stamped)

    def test_context_manager_is_scoped(self):
        tracer = Tracer()
        with tracer.context(trace_id="inner"):
            tracer.event("a")
        tracer.event("b")
        events = {r["name"]: r for r in tracer.records if r["type"] == "event"}
        assert events["a"]["trace_id"] == "inner"
        assert "trace_id" not in events["b"]

    def test_bind_ignores_none_values(self):
        tracer = Tracer()
        tracer.bind(trace_id=None)
        assert tracer.bound_context() == {}

    def test_explicit_attr_wins_over_bound_context(self):
        tracer = Tracer()
        tracer.bind(trace_id="bound")
        tracer.event("e", trace_id="explicit")
        event = next(r for r in tracer.records if r["type"] == "event")
        # The event's own attrs dict keeps the explicit value; the
        # top-level stamp comes from the bound context only when absent.
        assert event["attrs"]["trace_id"] == "explicit"

    def test_absorb_forwards_parent_context_without_overwriting(self):
        parent, child = Tracer(), Tracer()
        parent.bind(trace_id="parent-trace", run="r1")
        child.bind(trace_id="child-trace")
        with child.span("w"):
            pass
        parent.absorb(child, worker="w-0")
        span = next(r for r in parent.records if r["type"] == "span")
        assert span["trace_id"] == "child-trace"  # child's own stamp kept
        assert span["run"] == "r1"  # parent context forwarded
        assert span["worker"] == "w-0"

    def test_null_tracer_context_is_noop(self):
        tracer = NullTracer()
        tracer.bind(trace_id="x")
        with tracer.context(trace_id="y"):
            tracer.event("e")
        assert tracer.bound_context() == {}
        assert tracer.records == []


class TestAbsorbTimestampRebase:
    def test_child_timestamps_rebased_to_parent_timeline(self):
        parent, child = Tracer(), Tracer()
        # Simulate a worker whose trace started 5s after the parent's.
        child._unix_start = parent.unix_start + 5.0
        with child.span("work"):
            child.event("tick")
        child_span = next(r for r in child.records if r["type"] == "span")
        child_event = next(r for r in child.records if r["type"] == "event")
        parent.absorb(child, worker="w-0")
        span = next(r for r in parent.records if r["type"] == "span")
        event = next(r for r in parent.records if r["type"] == "event")
        assert span["start"] == pytest.approx(child_span["start"] + 5.0)
        assert event["t"] == pytest.approx(child_event["t"] + 5.0)

    def test_same_origin_child_is_not_shifted(self):
        parent, child = Tracer(), Tracer()
        child._unix_start = parent.unix_start
        with child.span("work"):
            pass
        original = next(r for r in child.records if r["type"] == "span")["start"]
        parent.absorb(child)
        absorbed = next(r for r in parent.records if r["type"] == "span")["start"]
        assert absorbed == original

    def test_child_without_recorded_start_is_absorbed_unrebased(self):
        parent, child = Tracer(), Tracer()
        del child._unix_start  # an old pickled tracer
        with child.span("work"):
            pass
        parent.absorb(child)  # must not raise
        assert any(r["type"] == "span" for r in parent.records)


class TestPercentileEdgeCases:
    def test_empty_samples_do_not_raise(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 1) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_default_reservoir_bound_documented_value(self):
        assert MAX_SAMPLES == 4096

    def test_reservoir_keeps_the_first_max_samples(self):
        metrics = MetricsRegistry()
        for value in range(MAX_SAMPLES + 100):
            metrics.observe("s", float(value))
        stats = metrics.histogram("s")
        assert stats["count"] == MAX_SAMPLES + 100  # the summary stays exact
        assert stats["max"] == MAX_SAMPLES + 99
        assert metrics._samples["s"] == [float(v) for v in range(MAX_SAMPLES)]

    def test_merge_respects_receiver_bound(self):
        full, other = MetricsRegistry(), MetricsRegistry()
        for value in range(MAX_SAMPLES - 2):
            full.observe("s", float(value))
        for value in range(10):
            other.observe("s", 100.0 + value)
        full.merge(other)
        assert full._samples["s"][-2:] == [100.0, 101.0]
        assert len(full._samples["s"]) == MAX_SAMPLES
        assert full.histogram("s")["count"] == MAX_SAMPLES + 8


class TestSlowRequestLog:
    def test_record_schema(self):
        record = slow_request_record(
            kind="slow",
            op="inline",
            seconds=1.5,
            trace_id="abc",
            request_id="def",
            threshold=1.0,
            cache_hits=2,
            cache_misses=1,
            unix_time=123.0,
        )
        assert record["schema"] == SLOW_LOG_SCHEMA_VERSION
        assert record["kind"] == "slow"
        assert record["op"] == "inline"
        assert record["seconds"] == 1.5
        assert record["trace_id"] == "abc"
        assert record["request_id"] == "def"
        assert record["threshold"] == 1.0
        assert record["cache_hits"] == 2
        assert record["cache_misses"] == 1
        assert record["unix_time"] == 123.0
        assert "error" not in record

    def test_error_record_carries_error(self):
        record = slow_request_record(
            kind="error",
            op="bench",
            seconds=0.1,
            trace_id="t",
            request_id="r",
            threshold=1.0,
            error="ValueError: boom",
            unix_time=1.0,
        )
        assert record["kind"] == "error"
        assert record["error"] == "ValueError: boom"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            slow_request_record(
                kind="fast",
                op="x",
                seconds=0.0,
                trace_id="t",
                request_id="r",
                threshold=0.0,
                unix_time=0.0,
            )

    def test_append_jsonl_appends_one_line_each(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        append_jsonl(str(path), {"a": 1})
        append_jsonl(str(path), {"b": 2})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"a": 1}, {"b": 2}]
