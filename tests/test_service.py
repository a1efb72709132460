"""Tests for the compilation service: ops, server, client, dedup,
health/stats introspection, trace propagation, and the slow log."""

import json
import os
import signal
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.observability import Observability, TraceContext
from repro.observability.context import valid_id
from repro.pipeline.session import CACHE_FORMAT
from repro.service import (
    ServiceClient,
    ServiceError,
    execute,
    request_key,
    run_concurrent,
    serve_in_thread,
)
from repro.service.server import MAX_REQUEST_BYTES, CompilationService

PROGRAM = """
#include <sys.h>
int triple(int x) { return x * 3; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 40; i++)
        s += triple(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""

#: Runs for about a second in the counting interpreter.
SLOW = """
#include <sys.h>
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 200000; i++)
        s += i & 7;
    print_int(s);
    putchar('\\n');
    return 0;
}
"""

ECHO = """
#include <sys.h>
int main(void) {
    int c = getchar();
    while (c != EOF) { putchar(c); c = getchar(); }
    return 0;
}
"""


@pytest.fixture
def service(tmp_path):
    """A running service (thread pool, 2 workers) plus its parent obs."""
    socket_path = str(tmp_path / "svc.sock")
    obs = Observability.create()
    handle = serve_in_thread(socket_path, jobs=2, executor="thread", obs=obs)
    yield socket_path, obs, handle
    if not handle.service._stopped.is_set():
        handle.stop()


class TestRequestKey:
    def test_same_request_same_key(self):
        assert request_key("inline", {"source": PROGRAM}) == request_key(
            "inline", {"source": PROGRAM}
        )

    def test_key_covers_op_and_params(self):
        base = request_key("inline", {"source": PROGRAM})
        assert request_key("check", {"source": PROGRAM}) != base
        assert request_key("inline", {"source": PROGRAM, "threshold": 1}) != base

    @pytest.mark.parametrize(
        "one, other",
        [
            ({"passes": "fold"}, {"passes": "constant-fold"}),
            ({}, {"passes": ""}),
            ({}, {"passes": None}),
            ({"passes": "fold, dce"}, {"passes": "fold,dce"}),
        ],
        ids=["alias", "absent", "null", "blanks"],
    )
    def test_one_pipeline_spelled_two_ways_shares_a_key(self, one, other):
        assert request_key("inline", {"source": PROGRAM, **one}) == request_key(
            "inline", {"source": PROGRAM, **other}
        )

    def test_different_pipelines_keep_different_keys(self):
        keys = {
            request_key("inline", {"source": PROGRAM, "passes": passes})
            for passes in ("fold", "dce", "fold,dce", "dce,fold", "")
        }
        assert len(keys) == 5

    @pytest.mark.parametrize("passes", ["bogus", " , ", 3, ["fold"]])
    def test_a_spec_that_does_not_parse_is_keyed_as_sent(self, passes):
        # ... and still gets its ValueError envelope when it runs.
        base = request_key("compile", {"source": PROGRAM})
        assert request_key("compile", {"source": PROGRAM, "passes": passes}) != base
        with pytest.raises(ValueError):
            execute("compile", {"source": PROGRAM, "passes": passes})


class TestOps:
    def test_compile_reports_sizes(self):
        result = execute("compile", {"source": PROGRAM})
        assert result["code_size"] > 0
        assert "main" in result["functions"]
        assert "il" not in result

    def test_compile_dump_includes_il(self):
        result = execute("compile", {"source": PROGRAM, "dump": True})
        assert "func main" in result["il"] or "main" in result["il"]

    def test_profile_runs_the_program(self):
        result = execute("profile", {"source": ECHO, "stdin": "ping"})
        assert result["exit_code"] == 0
        assert result["stdout"] == "ping"
        assert result["il"] > 0

    def test_inline_eliminates_hot_calls(self):
        result = execute("inline", {"source": PROGRAM, "threshold": 1.0})
        assert result["expanded"] >= 1
        assert result["calls_after"] < result["calls_before"]

    def test_check_compares_original_and_inlined(self):
        result = execute("check", {"source": PROGRAM, "threshold": 1.0})
        assert result["ok"] is True
        assert result["divergences"] == []

    def test_check_reuses_the_profiling_run(self, monkeypatch):
        # One machine profiles the original, one runs the inlined
        # module; the original's outputs come from its profiling run.
        from repro.vm.machine import Machine

        built = []
        original_init = Machine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", counting_init)
        result = execute("check", {"source": PROGRAM, "threshold": 1.0})
        assert result["ok"] is True
        assert len(built) == 2

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown operation"):
            execute("explode", {})

    def test_missing_source_raises(self):
        with pytest.raises(ValueError, match="source"):
            execute("compile", {})

    @pytest.mark.parametrize("passes, kind", [(5, "int"), (["fold"], "list")])
    def test_non_string_passes_raises(self, passes, kind):
        with pytest.raises(
            ValueError, match=f"^passes must be a string, got {kind}$"
        ):
            execute("compile", {"source": PROGRAM, "passes": passes})


class TestServiceRoundTrip:
    def test_ping(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            assert client.ping() == "pong"

    def test_service_matches_direct_calls(self, service):
        """The acceptance bar: service results == batch-path results."""
        socket_path, _obs, _handle = service
        requests = [
            ("compile", {"source": PROGRAM}),
            ("profile", {"source": ECHO, "stdin": "hello"}),
            ("inline", {"source": PROGRAM, "threshold": 1.0}),
            ("check", {"source": PROGRAM, "threshold": 1.0}),
        ]
        with ServiceClient(socket_path) as client:
            for op, params in requests:
                assert client.request(op, params) == execute(op, params)

    def test_error_reply_raises_service_error(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            with pytest.raises(ServiceError, match="unknown operation"):
                client.request("explode", {})
            # the connection survives an error reply
            assert client.ping() == "pong"

    def test_compile_error_is_an_error_reply_not_a_crash(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            with pytest.raises(ServiceError):
                client.compile("int main(void) { return !!!; }")
            assert client.stats()["counters"]["service.requests.failed"] == 1


class TestTextInputs:
    """stdin and argv travel as latin-1, the VM's own text encoding."""

    def test_latin1_stdin_round_trips(self):
        from repro.workloads.suite import benchmark_by_name

        for name, stdout in (("tee", "café\n"), ("wc", "1 1 5\n")):
            params = {
                "source": benchmark_by_name(name).source, "stdin": "café\n",
            }
            assert execute("profile", params)["stdout"] == stdout

    @pytest.mark.parametrize(
        "extra, name", [({"stdin": "€"}, "stdin"), ({"argv": ["€"]}, "argv")]
    )
    def test_beyond_latin1_is_one_error_envelope(self, service, extra, name):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = client.request(
                "profile", {"source": ECHO, **extra}, raw=True
            )
            assert reply["ok"] is False
            assert reply["error"].startswith(f"ValueError: {name} holds '€'")
            assert client.ping() == "pong"

    def test_string_argv_is_one_error_envelope(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = client.request(
                "profile", {"source": ECHO, "argv": "hello"}, raw=True
            )
            assert reply["ok"] is False
            assert reply["error"] == (
                "ValueError: argv must be a list of strings, got str"
            )
            assert client.ping() == "pong"


class TestMalformedRequests:
    """Every request line gets an envelope, and the server keeps
    answering afterwards."""

    @staticmethod
    def _send_line(client, line: bytes) -> dict:
        client._connection().sendall(line + b"\n")
        return json.loads(client._read_line())

    def test_non_object_body_is_a_bad_request(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            for body in (b"[]", b"[1, 2]", b"7", b'"ping"', b"null"):
                reply = self._send_line(client, body)
                assert reply["ok"] is False, body
                assert reply["error"].startswith(
                    "bad request: expected a JSON object"
                ), reply
            assert client.ping() == "pong"

    def test_non_object_params_are_a_bad_request(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = self._send_line(
                client, b'{"id": 9, "op": "compile", "params": [1]}'
            )
            assert reply == {
                "id": 9,
                "ok": False,
                "error": "bad request: params must be a JSON object, got list",
            }
            assert client.ping() == "pong"

    def test_invalid_utf8_is_a_bad_request(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = self._send_line(client, b'{"op": "\xff"}')
            assert reply["ok"] is False
            assert reply["error"].startswith("bad request: ")
            assert client.ping() == "pong"

    def test_deeply_nested_json_is_a_bad_request(self, service):
        # 100,000 bytes nest past the JSON decoder's recursion limit.
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = self._send_line(client, b"[" * 100_000)
            assert reply == {
                "id": None,
                "ok": False,
                "error": "bad request: JSON nested too deeply",
            }
            # The next line is ping's reply (id 1), not a second envelope.
            pong = client.request("ping", raw=True)
            assert (pong["id"], pong["result"]) == (1, "pong")

    def test_every_depth_near_the_decoder_limit_gets_one_envelope(
        self, service
    ):
        # Params that decode can still be too deep to encode again for
        # the request key, a few frames further down the stack.
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            for depth in range(900, 1001, 4):
                nested = b"[" * depth + b"]" * depth
                reply = self._send_line(
                    client, b'{"op": "compile", "params": {"x": ' + nested + b"}}"
                )
                assert reply["ok"] is False, depth
                assert reply["error"].startswith(
                    ("bad request: ", "ValueError: ")
                ), reply
            pong = client.request("ping", raw=True)
            assert (pong["id"], pong["result"]) == (1, "pong")

    def test_metrics_is_not_an_op(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = self._send_line(client, b'{"id": 5, "op": "metrics"}')
            assert reply["id"] == 5
            assert reply["ok"] is False
            assert "unknown operation 'metrics'" in reply["error"]
            # The next line is ping's reply (id 1), not a second envelope.
            pong = client.request("ping", raw=True)
            assert (pong["id"], pong["result"]) == (1, "pong")

    def test_stdin_over_64_kib_is_served(self, service):
        # asyncio's default line limit is 64 KiB.
        socket_path, _obs, _handle = service
        params = {"source": ECHO, "stdin": "0123456789abcde\n" * 5000}
        with ServiceClient(socket_path) as client:
            assert client.request("profile", params) == execute("profile", params)

    def test_line_over_the_limit_gets_one_reply_then_close(self, service):
        socket_path, _obs, _handle = service
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(socket_path)
            try:
                sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1) + b"\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server stops reading once the limit is passed
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        (line,) = received.splitlines()
        reply = json.loads(line)
        assert reply["ok"] is False
        assert reply["error"] == (
            f"bad request: request line longer than {MAX_REQUEST_BYTES} bytes"
        )
        with ServiceClient(socket_path) as client:
            assert client.ping() == "pong"


#: Any JSON value, nested a few levels.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

#: Request objects with any field set to any JSON value; ``op`` and the
#: ``params`` keys are often real ones, so the ops' own checks run too.
REQUESTS = st.fixed_dictionaries(
    {},
    optional={
        "op": st.sampled_from(
            ["compile", "profile", "inline", "check", "ping", "health", "stats"]
        )
        | JSON_VALUES,
        "params": st.dictionaries(
            st.sampled_from(
                ["source", "filename", "stdin", "argv", "passes",
                 "threshold", "growth", "dump"]
            ),
            st.sampled_from([PROGRAM, ECHO]) | JSON_VALUES,
            max_size=4,
        )
        | JSON_VALUES,
        "id": JSON_VALUES,
        "trace": JSON_VALUES,
    },
)

#: Newline-free request lines: raw bytes, any JSON value, any request.
LINES = st.one_of(
    st.binary(max_size=64).map(lambda raw: raw.replace(b"\n", b"")),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    REQUESTS.map(lambda request: json.dumps(request).encode()),
).filter(lambda line: b"shutdown" not in line)


@pytest.fixture(
    scope="class", params=[("thread", 2), ("process", 1)], ids=["thread", "process"]
)
def fuzz_service(request, tmp_path_factory):
    """One service for every example of the property: two pool threads,
    or one pool process, so requests that reach it cross pickling."""
    executor, jobs = request.param
    socket_path = str(tmp_path_factory.mktemp("fuzz") / "svc.sock")
    handle = serve_in_thread(socket_path, jobs=jobs, executor=executor)
    yield socket_path
    handle.stop()


class TestProtocolFuzz:
    """Whatever the line, the server answers it with exactly one
    envelope and keeps answering on the same connection."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(line=LINES)
    def test_one_envelope_per_line_then_ping(self, fuzz_service, line):
        with ServiceClient(fuzz_service) as client:
            reply = TestMalformedRequests._send_line(client, line)
            assert isinstance(reply, dict), reply
            assert isinstance(reply.get("ok"), bool), reply
            if not reply["ok"]:
                assert isinstance(reply.get("error"), str), reply
            pong = client.request("ping", raw=True)
            assert (pong["id"], pong["result"]) == (1, "pong"), line


class TestRequestFuel:
    """Every VM run an op makes is capped at ``ops.REQUEST_FUEL``."""

    RUNAWAY = "int main(void) { while (1) ; }"

    @pytest.mark.parametrize(
        "op, runs", [("profile", 1), ("inline", 2), ("check", 2)]
    )
    def test_every_run_of_an_op_is_capped(self, op, runs, monkeypatch):
        from repro.service.ops import REQUEST_FUEL
        from repro.vm.machine import Machine

        fuels = []
        original_init = Machine.__init__

        def spy(self, *args, **kwargs):
            fuels.append(kwargs.get("fuel"))
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", spy)
        execute(op, {"source": PROGRAM, "threshold": 1.0})
        assert fuels == [REQUEST_FUEL] * runs

    def test_a_runaway_request_gets_one_fuel_error(self, service, monkeypatch):
        from repro.service import ops

        monkeypatch.setattr(ops, "REQUEST_FUEL", 100_000)
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            reply = client.request("profile", {"source": self.RUNAWAY}, raw=True)
            assert (reply["id"], reply["ok"]) == (1, False)
            assert "fuel exhausted" in reply["error"]
            # The next line is ping's reply, not a second envelope.
            pong = client.request("ping", raw=True)
            assert (pong["id"], pong["result"]) == (2, "pong")


class TestDeduplication:
    def test_identical_concurrent_requests_coalesce(self, service):
        socket_path, obs, _handle = service
        envelopes = run_concurrent(
            socket_path,
            [("inline", {"source": PROGRAM, "threshold": 1.0})] * 6,
        )
        assert all(env["ok"] for env in envelopes)
        results = [env["result"] for env in envelopes]
        assert all(result == results[0] for result in results)
        assert sum(1 for env in envelopes if env["coalesced"]) >= 1
        assert obs.metrics.counters["service.requests.coalesced"] >= 1
        # coalesced requests share one computation: strictly fewer
        # executions than requests.
        with ServiceClient(socket_path) as client:
            stats = client.stats()
        histogram = stats["histograms"]["service.request_seconds"]
        assert histogram["count"] < len(envelopes)

    def test_distinct_requests_do_not_coalesce(self, service):
        socket_path, obs, _handle = service
        envelopes = run_concurrent(
            socket_path,
            [
                ("compile", {"source": PROGRAM}),
                ("compile", {"source": ECHO}),
            ],
        )
        assert all(env["ok"] for env in envelopes)
        assert (
            envelopes[0]["result"]["code_size"]
            != envelopes[1]["result"]["code_size"]
        )


class TestTelemetry:
    def test_per_request_telemetry_absorbed_into_parent(self, service):
        socket_path, obs, handle = service
        with ServiceClient(socket_path) as client:
            client.compile(PROGRAM)
        handle.stop()
        workers = {
            record.get("worker")
            for record in obs.tracer.records
            if record.get("worker")
        }
        assert any(worker.startswith("request-") for worker in workers)
        assert obs.metrics.counters["service.requests"] >= 1


class TestShutdown:
    def test_graceful_shutdown_removes_socket(self, tmp_path):
        socket_path = str(tmp_path / "stop.sock")
        handle = serve_in_thread(socket_path, jobs=1)
        with ServiceClient(socket_path) as client:
            assert client.ping() == "pong"
        handle.stop()
        assert not os.path.exists(socket_path)

    def test_shutdown_op_drains(self, tmp_path):
        socket_path = str(tmp_path / "drain.sock")
        handle = serve_in_thread(socket_path, jobs=2)
        with ServiceClient(socket_path) as client:
            assert client.inline(PROGRAM, threshold=1.0)["expanded"] >= 1
            assert client.shutdown() == "draining"
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        assert not os.path.exists(socket_path)


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            CompilationService("x.sock", jobs=0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            CompilationService("x.sock", executor="fiber")

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"jobs": 0}, "jobs must be >= 1")],
        ids=["jobs"],
    )
    def test_serve_in_thread_raises_the_startup_error(
        self, tmp_path, kwargs, message
    ):
        start = time.monotonic()
        with pytest.raises(ValueError, match=message):
            serve_in_thread(str(tmp_path / "bad.sock"), timeout=30, **kwargs)
        assert time.monotonic() - start < 5


class TestProcessBackend:
    def test_process_pool_round_trip_with_shared_cache(self, tmp_path):
        socket_path = str(tmp_path / "proc.sock")
        cache_dir = str(tmp_path / "cache")
        obs = Observability.create()
        handle = serve_in_thread(
            socket_path, jobs=2, executor="process", cache_dir=cache_dir, obs=obs
        )
        try:
            with ServiceClient(socket_path) as client:
                direct = execute("inline", {"source": PROGRAM, "threshold": 1.0})
                assert client.inline(PROGRAM, threshold=1.0) == direct
                # the same compile again is served from the shared
                # disk store a sibling worker populated
                assert client.compile(PROGRAM)["code_size"] > 0
        finally:
            handle.stop()
        store = os.path.join(cache_dir, f"v{CACHE_FORMAT}")
        sharded = [name for _root, _dirs, files in os.walk(store) for name in files]
        assert sharded, "process workers populated the sharded store"

    def test_a_killed_worker_is_replaced(self, tmp_path):
        socket_path = str(tmp_path / "kill.sock")
        obs = Observability.create()
        handle = serve_in_thread(socket_path, jobs=1, executor="process", obs=obs)
        try:
            with ServiceClient(socket_path) as client:
                assert client.profile(PROGRAM)["exit_code"] == 0
                (worker,) = handle.service._pool._processes
                os.kill(worker, signal.SIGKILL)
                result = client.profile(ECHO, stdin="again\n")
                assert result["exit_code"] == 0
                assert result["stdout"] == "again\n"
                health = client.health()
            assert health["ready"] is True
            assert health["pool_restarts"] == 1
            assert obs.metrics.counters["service.pool_restarts"] == 1
        finally:
            handle.stop()


class TestHealthOp:
    def test_health_reports_live_and_ready(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["live"] is True
        assert health["ready"] is True
        assert health["checks"]["pool"] is True
        assert health["checks"]["socket"] is True
        assert health["uptime_seconds"] >= 0
        assert health["jobs"] == 2
        assert health["executor"] == "thread"

    def test_health_reports_cache_dir_writability(self, tmp_path):
        socket_path = str(tmp_path / "h.sock")
        cache_dir = str(tmp_path / "cache")
        handle = serve_in_thread(socket_path, jobs=1, cache_dir=cache_dir)
        try:
            with ServiceClient(socket_path) as client:
                health = client.health()
            assert health["checks"]["cache_dir"] is True
        finally:
            handle.stop()

    def test_draining_service_is_not_ready(self, tmp_path):
        socket_path = str(tmp_path / "d.sock")
        handle = serve_in_thread(socket_path, jobs=1)
        results = []

        def profile_slow():
            with ServiceClient(socket_path) as client:
                results.append(client.profile(SLOW))

        worker = threading.Thread(target=profile_slow)
        worker.start()
        with ServiceClient(socket_path) as client:
            deadline = time.monotonic() + 30
            while client.stats()["service"]["inflight"] == 0:
                assert time.monotonic() < deadline, "the profile never started"
                time.sleep(0.01)
            assert client.shutdown() == "draining"
            # The in-flight profile holds the drain open.
            assert client.stats()["service"]["inflight"] == 1
            health = client.health()
            assert health["ready"] is False
            assert health["draining"] is True
            assert health["status"] == "degraded"
            with pytest.raises(ServiceError, match="server is shutting down"):
                client.compile(PROGRAM)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert results[0]["exit_code"] == 0
        assert results[0]["stdout"] == "700000\n"
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()


class TestEnrichedStats:
    def test_stats_keeps_legacy_top_level_keys(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            client.compile(PROGRAM)
            stats = client.stats()
        assert "counters" in stats and "histograms" in stats

    def test_stats_service_section(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            client.compile(PROGRAM)
            client.compile(PROGRAM)
            stats = client.stats()
        section = stats["service"]
        assert section["uptime_seconds"] >= 0
        assert section["requests"]["total"] >= 2
        assert section["requests"]["failed"] == 0
        assert section["pool"]["jobs"] == 2
        assert section["pool"]["executor"] == "thread"
        ops = section["ops"]
        assert "compile" in ops
        for key in ("count", "mean", "p50", "p90", "p99"):
            assert key in ops["compile"]
        assert ops["compile"]["count"] >= 1

    def test_stats_cache_section_tracks_hit_rate(self, tmp_path):
        socket_path = str(tmp_path / "c.sock")
        cache_dir = str(tmp_path / "cache")
        handle = serve_in_thread(
            socket_path, jobs=1, cache_dir=cache_dir, obs=Observability.create()
        )
        try:
            with ServiceClient(socket_path) as client:
                client.compile(PROGRAM)
                client.compile(PROGRAM)
                stats = client.stats()
        finally:
            handle.stop()
        cache = stats["service"]["cache"]
        assert cache["hits"] + cache["misses"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0


class TestTracePropagation:
    def test_every_response_echoes_its_trace(self, service):
        socket_path, _obs, _handle = service
        context = TraceContext.mint()
        with ServiceClient(socket_path) as client:
            envelope = client.request(
                "compile", {"source": PROGRAM}, raw=True, trace=context
            )
        assert envelope["trace_id"] == context.trace_id
        assert envelope["request_id"] == context.request_id

    def test_client_mints_trace_when_absent(self, service):
        socket_path, _obs, _handle = service
        with ServiceClient(socket_path) as client:
            envelope = client.request("ping", raw=True)
        assert valid_id(envelope["trace_id"])
        assert valid_id(envelope["request_id"])

    def test_trace_id_spans_the_whole_request_path(self, service):
        """One grep over the trace reconstructs the request end-to-end."""
        socket_path, obs, handle = service
        context = TraceContext.mint()
        with ServiceClient(socket_path) as client:
            client.request("inline", {"source": PROGRAM, "threshold": 1.0},
                           trace=context)
        handle.stop()
        stamped = [
            record
            for record in obs.tracer.records
            if record.get("trace_id") == context.trace_id
            or record.get("attrs", {}).get("trace_id") == context.trace_id
        ]
        types = {record["type"] for record in stamped}
        names = {record.get("name") for record in stamped}
        # server-edge events and absorbed worker spans share the id
        assert "event" in types and "span" in types
        assert "service.dispatch" in names
        assert "service.request_done" in names
        workers = {r.get("worker") for r in stamped if r.get("worker")}
        assert workers, "absorbed pool-worker records carry the trace id"

    def test_trace_propagates_into_process_workers(self, tmp_path):
        socket_path = str(tmp_path / "t.sock")
        obs = Observability.create()
        handle = serve_in_thread(
            socket_path, jobs=2, executor="process", obs=obs
        )
        context = TraceContext.mint()
        try:
            with ServiceClient(socket_path) as client:
                client.request("compile", {"source": PROGRAM}, trace=context)
        finally:
            handle.stop()
        spans = [
            record
            for record in obs.tracer.records
            if record["type"] == "span"
            and record.get("trace_id") == context.trace_id
        ]
        assert spans, "process-worker spans are stamped with the trace id"

    def test_coalesced_requests_attach_all_trace_ids(self, service):
        socket_path, obs, handle = service
        contexts = [TraceContext.mint() for _ in range(6)]
        envelopes = run_concurrent(
            socket_path,
            [
                ("inline", {"source": PROGRAM, "threshold": 1.0}, context)
                for context in contexts
            ],
        )
        assert all(env["ok"] for env in envelopes)
        # every response echoes its own trace id, coalesced or not
        echoed = sorted(env["trace_id"] for env in envelopes)
        assert echoed == sorted(c.trace_id for c in contexts)
        handle.stop()
        done = [
            record
            for record in obs.tracer.records
            if record.get("name") == "service.request_done"
        ]
        attached = {
            trace_id
            for record in done
            for trace_id in record["attrs"].get("attached_trace_ids", [])
        }
        assert attached == {c.trace_id for c in contexts}


class TestSlowLog:
    def test_slow_requests_logged_with_trace_and_cache(self, tmp_path):
        socket_path = str(tmp_path / "s.sock")
        slow_log = str(tmp_path / "slow.jsonl")
        cache_dir = str(tmp_path / "cache")
        handle = serve_in_thread(
            socket_path,
            jobs=1,
            cache_dir=cache_dir,
            slow_log=slow_log,
            slow_threshold=0.0,
        )
        context = TraceContext.mint()
        try:
            with ServiceClient(socket_path) as client:
                client.request("compile", {"source": PROGRAM}, trace=context)
        finally:
            handle.stop()
        records = [
            json.loads(line) for line in open(slow_log).read().splitlines()
        ]
        assert records
        record = records[0]
        assert record["schema"] == 1
        assert record["kind"] == "slow"
        assert record["op"] == "compile"
        assert record["trace_id"] == context.trace_id
        assert record["seconds"] >= 0
        assert "cache_hits" in record and "cache_misses" in record

    def test_errors_logged_regardless_of_threshold(self, tmp_path):
        socket_path = str(tmp_path / "e.sock")
        slow_log = str(tmp_path / "slow.jsonl")
        handle = serve_in_thread(
            socket_path, jobs=1, slow_log=slow_log, slow_threshold=999.0
        )
        try:
            with ServiceClient(socket_path) as client:
                with pytest.raises(ServiceError):
                    client.compile("int main(void) { return !!!; }")
        finally:
            handle.stop()
        records = [
            json.loads(line) for line in open(slow_log).read().splitlines()
        ]
        kinds = {record["kind"] for record in records}
        assert "error" in kinds
        error = next(r for r in records if r["kind"] == "error")
        assert "error" in error and error["op"] == "compile"

    def test_fast_requests_not_logged(self, tmp_path):
        socket_path = str(tmp_path / "f.sock")
        slow_log = str(tmp_path / "slow.jsonl")
        handle = serve_in_thread(
            socket_path, jobs=1, slow_log=slow_log, slow_threshold=999.0
        )
        try:
            with ServiceClient(socket_path) as client:
                client.ping()
                client.compile(PROGRAM)
        finally:
            handle.stop()
        assert not os.path.exists(slow_log)
