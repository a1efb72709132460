"""The asyncio compilation service.

:class:`CompilationService` listens on a local Unix-domain socket and
speaks newline-delimited JSON: one request object per line in, one
response object per line out, on a persistent connection::

    {"id": 1, "op": "inline", "params": {"source": "...", ...},
     "trace": {"trace_id": "9f2c...", "request_id": "03ab..."}}
    {"id": 1, "ok": true, "result": {...}, "coalesced": false,
     "seconds": 0.012, "trace_id": "9f2c...", "request_id": "03ab..."}

A line that is not a JSON object (bad JSON, bad UTF-8 or JSON nested
too deeply to decode included), or whose ``params`` is not one, gets
an ``ok: false`` reply whose error starts with ``bad request:``. So
does a line longer than :data:`MAX_REQUEST_BYTES`, which also closes
its connection.

Request flow:

- **trace context** — every request carries a
  :class:`~repro.observability.context.TraceContext`, minted at the
  client or (when absent) at the server edge. The context goes with
  the request into the worker process, is bound onto the worker's
  tracer (so worker spans carry it at emit time), and is echoed on the
  response, so ``grep <trace_id>`` over the trace JSONL reconstructs
  the request end-to-end across processes. Coalesced requests keep
  their own ids; the primary computation's completion event records
  every attached trace_id.
- **dedup** — each request is content-addressed by
  :func:`~repro.service.ops.request_key`. A request whose key matches
  one already in flight does not compute anything: it awaits the same
  future and is counted in ``service.requests.coalesced``.
- **execution** — each new computation goes straight to a
  ``ProcessPoolExecutor`` of ``jobs`` worker processes, through
  :func:`~repro.pipeline.parallel.worker_task` (the worker entry
  ``tables --jobs`` uses) running :func:`~repro.service.ops.run_request`.
  Each worker opens the ``cache_dir`` session once; the workers share
  its sharded on-disk store. A worker that dies takes only its pool
  with it: the server replaces the pool and retries (``_in_pool``).
- **telemetry** — every computed request runs under its own
  observability child, absorbed into the server's parent context
  (tagged ``worker="request-<n>"`` plus the request's trace ids), and
  its wall time lands in ``service.request_seconds`` and the per-op
  ``service.op_seconds.<op>`` histograms; failures count into
  ``service.requests.failed``. Requests slower than ``slow_threshold``
  (and every failed request) append a structured record to the
  ``slow_log`` JSONL (trace ids, op, duration, cache outcome).
- **introspection** — ``health`` reports liveness/readiness (pool up,
  socket accepting, cache dir writable); ``stats`` returns the metrics
  snapshot plus a ``service`` section read from the server's state:
  uptime, request totals, in-flight and pool state, per-op latency
  percentiles, and cache rates.
- **graceful shutdown** — ``shutdown()`` (or the ``shutdown`` admin
  op, or SIGINT/SIGTERM under ``impact-inline serve``) stops accepting
  connections, lets every in-flight request finish and flush its
  response, then tears the pool down.

Admin operations (``ping``, ``stats``, ``health``, ``shutdown``) are
answered by the server itself and never reach the pool.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.observability import NULL_OBS, Observability
from repro.observability.context import TraceContext
from repro.observability.export import append_jsonl, slow_request_record
from repro.pipeline.parallel import validate_jobs, worker_task
from repro.service.ops import (
    DEFAULT_SLOW_THRESHOLD,
    DEFAULT_SOCKET,
    OPS,
    request_key,
    run_request,
)

#: Longest request line the server reads (the stream reader's limit).
#: Fits a real C source plus its stdin with room for JSON escaping; a
#: longer line gets one error reply and its connection is closed.
MAX_REQUEST_BYTES = 16 * 1024 * 1024


class CompilationService:
    """A local compile/profile/inline/check service over a Unix socket.

    ``obs`` is the server's own telemetry (default: none), passed here
    rather than read from :func:`repro.observability.current`: under
    :func:`serve_in_thread` the event loop runs on a thread that starts
    with nothing bound.
    """

    def __init__(
        self,
        socket_path: str = DEFAULT_SOCKET,
        jobs: int = 1,
        cache_dir: str | None = None,
        obs: Observability | None = None,
        slow_log: str | None = None,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
    ):
        validate_jobs(jobs)
        self.socket_path = socket_path
        self.jobs = jobs
        self.slow_log = slow_log
        self.slow_threshold = slow_threshold
        self._cache_dir = cache_dir
        self._obs = NULL_OBS if obs is None else obs
        self._pool = None
        #: How many broken process pools were replaced (see `_in_pool`).
        self._pool_restarts = 0
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        #: key -> every trace_id attached to that in-flight computation
        #: (the primary request's id first, coalesced joiners after).
        self._inflight_traces: dict[str, list[str]] = {}
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._request_seq = 0
        self._active_responses = 0
        self._pool_busy = 0
        self._started_unix: float | None = None
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the socket and start the pool."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._pool = self._new_pool()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._started_unix = time.time()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # a stale socket from a dead server
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path, limit=MAX_REQUEST_BYTES
        )

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs)

    async def _in_pool(self, call):
        """Run ``call`` on the pool, surviving one dead worker.

        A worker that dies (killed, out of memory) breaks its whole
        process pool: every later submission would fail. The first
        request to see a broken pool replaces it, and each request that
        saw it retries once on the new pool. The ops are pure functions
        of their params and their cache writes are content-addressed,
        so running one twice is safe. A retry that breaks the pool
        again fails its request.
        """
        loop = asyncio.get_running_loop()
        for attempt in range(2):
            pool = self._pool
            try:
                return await loop.run_in_executor(pool, call)
            except BrokenProcessPool:
                if pool is self._pool:
                    pool.shutdown(wait=False)
                    self._pool = self._new_pool()
                    self._pool_restarts += 1
                    self._obs.metrics.inc("service.pool_restarts")
                if attempt:
                    raise

    async def wait_stopped(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Stop accepting work, drain in-flight requests, tear down."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every accepted request either coalesced onto an in-flight
        # future or started one; draining means letting all of them
        # finish *and* flush their responses.
        while self._inflight or self._active_responses:
            if self._inflight:
                await asyncio.gather(
                    *list(self._inflight.values()), return_exceptions=True
                )
            if self._active_responses:
                self._idle.clear()
                await self._idle.wait()
        for task in list(self._tasks):
            await asyncio.gather(task, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._stopped.set()

    # ------------------------------------------------------------------
    # introspection

    def _uptime(self) -> float:
        if self._started_unix is None:
            return 0.0
        return round(time.time() - self._started_unix, 3)

    def _health_result(self) -> dict:
        """Liveness + readiness: pool up, socket accepting, cache dir
        writable. Answering at all is liveness; ``ready`` means the
        server can actually take compute traffic right now."""
        pool_ok = self._pool is not None and not self._draining
        socket_ok = self._server is not None and self._server.is_serving()
        cache_ok = True
        if self._cache_dir:
            try:
                os.makedirs(self._cache_dir, exist_ok=True)
                cache_ok = os.access(self._cache_dir, os.W_OK)
            except OSError:
                cache_ok = False
        checks = {"pool": pool_ok, "socket": socket_ok, "cache_dir": cache_ok}
        ready = all(checks.values())
        return {
            "status": "ok" if ready else "degraded",
            "live": True,
            "ready": ready,
            "checks": checks,
            "uptime_seconds": self._uptime(),
            "jobs": self.jobs,
            "draining": self._draining,
            "pool_restarts": self._pool_restarts,
        }

    def _stats_result(self) -> dict:
        """The metrics snapshot enriched with a ``service`` section:
        uptime, request totals, in-flight/pool state, per-op latency
        percentiles, and cache rates."""
        snapshot = self._obs.metrics.snapshot()
        counters = snapshot["counters"]
        ops: dict[str, dict] = {}
        for op in OPS:
            stats = snapshot["histograms"].get(f"service.op_seconds.{op}")
            if stats is not None:
                ops[op] = {
                    key: stats[key]
                    for key in ("count", "mean", "min", "max", "p50", "p90", "p99")
                    if key in stats
                }
        hits = counters.get("pipeline.cache.hits", 0)
        misses = counters.get("pipeline.cache.misses", 0)
        snapshot["service"] = {
            "uptime_seconds": self._uptime(),
            "started_unix": self._started_unix,
            "requests": {
                "total": counters.get("service.requests", 0),
                "failed": counters.get("service.requests.failed", 0),
                "coalesced": counters.get("service.requests.coalesced", 0),
            },
            "inflight": len(self._inflight),
            "pool": {"jobs": self.jobs, "busy": self._pool_busy},
            "ops": ops,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        }
        return snapshot

    # ------------------------------------------------------------------
    # the wire protocol

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)

        async def send(response: dict) -> None:
            writer.write(
                json.dumps(response, sort_keys=True, default=str).encode() + b"\n"
            )
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over MAX_REQUEST_BYTES: the rest of the line is
                    # unread, so no later line can be framed.
                    await send(
                        _bad_request(
                            f"request line longer than {MAX_REQUEST_BYTES} bytes"
                        )
                    )
                    break
                if not line:
                    break
                self._active_responses += 1
                self._idle.clear()
                try:
                    await send(await self._respond(line))
                finally:
                    self._active_responses -= 1
                    if self._active_responses == 0:
                        self._idle.set()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _respond(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
        except ValueError as exc:  # bad JSON or bad UTF-8
            return _bad_request(str(exc))
        except RecursionError:  # a short line can nest past the stack
            return _bad_request(_TOO_DEEP)
        if not isinstance(request, dict):
            return _bad_request(
                f"expected a JSON object, got {type(request).__name__}"
            )
        request_id = request.get("id")
        op = request.get("op")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return _bad_request(
                f"params must be a JSON object, got {type(params).__name__}",
                request_id,
            )
        # The server edge: adopt the client's trace context, or mint one
        # so even untraced clients get correlated telemetry + echo.
        trace = TraceContext.from_wire(request.get("trace")) or TraceContext.mint()

        def reply(body: dict) -> dict:
            body["id"] = request_id
            body["trace_id"] = trace.trace_id
            body["request_id"] = trace.request_id
            return body

        if op == "ping":
            return reply({"ok": True, "result": "pong"})
        if op == "health":
            return reply({"ok": True, "result": self._health_result()})
        if op == "stats":
            return reply({"ok": True, "result": self._stats_result()})
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return reply({"ok": True, "result": "draining"})
        if self._draining:
            return reply({"ok": False, "error": "server is shutting down"})
        try:
            key = request_key(op, params)
            # The pool pickles params a few frames deeper still.
            pickle.dumps(params)
        except RecursionError:  # decoded near the limit, too deep to encode
            return reply(_bad_request(_TOO_DEEP))
        envelope, coalesced = await self._submit(key, op, params, trace)
        response = dict(envelope)
        response["coalesced"] = coalesced
        return reply(response)

    # ------------------------------------------------------------------
    # dedup + execution

    async def _submit(
        self, key: str, op: str, params: dict, trace: TraceContext
    ) -> tuple[dict, bool]:
        """Coalesce onto in-flight work or start a new computation."""
        if self._obs.metrics.enabled:
            self._obs.metrics.inc("service.requests")
        existing = self._inflight.get(key)
        if existing is not None:
            self._inflight_traces.setdefault(key, []).append(trace.trace_id)
            if self._obs.metrics.enabled:
                self._obs.metrics.inc("service.requests.coalesced")
            self._obs.tracer.event(
                "service.coalesced",
                op=op,
                key=key[:12],
                trace_id=trace.trace_id,
                request_id=trace.request_id,
            )
            # shield: one client hanging up must not cancel a
            # computation other clients are waiting on.
            return await asyncio.shield(existing), True
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._inflight_traces[key] = [trace.trace_id]
        task = asyncio.create_task(self._run_one(key, op, params, future, trace))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await asyncio.shield(future), False

    def _log_slow(self, record: dict) -> None:
        if self.slow_log:
            try:
                append_jsonl(self.slow_log, record)
            except OSError:
                pass  # the log must never take a request down

    async def _run_one(
        self,
        key: str,
        op: str,
        params: dict,
        future: asyncio.Future,
        trace: TraceContext,
    ) -> None:
        self._request_seq += 1
        sequence = self._request_seq
        start = time.perf_counter()
        tracer = self._obs.tracer
        tracer.event(
            "service.dispatch",
            op=op,
            seq=sequence,
            trace_id=trace.trace_id,
            request_id=trace.request_id,
        )
        self._pool_busy += 1
        try:
            result, child = await self._in_pool(
                functools.partial(
                    worker_task,
                    functools.partial(run_request, op=op, cache_dir=self._cache_dir),
                    params,
                    self._obs.enabled,
                    trace.attrs(),
                ),
            )
            seconds = time.perf_counter() - start
            cache_hits = cache_misses = 0
            if child is not None:
                cache_hits = child.metrics.counters.get("pipeline.cache.hits", 0)
                cache_misses = child.metrics.counters.get(
                    "pipeline.cache.misses", 0
                )
                self._obs.absorb(
                    child,
                    worker=f"request-{sequence}",
                    trace_id=trace.trace_id,
                    request_id=trace.request_id,
                )
            if self._obs.metrics.enabled:
                self._obs.metrics.observe("service.request_seconds", seconds)
                self._obs.metrics.observe(f"service.op_seconds.{op}", seconds)
            attached = list(self._inflight_traces.get(key, ()))
            tracer.event(
                "service.request_done",
                op=op,
                seq=sequence,
                seconds=round(seconds, 6),
                trace_id=trace.trace_id,
                request_id=trace.request_id,
                attached_trace_ids=attached,
                coalesced_requests=max(0, len(attached) - 1),
            )
            if self.slow_log and seconds >= self.slow_threshold:
                self._log_slow(
                    slow_request_record(
                        kind="slow",
                        op=op,
                        seconds=seconds,
                        trace_id=trace.trace_id,
                        request_id=trace.request_id,
                        threshold=self.slow_threshold,
                        cache_hits=cache_hits,
                        cache_misses=cache_misses,
                    )
                )
            envelope = {
                "ok": True,
                "result": result,
                "seconds": round(seconds, 6),
            }
        except Exception as exc:
            seconds = time.perf_counter() - start
            if self._obs.metrics.enabled:
                self._obs.metrics.inc("service.requests.failed")
            tracer.event(
                "service.request_error",
                op=op,
                seq=sequence,
                seconds=round(seconds, 6),
                trace_id=trace.trace_id,
                request_id=trace.request_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._log_slow(
                slow_request_record(
                    kind="error",
                    op=op,
                    seconds=seconds,
                    trace_id=trace.trace_id,
                    request_id=trace.request_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            envelope = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self._pool_busy -= 1
            self._inflight.pop(key, None)
            self._inflight_traces.pop(key, None)
        if not future.cancelled():
            future.set_result(envelope)


# ----------------------------------------------------------------------
# embedding helper: run the service on a background thread


class ServiceHandle:
    """A running service on its own event-loop thread (tests, tooling)."""

    def __init__(self, service: CompilationService, loop, thread):
        self.service = service
        self._loop = loop
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain and stop the service, then join the thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self._loop
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)


_TOO_DEEP = "JSON nested too deeply"


def _bad_request(reason: str, request_id=None) -> dict:
    return {"id": request_id, "ok": False, "error": f"bad request: {reason}"}


def serve_in_thread(
    socket_path: str,
    jobs: int = 1,
    cache_dir: str | None = None,
    obs: Observability | None = None,
    timeout: float = 30.0,
    **service_kwargs,
) -> ServiceHandle:
    """Start a :class:`CompilationService` on a daemon thread.

    Returns once the socket is accepting connections. The caller owns
    ``obs`` and may read it after :meth:`ServiceHandle.stop`. Extra
    keyword arguments (``slow_log``, ``slow_threshold``) pass through
    to the service. If the service cannot be built or started, the
    original exception is raised here.
    """
    started = threading.Event()
    holder: dict = {}

    def runner():
        async def main():
            try:
                service = CompilationService(
                    socket_path,
                    jobs=jobs,
                    cache_dir=cache_dir,
                    obs=obs,
                    **service_kwargs,
                )
                await service.start()
            except Exception as exc:
                holder["error"] = exc
                started.set()
                return
            holder["service"] = service
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await service.wait_stopped()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True, name="repro-service")
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("service failed to start")
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["service"], holder["loop"], thread)
