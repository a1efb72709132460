"""Clients for the compilation service.

:class:`ServiceClient` is the blocking client: one persistent
connection, newline-delimited JSON requests, convenience wrappers per
operation. :func:`arequest` is the asyncio variant (one request per
connection), and :func:`run_concurrent` fires a whole list of requests
at once — the natural way to exercise (and test) the server's
in-flight deduplication.

Every request carries a
:class:`~repro.observability.context.TraceContext` — minted here at
the client unless the caller passes one — and every response echoes
``trace_id``/``request_id``, so a client log line and the server's
trace JSONL correlate on the same ids.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.observability.context import TraceContext


class ServiceError(RuntimeError):
    """The server answered, but with an error."""


class ServiceClient:
    """Blocking newline-delimited-JSON client over a Unix socket."""

    def __init__(self, socket_path: str, timeout: float = 300.0):
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""
        self._next_id = 0

    # ------------------------------------------------------------------

    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            self._sock = sock
        return self._sock

    def _read_line(self) -> bytes:
        sock = self._connection()
        while b"\n" not in self._buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServiceError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def request(
        self,
        op: str,
        params: dict | None = None,
        raw: bool = False,
        trace: TraceContext | None = None,
    ) -> dict:
        """Send one request and wait for its response.

        Returns the operation result, or the full response envelope
        (``id``/``ok``/``result``/``coalesced``/``seconds``/
        ``trace_id``/``request_id``) with ``raw=True``. A fresh
        :class:`TraceContext` is minted per request unless ``trace`` is
        given. Raises :class:`ServiceError` on an error reply.
        """
        self._next_id += 1
        trace = trace or TraceContext.mint()
        payload = {
            "id": self._next_id,
            "op": op,
            "params": params or {},
            "trace": trace.to_wire(),
        }
        self._connection().sendall(
            json.dumps(payload, default=str).encode() + b"\n"
        )
        response = json.loads(self._read_line())
        if raw:
            return response
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown server error"))
        return response.get("result")

    # convenience wrappers ---------------------------------------------

    def compile(self, source: str, **params) -> dict:
        return self.request("compile", {"source": source, **params})

    def profile(self, source: str, **params) -> dict:
        return self.request("profile", {"source": source, **params})

    def inline(self, source: str, **params) -> dict:
        return self.request("inline", {"source": source, **params})

    def check(self, source: str, **params) -> dict:
        return self.request("check", {"source": source, **params})

    def ping(self) -> str:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")

    def health(self) -> dict:
        """Liveness/readiness checks plus uptime (the ``health`` op)."""
        return self.request("health")

    def shutdown(self) -> str:
        return self.request("shutdown")

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
            self._buffer = b""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


async def arequest(
    socket_path: str,
    op: str,
    params: dict | None = None,
    trace: TraceContext | None = None,
) -> dict:
    """One async request on its own connection; returns the envelope.

    Mints a :class:`TraceContext` unless one is given; the returned
    envelope's ``trace_id``/``request_id`` echo the ids that were sent.
    """
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        trace = trace or TraceContext.mint()
        payload = {
            "id": 1,
            "op": op,
            "params": params or {},
            "trace": trace.to_wire(),
        }
        writer.write(json.dumps(payload, default=str).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ServiceError("server closed the connection")
        return json.loads(line)
    finally:
        writer.close()


def run_concurrent(
    socket_path: str, requests: list[tuple]
) -> list[dict]:
    """Fire every request at once; envelopes come back in order.

    Each request is ``(op, params)`` or ``(op, params, trace)`` with an
    explicit :class:`TraceContext`. Identical requests submitted this
    way race into the server together, so all but the first coalesce
    onto one computation — check the ``coalesced`` flag on the
    returned envelopes (each still echoes its own ``trace_id``).
    """

    async def _go():
        return list(
            await asyncio.gather(
                *(arequest(socket_path, *request) for request in requests)
            )
        )

    return asyncio.run(_go())
