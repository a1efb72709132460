"""Trace-context propagation across processes and the service wire.

A :class:`TraceContext` is the pair of correlation ids that follows one
request end-to-end:

- ``trace_id`` — minted once, at the client (or at the server edge when
  a client sends none), and carried unchanged through every hop: the
  NDJSON request envelope, the server, the worker pool, and back in
  the response. Every span/event a request produces — client send,
  server dispatch, worker compile/inline, response — carries it, so
  ``grep <trace_id> trace.jsonl`` reconstructs the request across
  process boundaries.
- ``request_id`` — distinguishes individual requests that share a
  computation. When identical in-flight requests coalesce, each keeps
  its own (trace_id, request_id) and the primary computation records
  every attached trace_id.

The ids are plain lowercase hex so they survive JSON, filenames, and
grep unmangled. :meth:`TraceContext.from_wire` validates foreign input
and returns ``None`` rather than raising, so a malformed ``trace``
field degrades to a server-minted context instead of an error.

Stamping happens through :meth:`repro.observability.tracer.Tracer.bind`
/ ``Tracer.context``: binding ``trace_id=...`` on a tracer stamps the
id onto every record it emits from then on, and
:meth:`~repro.observability.tracer.Tracer.absorb` forwards the parent's
bound context onto absorbed child records, so worker-side records stay
correlated even when the worker itself did not bind anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_HEX = frozenset("0123456789abcdef")

#: Accepted id lengths (inclusive); W3C-style 16-byte trace ids fit.
_MIN_ID_LENGTH = 4
_MAX_ID_LENGTH = 64


def new_trace_id() -> str:
    """A fresh 64-bit lowercase-hex trace id."""
    return os.urandom(8).hex()


def new_request_id() -> str:
    """A fresh 32-bit lowercase-hex request id."""
    return os.urandom(4).hex()


def valid_id(value) -> bool:
    """True for a plausible wire id: bounded lowercase/uppercase hex."""
    return (
        isinstance(value, str)
        and _MIN_ID_LENGTH <= len(value) <= _MAX_ID_LENGTH
        and all(ch in _HEX for ch in value.lower())
    )


@dataclass(frozen=True)
class TraceContext:
    """The (trace_id, request_id) pair that follows one request."""

    trace_id: str
    request_id: str

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new context (client send, or the server edge)."""
        return cls(trace_id=new_trace_id(), request_id=new_request_id())

    # ------------------------------------------------------------------
    # the wire form: a plain dict inside the NDJSON envelope

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "request_id": self.request_id}

    @classmethod
    def from_wire(cls, data) -> "TraceContext | None":
        """Parse a request's ``trace`` field; ``None`` when unusable.

        A valid ``trace_id`` with a missing/invalid ``request_id`` still
        parses (the request_id is re-minted) so a minimal client can
        send just the trace id it cares about.
        """
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not valid_id(trace_id):
            return None
        request_id = data.get("request_id")
        if not valid_id(request_id):
            request_id = new_request_id()
        return cls(trace_id=trace_id, request_id=request_id)

    def attrs(self) -> dict:
        """The stamp for :meth:`Tracer.bind` / ``Tracer.context``."""
        return {"trace_id": self.trace_id, "request_id": self.request_id}
