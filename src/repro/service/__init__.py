"""Compilation-as-a-service: the asyncio front door to the pipeline.

Three cooperating modules turn the batch reproduction into a
long-running service that absorbs concurrent traffic:

- :mod:`repro.service.ops` — the four service operations (``compile``,
  ``profile``, ``inline``, ``check``) as plain picklable functions over
  JSON-shaped request params, shared verbatim by the server's worker
  processes, the CLI, and tests (so a service round-trip is comparable
  byte-for-byte with a direct call);
- :mod:`repro.service.server` — :class:`CompilationService`, an asyncio
  server on a local Unix socket: in-flight deduplication (identical
  concurrent requests coalesce onto one computation), a pool of worker
  processes that is replaced when a worker dies, per-request
  trace/metrics absorbed into the server's observability, and graceful
  shutdown that drains in-flight work;
- :mod:`repro.service.client` — a blocking :class:`ServiceClient`, an
  async :func:`arequest`, and :func:`run_concurrent` for firing many
  requests at once.

Every request/response pair carries a
:class:`~repro.observability.context.TraceContext` (client-minted, or
server-edge-minted for bare requests). The same socket answers
``health`` (liveness and readiness) and ``stats`` (request totals,
per-op latency, cache rates), and the server can append a
threshold-gated slow-request/error log; see README "Service mode" and
"Observability".

The CLI front ends are ``impact-inline serve`` and ``impact-inline
call``.
"""

import importlib

#: The submodule each public name comes from. They are imported on
#: first use, so importing :mod:`repro.service.ops` alone (the CLI
#: reads its defaults) does not import asyncio and ssl.
_EXPORTS = {
    "OPS": "ops",
    "execute": "ops",
    "request_key": "ops",
    "ServiceClient": "client",
    "ServiceError": "client",
    "arequest": "client",
    "run_concurrent": "client",
    "CompilationService": "server",
    "ServiceHandle": "server",
    "serve_in_thread": "server",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


__all__ = list(_EXPORTS)
