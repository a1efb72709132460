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

from repro.service.client import ServiceClient, ServiceError, arequest, run_concurrent
from repro.service.ops import OPS, execute, request_key
from repro.service.server import CompilationService, ServiceHandle, serve_in_thread

__all__ = [
    "OPS",
    "CompilationService",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "arequest",
    "execute",
    "request_key",
    "run_concurrent",
    "serve_in_thread",
]
