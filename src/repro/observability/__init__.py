"""Pipeline-wide observability: tracing, metrics, and the inline audit log.

Three cooperating pieces, all with zero-overhead no-op defaults:

- :class:`Tracer` — structured JSONL span/event records (phase start and
  end, wall time, free-form attributes),
- :class:`MetricsRegistry` — named counters and histograms that every
  pipeline stage reports into,
- :mod:`repro.observability.audit` — the inline-decision audit log: one
  record per call-graph arc the selector considers, carrying the §2.3.3
  cost inputs and an accept/reject reason code.

Every instrumented function takes an optional ``obs`` argument. Passing
``None`` (the default) resolves to :data:`NULL_OBS`, whose tracer and
metrics discard everything, so un-instrumented callers pay nothing and
pipeline outputs are unchanged.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass

from repro.observability.audit import DecisionReason, InlineDecision
from repro.observability.context import (
    TraceContext,
    new_request_id,
    new_trace_id,
)
from repro.observability.metrics import MAX_SAMPLES, MetricsRegistry, NullMetrics
from repro.observability.tracer import NullTracer, Tracer


@dataclass
class Observability:
    """A tracer/metrics pair handed through the pipeline as one unit."""

    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def create(cls) -> "Observability":
        """A live observability context recording spans and metrics."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry())

    def absorb(self, child: "Observability", **attrs) -> None:
        """Merge a worker's trace records and metrics into this context.

        ``attrs`` (typically ``worker=<label>``) are stamped onto every
        absorbed trace record so parallel records stay attributable.
        """
        self.tracer.absorb(child.tracer, **attrs)
        self.metrics.merge(child.metrics)


#: The shared no-op context every instrumented function falls back to.
NULL_OBS = Observability(tracer=NullTracer(), metrics=NullMetrics())


def resolve(obs: Observability | None) -> Observability:
    """Map ``None`` to the shared no-op context."""
    return obs if obs is not None else NULL_OBS


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    return logging.getLogger(f"repro.{name}")


def enable_console_logging(
    level: int = logging.INFO, stream=None
) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` logger (idempotent).

    Library users who configure logging themselves never need this; the
    CLI calls it so progress messages stay visible by default.
    """
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)
    return logger


__all__ = [
    "DecisionReason",
    "InlineDecision",
    "MAX_SAMPLES",
    "MetricsRegistry",
    "TraceContext",
    "new_request_id",
    "new_trace_id",
    "NULL_OBS",
    "NullMetrics",
    "NullTracer",
    "Observability",
    "Tracer",
    "enable_console_logging",
    "get_logger",
    "resolve",
]
