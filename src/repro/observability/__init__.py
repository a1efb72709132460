"""Pipeline-wide observability: tracing, metrics, and the inline audit log.

Three cooperating pieces, all with zero-overhead no-op defaults:

- :class:`Tracer` — structured JSONL span/event records (phase start and
  end, wall time, free-form attributes),
- :class:`MetricsRegistry` — named counters and histograms that every
  pipeline stage reports into,
- :mod:`repro.observability.audit` — the inline-decision audit log: one
  record per call-graph arc the selector considers, carrying the §2.3.3
  cost inputs and an accept/reject reason code.

Instrumented code records into :func:`current`, the
:class:`Observability` bound in this context. Work binds one only
where it starts: ``with observing(obs):`` around a call records every
stage the call reaches. With nothing bound, :func:`current` is
:data:`NULL_OBS`, whose tracer and metrics discard everything, so
unobserved callers pay one context lookup per stage and pipeline
outputs are unchanged.

The binding is a :class:`contextvars.ContextVar`: a new thread starts
with nothing bound, and a forked worker process starts with whatever
the thread that forked it had bound, so every pool task binds its own
(see :func:`repro.pipeline.parallel.worker_task`).
"""

from __future__ import annotations

import logging
import sys
from contextlib import contextmanager
from contextvars import ContextVar
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
    """A tracer/metrics pair, bound for a piece of work by :func:`observing`."""

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


#: The shared no-op context, current when nothing is bound.
NULL_OBS = Observability(tracer=NullTracer(), metrics=NullMetrics())

_CURRENT: ContextVar[Observability] = ContextVar("repro_obs", default=NULL_OBS)


def current() -> Observability:
    """The :class:`Observability` bound in this context (else :data:`NULL_OBS`)."""
    return _CURRENT.get()


@contextmanager
def observing(observability: Observability):
    """Bind ``observability`` as :func:`current` for the ``with`` block."""
    token = _CURRENT.set(observability)
    try:
        yield observability
    finally:
        _CURRENT.reset(token)


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
    "current",
    "enable_console_logging",
    "get_logger",
    "observing",
]
