"""Structured tracing as JSONL span/event records.

A :class:`Tracer` accumulates flat dict records. Spans nest: each span
record carries its parent's id, its start offset (seconds since the
tracer was created), and its duration. Events attach to the innermost
open span. :meth:`Tracer.to_jsonl` / :meth:`Tracer.write` serialize the
whole trace, one JSON object per line.

A tracer can carry a **bound context** — a small dict of correlation
attributes (typically ``trace_id``/``request_id``, see
:mod:`repro.observability.context`) stamped onto every record it emits.
``bind`` sets it persistently, ``context`` scopes it to a ``with``
block, and ``absorb`` forwards the parent's bound context onto absorbed
child records (without overwriting ids the child stamped itself).

:class:`NullTracer` is the zero-overhead default: ``span`` yields an
attribute sink without touching the clock, and ``event``/``record``
discard their input.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager

_LOG = logging.getLogger("repro.trace")


class Tracer:
    """Collects span and event records with monotonic timestamps."""

    enabled = True

    def __init__(self):
        self._origin = time.perf_counter()
        self._unix_start = time.time()
        self._records: list[dict] = [
            {"type": "trace_start", "unix_time": self._unix_start}
        ]
        self._stack: list[int] = []
        self._next_id = 1
        self._context: dict = {}

    # ------------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @property
    def unix_start(self) -> float | None:
        """Wall-clock time of trace start (t=0), for cross-trace rebasing."""
        return getattr(self, "_unix_start", None)

    # ------------------------------------------------------------------
    # bound context: correlation attrs stamped onto every record

    def bind(self, **attrs) -> None:
        """Persistently stamp ``attrs`` onto every record emitted from
        now on (e.g. ``trace_id=...``); ``None`` values are ignored."""
        self._context.update(
            {key: value for key, value in attrs.items() if value is not None}
        )

    def bound_context(self) -> dict:
        """The currently bound correlation attributes (a copy)."""
        return dict(self._context)

    @contextmanager
    def context(self, **attrs):
        """Scope extra bound attributes to a ``with`` block."""
        saved = dict(self._context)
        self.bind(**attrs)
        try:
            yield
        finally:
            self._context = saved

    @contextmanager
    def span(self, name: str, /, **attrs):
        """Open a span; yields its attribute dict for late additions.

        The record is emitted when the span closes, so attributes added
        to the yielded dict inside the ``with`` body are included.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        start = self._now()
        self._stack.append(span_id)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record = {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": round(start, 6),
                "seconds": round(self._now() - start, 6),
            }
            if attrs:
                record["attrs"] = attrs
            self._emit(record)

    def event(self, name: str, /, **attrs) -> None:
        """Emit a point-in-time record attached to the open span."""
        record = {
            "type": "event",
            "name": name,
            "t": round(self._now(), 6),
            "span": self._stack[-1] if self._stack else None,
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def record(self, record: dict) -> None:
        """Emit a pre-built structured record (e.g. an inline decision)."""
        record = dict(record)
        record.setdefault("t", round(self._now(), 6))
        self._emit(record)

    def _emit(self, record: dict) -> None:
        for key, value in self._context.items():
            record.setdefault(key, value)
        self._records.append(record)
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug("%s", json.dumps(record, sort_keys=True, default=str))

    def absorb(self, child: "Tracer", **attrs) -> None:
        """Merge a child tracer's records into this trace.

        Used by parallel suite execution: each worker records into its
        own tracer, and the parent absorbs them afterwards. Child span
        ids are renumbered past this tracer's id space; top-level child
        spans are re-parented under the currently open span (if any);
        ``attrs`` (e.g. ``worker="suite-3"``) are stamped onto every
        absorbed record, and this tracer's bound context is forwarded
        (without overwriting attributes the child stamped itself).

        Child timestamps are recorded as offsets from the *child's* own
        start; they are rebased onto this tracer's timeline using the
        wall-clock delta between the two trace starts, so spans from
        different processes line up in one flamegraph. A child pickled
        by an old version (no recorded start) is absorbed un-rebased.
        """
        if not self.enabled:
            return
        offset = self._next_id
        parent_span = self._stack[-1] if self._stack else None
        child_start = getattr(child, "unix_start", None)
        base_start = self.unix_start
        rebase = 0.0
        if child_start is not None and base_start is not None:
            rebase = child_start - base_start
        highest = 0
        for record in child.records:
            if record.get("type") == "trace_start":
                continue
            record = dict(record)
            if "id" in record:
                record["id"] += offset
                highest = max(highest, record["id"])
            if record.get("parent") is not None:
                record["parent"] += offset
            elif record.get("type") == "span":
                record["parent"] = parent_span
            if record.get("span") is not None:
                record["span"] += offset
            if rebase:
                if isinstance(record.get("start"), (int, float)):
                    record["start"] = round(record["start"] + rebase, 6)
                if isinstance(record.get("t"), (int, float)):
                    record["t"] = round(record["t"] + rebase, 6)
            record.update(attrs)
            for key, value in self._context.items():
                record.setdefault(key, value)
            self._records.append(record)
        self._next_id = max(self._next_id, highest + 1)

    # ------------------------------------------------------------------

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True, default=str)
            for record in self._records
        ) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


class NullTracer(Tracer):
    """Discards everything; safe to call from hot paths."""

    enabled = False

    def __init__(self):  # no clock, no origin record
        self._records = []
        self._context = {}

    @contextmanager
    def span(self, name: str, /, **attrs):
        yield attrs

    def bind(self, **attrs) -> None:
        pass

    def bound_context(self) -> dict:
        return {}

    @contextmanager
    def context(self, **attrs):
        yield

    def event(self, name: str, /, **attrs) -> None:
        pass

    def record(self, record: dict) -> None:
        pass

    def absorb(self, child: "Tracer", **attrs) -> None:
        pass
