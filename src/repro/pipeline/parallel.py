"""Deterministic parallel fan-out for suite and ablation runs.

:func:`parallel_map` runs ``fn(item)`` for each item and returns the
results in item order, so ``jobs=N`` output is indistinguishable from
serial output. ``jobs=1`` (or a single item) is a plain loop in the
caller's context, recording into the caller's current observability.
Otherwise the items run on a ``ProcessPoolExecutor``: compile, profile
and inline work is CPU-bound, and in Python only worker processes run
it in parallel. The task callable, its items and its results must
therefore pickle.

Every task in a worker process runs through :func:`worker_task`, the
one worker entry of both pools (the compilation service submits each
request through it too). The observability context does not cross a
process boundary as a binding; it travels as data. The worker records
into a fresh :class:`~repro.observability.Observability` child, bound
with :func:`~repro.observability.observing` for the task and stamped
with the parent tracer's correlation context (``trace_id`` etc., see
:mod:`repro.observability.context`) so worker records carry it at emit
time, and returns the child with the result. A forked worker starts
with its parent's binding, so a task the parent does not observe is
bound to :data:`~repro.observability.NULL_OBS`. Children are absorbed
into the parent **in item order, as soon as that item (and every
earlier item) finishes**, each tagged with its worker's label: traces
and metrics stay whole and deterministic while no more than the
in-flight window of children is held in memory.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.observability import NULL_OBS, Observability, current, observing

T = TypeVar("T")
R = TypeVar("R")


def validate_jobs(jobs: int) -> int:
    """Reject a non-positive worker count with a clear error."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (1 = serial), got {jobs}")
    return jobs


def jobs_argument(value: str) -> int:
    """Argparse ``type=`` for ``--jobs``: a positive worker count."""
    import argparse

    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (1 = serial), got {jobs}"
        )
    return jobs


def worker_task(fn, item, want_obs: bool, context: dict | None = None):
    """Run ``fn(item)`` in a worker process, capturing its observability.

    Module-level so it pickles; the child context rides back to the
    parent in the return value (tracers and metrics are plain data).
    ``context`` is the parent's correlation context (e.g.
    ``trace_id``), bound here so worker records carry it at emit time
    even across the process boundary. The task always runs under a
    binding of its own, the child or :data:`NULL_OBS`, never the one
    the worker inherited when it was forked.
    """
    child = Observability.create() if want_obs else None
    if child is not None and context:
        child.tracer.bind(**context)
    with observing(child or NULL_OBS):
        result = fn(item)
    return result, child


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    worker_label: str = "worker",
) -> list[R]:
    """Map ``fn(item)`` over ``items``, preserving item order.

    With ``jobs > 1``, ``fn`` and every item (and result) must pickle:
    use module-level functions or :func:`functools.partial` over them.
    The pool never starts more workers than there are items, and the
    workers' records are absorbed into the current observability.
    """
    validate_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    parent = current()
    results: list[R] = []
    bound = parent.tracer.bound_context()
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [
            pool.submit(worker_task, fn, item, parent.enabled, bound)
            for item in items
        ]
        for index, future in enumerate(futures):
            result, child = future.result()
            results.append(result)
            if child is not None:
                parent.absorb(child, worker=f"{worker_label}-{index}")
            futures[index] = None  # release the child promptly
    return results
