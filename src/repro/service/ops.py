"""The service operations: compile, profile, inline, check.

Each operation is a module-level function taking a JSON-shaped params
dict and returning a JSON-serializable result dict, so the same code
runs identically in three places:

- directly (tests, the batch CLI path) via :func:`execute`;
- on the server's thread pool (sharing a live
  :class:`~repro.pipeline.session.CompilationSession`);
- on the server's process pool via :func:`pool_execute`, which pickles
  only the params and a session *spec* and ships the result plus the
  worker's observability child back to the parent.

Deterministic inputs produce deterministic result dicts, which is what
makes the service path byte-comparable with direct calls and lets the
server deduplicate identical in-flight requests by
:func:`request_key` — the content address of (op, params).
"""

from __future__ import annotations

import hashlib
import json

from repro.observability import Observability, resolve

#: Fuel (IL instructions) of every VM run an operation makes, so a
#: runaway program gets a fuel trap instead of holding a worker for
#: the VM's default 2e9 IL (minutes of CPU). It is 34x the most IL any
#: single full-scale suite input retires (espresso, 2,896,292 IL), or
#: about 25 s of CPU on the block interpreter.
REQUEST_FUEL = 100_000_000


def request_key(op: str, params: dict | None) -> str:
    """The content-addressed identity of one request.

    Two requests with the same key are the same computation; the server
    coalesces them onto a single in-flight execution.
    """
    payload = json.dumps(
        {"op": op, "params": params or {}},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _compiled(params: dict, obs: Observability, session=None):
    """Compile (and optionally pre-optimize) the request's source."""
    source = params.get("source")
    if not isinstance(source, str) or not source:
        raise ValueError("params['source'] must be a non-empty string")
    filename = params.get("filename") or "<service>"
    pass_spec = params.get("passes") or None
    if session is not None:
        return session.compiled_module(
            source,
            filename=filename,
            pass_spec=pass_spec or "",
            obs=obs,
        )
    from repro.compiler import compile_program

    module = compile_program(source, filename, obs=obs)
    if pass_spec:
        from repro.opt import optimize_module

        optimize_module(module, obs=obs, pass_spec=pass_spec)
    return module


def _inline_params(params: dict):
    from repro.inliner.params import InlineParameters

    return InlineParameters(
        weight_threshold=float(params.get("threshold", 10.0)),
        size_limit_factor=float(params.get("growth", 1.25)),
    )


def _profile(module, spec, obs: Observability):
    """Profile ``module`` over the one request input, under `REQUEST_FUEL`."""
    from repro.profiler.profile import profile_module

    return profile_module(
        module, [spec], fuel=REQUEST_FUEL, check_exit=False, obs=obs
    )


def op_compile(params: dict, obs: Observability, session=None) -> dict:
    """Compile the source; report sizes and (optionally) the IL text."""
    module = _compiled(params, obs, session)
    result = {
        "code_size": module.total_code_size(),
        "functions": sorted(module.functions),
        "externals": sorted(module.externals),
    }
    if params.get("dump"):
        from repro.il.printer import format_module

        result["il"] = format_module(module)
    return result


def op_profile(params: dict, obs: Observability, session=None) -> dict:
    """Compile and execute once; report outputs and dynamic counts."""
    from repro.profiler.profile import RunSpec, run_once

    spec = RunSpec.from_text(params.get("stdin"), params.get("argv"))
    module = _compiled(params, obs, session)
    run = run_once(module, spec, fuel=REQUEST_FUEL, obs=obs)
    result = {"exit_code": run.exit_code, "stdout": run.stdout}
    result.update(run.counters.to_summary())
    return result


def op_inline(params: dict, obs: Observability, session=None) -> dict:
    """The full profile -> inline -> re-profile loop for one input."""
    from repro.inliner.manager import inline_module
    from repro.profiler.profile import RunSpec

    spec = RunSpec.from_text(params.get("stdin"), params.get("argv"))
    module = _compiled(params, obs, session)
    profile = _profile(module, spec, obs)
    outcome = inline_module(module, profile, _inline_params(params), obs=obs)
    after = _profile(outcome.module, spec, obs)
    before_calls = profile.avg_calls
    return {
        "expanded": len(outcome.records),
        "code_size_before": outcome.original_size,
        "code_size_after": outcome.final_size,
        "code_increase": outcome.code_increase,
        "call_decrease": (
            1.0 - after.avg_calls / before_calls if before_calls else 0.0
        ),
        "il_before": profile.total.il,
        "il_after": after.total.il,
        "calls_before": profile.total.calls,
        "calls_after": after.total.calls,
    }


def op_check(params: dict, obs: Observability, session=None) -> dict:
    """Inline, then check the inlined module's outputs against the original.

    Each module runs once, under `REQUEST_FUEL`; the comparison reads
    the observations those runs left.
    """
    from repro.experiments.pipeline import compare_outputs
    from repro.inliner.manager import inline_module
    from repro.profiler.profile import RunSpec

    spec = RunSpec.from_text(params.get("stdin"), params.get("argv"))
    module = _compiled(params, obs, session)
    profile = _profile(module, spec, obs)
    outcome = inline_module(module, profile, _inline_params(params), obs=obs)
    comparison = compare_outputs(
        module,
        outcome.module,
        [spec],
        before=profile.observations,
        after=_profile(outcome.module, spec, obs).observations,
    )
    return {
        "ok": comparison.matches,
        "expanded": len(outcome.records),
        "divergences": list(comparison.divergences),
    }


#: Operations a client may request. Admin operations (ping, stats,
#: health, shutdown) are handled by the server itself and never reach
#: the pool.
OPS = {
    "compile": op_compile,
    "profile": op_profile,
    "inline": op_inline,
    "check": op_check,
}


def execute(
    op: str,
    params: dict | None,
    obs: Observability | None = None,
    session=None,
) -> dict:
    """Dispatch one operation; the direct (batch) execution path."""
    handler = OPS.get(op)
    if handler is None:
        raise ValueError(
            f"unknown operation {op!r}; choose from {', '.join(OPS)}"
        )
    return handler(params or {}, resolve(obs), session)


def pool_execute(
    op: str,
    params: dict | None,
    session_spec: dict | None,
    want_obs: bool,
    trace: dict | None = None,
):
    """The worker-pool entry point (picklable for process pools).

    Returns ``(result, child_obs)``; the server absorbs the child into
    its parent observability so per-request telemetry lands in one
    trace. Process workers re-open the shared disk cache from
    ``session_spec`` (see :meth:`CompilationSession.spec`).

    ``trace`` is the request's wire-form
    :class:`~repro.observability.context.TraceContext`; when present it
    is bound onto the worker's tracer, so every span and event the
    worker emits — across the process boundary — carries the request's
    ``trace_id``/``request_id`` at emit time, not just after the server
    stamps the absorbed records.
    """
    from repro.experiments.pipeline import _session_from_spec

    child = Observability.create() if want_obs else None
    if child is not None and trace:
        from repro.observability.context import TraceContext

        context = TraceContext.from_wire(trace)
        if context is not None:
            child.tracer.bind(**context.attrs())
    result = execute(
        op, params, obs=resolve(child), session=_session_from_spec(session_spec)
    )
    return result, child
