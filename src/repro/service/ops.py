"""The service operations: compile, profile, inline, check.

Each operation is a module-level function taking a JSON-shaped params
dict and returning a JSON-serializable result dict, so the same code
runs identically in two places:

- directly (tests, the batch CLI path) via :func:`execute`;
- on the server's worker processes via :func:`run_request`, which the
  server submits through :func:`~repro.pipeline.parallel.worker_task`:
  only the params and the cache directory are pickled, and the result
  comes back with the worker's observability child.

An operation records into the current observability
(:func:`repro.observability.current`): whatever the caller bound
around :func:`execute`, or the child ``worker_task`` binds for the
request on a worker.

``inline`` and ``check`` are one computation with two reply shapes:
:func:`~repro.experiments.pipeline.measure_inlining` on the request's
one input, every VM run capped at :data:`REQUEST_FUEL` and any exit
code accepted as an output.

Deterministic inputs produce deterministic result dicts, which is what
makes the service path byte-comparable with direct calls and lets the
server deduplicate identical in-flight requests by
:func:`request_key` — the content address of (op, params).
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.opt.pipeline import parse_pass_spec
from repro.pipeline.session import open_session

#: Default Unix socket path (cwd-relative, like ``.repro-cache``).
DEFAULT_SOCKET = ".repro-service.sock"

#: Default slow-request threshold (seconds).
DEFAULT_SLOW_THRESHOLD = 1.0

#: Fuel (IL instructions) of every VM run an operation makes, so a
#: runaway program gets a fuel trap instead of holding a worker for
#: the VM's default 2e9 IL (minutes of CPU). It is 34x the most IL any
#: single full-scale suite input retires (espresso, 2,896,292 IL), or
#: about 25 s of CPU on the block interpreter.
REQUEST_FUEL = 100_000_000


def request_key(op: str, params: dict | None) -> str:
    """The content-addressed identity of one request.

    Two requests with the same key are the same computation; the server
    coalesces them onto a single in-flight execution. A ``passes`` spec
    is keyed in canonical form, absent as ``""`` (both mean no
    pre-optimization), so every spelling of one pipeline shares a key;
    a spec that does not parse is keyed as sent and fails when run.
    """
    params = dict(params or {})
    passes = params.get("passes")
    if passes is None:
        passes = ""
    if isinstance(passes, str):
        try:
            params["passes"] = ",".join(parse_pass_spec(passes))
        except ValueError:
            pass
    payload = json.dumps(
        {"op": op, "params": params},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _compiled(params: dict, session=None):
    """Compile (and optionally pre-optimize) the request's source."""
    source = params.get("source")
    if not isinstance(source, str) or not source:
        raise ValueError("params['source'] must be a non-empty string")
    filename = params.get("filename") or "<service>"
    pass_spec = params.get("passes")
    if pass_spec is None:
        pass_spec = ""
    if not isinstance(pass_spec, str):
        raise ValueError(
            f"passes must be a string, got {type(pass_spec).__name__}"
        )
    if session is not None:
        return session.compiled_module(source, filename=filename, pass_spec=pass_spec)
    from repro.compiler import compile_program

    return compile_program(source, filename, pass_spec=pass_spec)


def _inline_params(params: dict):
    from repro.inliner.params import InlineParameters

    default = InlineParameters()
    return InlineParameters(
        weight_threshold=float(params.get("threshold", default.weight_threshold)),
        size_limit_factor=float(params.get("growth", default.size_limit_factor)),
    )


def _measured(params: dict, session=None):
    """The inlining of the request's source, measured on its one input.

    :func:`~repro.experiments.pipeline.measure_inlining` profiles the
    original, inlines, and profiles the inlined module; each run is
    capped at `REQUEST_FUEL`, and any exit code is an output like the
    others.
    """
    from repro.experiments import pipeline
    from repro.profiler.profile import RunSpec

    spec = RunSpec.from_text(params.get("stdin"), params.get("argv"))
    module = _compiled(params, session)
    return pipeline.measure_inlining(
        module,
        [spec],
        functools.partial(
            pipeline.inline_module, module, params=_inline_params(params)
        ),
        name=params.get("filename") or "<service>",
        profiler=functools.partial(
            pipeline.profile_module, fuel=REQUEST_FUEL, check_exit=False
        ),
    )


def op_compile(params: dict, session=None) -> dict:
    """Compile the source; report sizes and (optionally) the IL text."""
    module = _compiled(params, session)
    result = {
        "code_size": module.total_code_size(),
        "functions": sorted(module.functions),
        "externals": sorted(module.externals),
    }
    if params.get("dump"):
        from repro.il.printer import format_module

        result["il"] = format_module(module)
    return result


def op_profile(params: dict, session=None) -> dict:
    """Compile and execute once; report outputs and dynamic counts."""
    from repro.profiler.profile import RunSpec, run_once

    spec = RunSpec.from_text(params.get("stdin"), params.get("argv"))
    module = _compiled(params, session)
    run = run_once(module, spec, fuel=REQUEST_FUEL)
    result = {"exit_code": run.exit_code, "stdout": run.stdout}
    result.update(run.counters.to_summary())
    return result


def op_inline(params: dict, session=None) -> dict:
    """The full profile -> inline -> re-profile loop for one input."""
    measured = _measured(params, session)
    outcome = measured.inline
    before, after = measured.profile.total, measured.post_profile.total
    return {
        "expanded": len(outcome.records),
        "code_size_before": outcome.original_size,
        "code_size_after": outcome.final_size,
        "code_increase": outcome.code_increase,
        "call_decrease": measured.call_decrease,
        "il_before": before.il,
        "il_after": after.il,
        "calls_before": before.calls,
        "calls_after": after.calls,
    }


def op_check(params: dict, session=None) -> dict:
    """Inline, then check the inlined module's outputs against the original.

    The same measurement as :func:`op_inline`: each module runs once,
    and the comparison reads the observations those runs left.
    """
    measured = _measured(params, session)
    return {
        "ok": measured.outputs_match,
        "expanded": len(measured.inline.records),
        "divergences": list(measured.output_divergences),
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


def execute(op: str, params: dict | None, session=None) -> dict:
    """Dispatch one operation; the direct (batch) execution path."""
    handler = OPS.get(op)
    if handler is None:
        raise ValueError(
            f"unknown operation {op!r}; choose from {', '.join(OPS)}"
        )
    return handler(params or {}, session)


def run_request(params: dict | None, *, op: str, cache_dir: str | None) -> dict:
    """One request on a pool worker: :func:`execute` over the worker
    process's session for ``cache_dir``
    (:func:`~repro.pipeline.session.open_session`).

    The server binds ``op`` and ``cache_dir`` with
    :func:`functools.partial` and submits it through
    :func:`~repro.pipeline.parallel.worker_task`, which binds the
    request's observability child around it.
    """
    return execute(op, params, session=open_session(cache_dir))
