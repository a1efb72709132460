"""The optimizer: one fixed fixpoint loop over five passes.

Runs fold → copy-propagate → cse → jump-optimize → DCE rounds on each
function until a round changes nothing (or the round limit hits). The
paper applies constant folding and jump optimization before inlining
and recommends the full set afterwards (§4.4); callers choose where in
their pipeline to invoke this.

A *pass spec* names a custom pipeline: comma-separated pass names,
canonical or alias (``"fold,copyprop,cse,jumpopt,dce"``), which may
splice in the function-local IL check ``verify`` (alias ``check``).
:func:`parse_pass_spec` is the one parser of that text; the
``--passes`` flags, ``RunConfig.pass_spec``, the session's cache key
and the service's ``passes`` param all go through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.il.function import ILFunction
from repro.il.module import ILModule
from repro.il.verifier import verify_function_local
from repro.observability import NULL_OBS, current
from repro.opt.constant_fold import fold_constants
from repro.opt.copy_prop import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.jump_opt import optimize_jumps


def _verify(function: ILFunction) -> int:
    # Function-local, so it splices into any pipeline; module-wide
    # verification (call targets, site-id uniqueness) runs after
    # lowering, once after each inline run, and after each inline phase
    # under --check.
    verify_function_local(function)
    return 0


#: Every pass a spec can name: canonical name -> function returning
#: its change count.
PASSES = {
    "constant-fold": fold_constants,
    "copy-propagate": propagate_copies,
    "cse": eliminate_common_subexpressions,
    "jump-optimize": optimize_jumps,
    "dead-code": eliminate_dead_code,
    "verify": _verify,
}

ALIASES = {
    "fold": "constant-fold",
    "copyprop": "copy-propagate",
    "jumpopt": "jump-optimize",
    "dce": "dead-code",
    "check": "verify",
}

#: The default pipeline (§4.4's "full set").
DEFAULT_OPT_SPEC = "constant-fold,copy-propagate,cse,jump-optimize,dead-code"


def parse_pass_spec(spec: str | None) -> tuple[str, ...]:
    """The canonical names of the passes ``spec`` runs, in order.

    ``None`` is the default pipeline and ``""`` the empty one (no
    optimization). Blanks around names are ignored. A spec of only
    commas and blanks, or an unknown name, raises :class:`ValueError`;
    the latter lists every pass and alias.
    """
    if spec is None:
        spec = DEFAULT_OPT_SPEC
    if spec == "":
        return ()
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ValueError(f"empty pass spec {spec!r}")
    for name in names:
        if ALIASES.get(name, name) not in PASSES:
            raise ValueError(
                f"unknown pass {name!r}; available:"
                f" {', '.join(sorted(PASSES))}"
                f" (aliases: {', '.join(sorted(ALIASES))})"
            )
    return tuple(ALIASES.get(name, name) for name in names)


@dataclass
class OptimizationStats:
    """Per-pass change counts accumulated over all rounds."""

    rounds: int = 0
    by_pass: dict[str, int] = field(default_factory=dict)

    def record(self, name: str, count: int) -> None:
        self.by_pass[name] = self.by_pass.get(name, 0) + count

    def merge(self, other: "OptimizationStats") -> None:
        self.rounds = max(self.rounds, other.rounds)
        for name, count in other.by_pass.items():
            self.record(name, count)

    @property
    def total_changes(self) -> int:
        return sum(self.by_pass.values())


def report_pass(metrics, name: str, start: float, changes: int) -> None:
    """Report one invocation of pass ``name`` begun at ``start`` (a
    :func:`time.perf_counter` reading): its wall time as
    ``pipeline.pass.<name>.seconds`` and, when nonzero, its change
    count as ``pipeline.pass.<name>.changes``."""
    metrics.observe(f"pipeline.pass.{name}.seconds", time.perf_counter() - start)
    if changes:
        metrics.inc(f"pipeline.pass.{name}.changes", changes)


def _fixpoint(
    function: ILFunction, names: tuple[str, ...], max_rounds: int, metrics
) -> OptimizationStats:
    """Run the named passes over ``function`` in rounds until one
    changes nothing; with live ``metrics``, report every invocation."""
    passes = [(name, PASSES[name]) for name in names]
    stats = OptimizationStats()
    for _ in range(max_rounds):
        round_changes = 0
        for name, run in passes:
            if metrics.enabled:
                start = time.perf_counter()
                count = run(function)
                report_pass(metrics, name, start, count)
            else:
                count = run(function)
            stats.record(name, count)
            round_changes += count
        stats.rounds += 1
        if round_changes == 0:
            break
    return stats


def optimize_function(
    function: ILFunction, max_rounds: int = 8, pass_spec: str | None = None
) -> OptimizationStats:
    """Optimize one function in place to a fixpoint."""
    return _fixpoint(
        function, parse_pass_spec(pass_spec), max_rounds, NULL_OBS.metrics
    )


def optimize_module(
    module: ILModule, max_rounds: int = 8, pass_spec: str | None = None
) -> OptimizationStats:
    """Optimize every function of the module in place.

    Per-pass change counts and the phase's wall time are reported into
    the current observability (:func:`repro.observability.current`).
    ``pass_spec`` selects a custom pipeline (default: the full
    five-pass set; ``""``: none).
    """
    obs = current()
    names = parse_pass_spec(pass_spec)
    total = OptimizationStats()
    with obs.tracer.span("opt.module", functions=len(module.functions)) as attrs:
        for function in module.functions.values():
            total.merge(_fixpoint(function, names, max_rounds, obs.metrics))
        attrs["changes"] = total.total_changes
    if obs.metrics.enabled:
        for name, count in total.by_pass.items():
            obs.metrics.inc(f"opt.changes.{name}", count)
        obs.metrics.inc("opt.modules_optimized")
    return total
