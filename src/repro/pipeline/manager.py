"""The PassManager: ordered pass execution with fixpoint rounds.

One engine drives both flavors of pipeline in this codebase:

- the optimizer's function-level fixpoint (``fold → copyprop → cse →
  jumpopt → dce`` rounds until a round changes nothing), and
- the inliner's single-round module-level phase sequence
  (``callgraph → classify → linearize → select → expand → cleanup``).

Per-pass change counts accumulate into :class:`PassStats`; when a live
:class:`~repro.observability.Observability` is supplied, per-pass wall
time and change counts are also reported as
``pipeline.pass.<name>.seconds`` histograms and
``pipeline.pass.<name>.changes`` counters, and module-level passes run
inside their declared tracer spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.observability import Observability, resolve
from repro.pipeline.passes import (
    DEFAULT_OPT_SPEC,
    Pass,
    PassContext,
    parse_pass_spec,
)


@dataclass
class PassStats:
    """Per-pass change counts accumulated over all rounds."""

    rounds: int = 0
    by_pass: dict[str, int] = field(default_factory=dict)

    def record(self, name: str, count: int) -> None:
        self.by_pass[name] = self.by_pass.get(name, 0) + count

    def merge(self, other: "PassStats") -> None:
        self.rounds = max(self.rounds, other.rounds)
        for name, count in other.by_pass.items():
            self.record(name, count)

    @property
    def total_changes(self) -> int:
        return sum(self.by_pass.values())


class PassManager:
    """Runs an ordered pass pipeline over functions or whole modules."""

    def __init__(
        self,
        passes: Sequence[Pass],
        max_rounds: int = 8,
        fixpoint: bool = True,
    ):
        self.passes = list(passes)
        self.max_rounds = max_rounds
        self.fixpoint = fixpoint

    @classmethod
    def from_spec(
        cls,
        spec: str | None = None,
        max_rounds: int = 8,
        fixpoint: bool = True,
    ) -> "PassManager":
        """Build a manager from a spec string (``None`` → default opt)."""
        return cls(
            parse_pass_spec(spec if spec is not None else DEFAULT_OPT_SPEC),
            max_rounds=max_rounds,
            fixpoint=fixpoint,
        )

    @property
    def spec(self) -> str:
        """The canonical spec string this manager runs."""
        return ",".join(pass_.name for pass_ in self.passes)

    # ------------------------------------------------------------------

    def _run_one(self, pass_: Pass, ctx: PassContext, obs: Observability) -> int:
        """Run one pass invocation, reporting time/changes when live."""
        if not obs.metrics.enabled:
            return pass_.run(ctx)
        start = time.perf_counter()
        count = pass_.run(ctx)
        obs.metrics.observe(
            f"pipeline.pass.{pass_.name}.seconds", time.perf_counter() - start
        )
        if count:
            obs.metrics.inc(f"pipeline.pass.{pass_.name}.changes", count)
        return count

    def run_function(
        self,
        function,
        max_rounds: int | None = None,
        obs: Observability | None = None,
    ) -> PassStats:
        """Run the function-level pipeline on one function to fixpoint."""
        for pass_ in self.passes:
            if pass_.level != "function":
                raise ValueError(
                    f"pass {pass_.name!r} is module-level; run_function"
                    " accepts function-level pipelines only"
                )
        obs = resolve(obs)
        rounds = max_rounds if max_rounds is not None else self.max_rounds
        ctx = PassContext(function=function, obs=obs)
        stats = PassStats()
        for _ in range(rounds if self.fixpoint else 1):
            round_changes = 0
            for pass_ in self.passes:
                count = self._run_one(pass_, ctx, obs)
                stats.record(pass_.name, count)
                round_changes += count
            stats.rounds += 1
            if round_changes == 0:
                break
        return stats

    def run_module(
        self,
        module,
        ctx: PassContext | None = None,
        obs: Observability | None = None,
    ) -> PassStats:
        """Run the pipeline over a module.

        Function-level passes apply to every function; module-level
        passes run once per round with the shared context. With
        ``fixpoint`` the rounds repeat until nothing changes (or
        ``max_rounds`` hits); otherwise a single round runs.
        """
        if ctx is None:
            ctx = PassContext(module=module, obs=resolve(obs))
        else:
            ctx.module = module
            if obs is not None:
                ctx.obs = resolve(obs)
        obs = ctx.obs
        stats = PassStats()
        for _ in range(self.max_rounds if self.fixpoint else 1):
            round_changes = 0
            for pass_ in self.passes:
                if pass_.level == "function":
                    count = 0
                    for function in module.functions.values():
                        ctx.function = function
                        count += self._run_one(pass_, ctx, obs)
                    ctx.function = None
                else:
                    span = getattr(pass_, "span", None) or f"pass.{pass_.name}"
                    open_attrs = getattr(pass_, "span_attrs", None)
                    with obs.tracer.span(
                        span, **(open_attrs(ctx) if open_attrs else {})
                    ) as attrs:
                        count = self._run_one(pass_, ctx, obs)
                        result_attr = getattr(pass_, "result_attr", None)
                        if result_attr:
                            attrs[result_attr] = count
                stats.record(pass_.name, count)
                round_changes += count
                if ctx.check and pass_.name != "verify":
                    self._verify_after(pass_, ctx, obs)
            stats.rounds += 1
            if round_changes == 0:
                break
        return stats

    @staticmethod
    def _verify_after(pass_: Pass, ctx: PassContext, obs: Observability) -> None:
        """Re-verify IL well-formedness after one pass (``--check``).

        Any :class:`~repro.errors.ILError` raised here names the pass
        that broke the invariant, so transformation bugs are pinned to
        the phase that introduced them rather than surfacing later.
        """
        from repro.errors import ILError
        from repro.il.verifier import verify_module

        with obs.tracer.span("verify.after_pass", pass_name=pass_.name):
            try:
                verify_module(ctx.module)
            except ILError as error:
                raise ILError(
                    f"IL verification failed after pass {pass_.name!r}: {error}"
                ) from error
        if obs.metrics.enabled:
            obs.metrics.inc("verify.pass_checks")
