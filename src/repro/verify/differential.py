"""The differential-equivalence oracle.

Inline expansion must be a *semantic no-op*: for every input, the
inlined program produces exactly the outputs of the original. This
module proves that claim empirically by running both modules over the
same inputs and asserting, per input, identical exit codes, identical
stdout and stderr bytes, and identical written files — and, over the
whole input set, two quantitative invariants tying the inliner's
bookkeeping to physical reality:

- **calls-eliminated floor**: the dynamic calls removed by inlining
  (original total minus inlined total, from the VM's exact integer
  counters) are at least the sum of the selected arcs' dynamic counts
  under the measured profile. Expansion deletes exactly those call
  executions; copied sites inside spliced bodies keep executing, so
  the floor is tight in a deterministic VM.
- **size reconciliation**: the cost model's projected program size
  equals the measured post-expansion code size, exactly (no epsilon).
  :class:`~repro.inliner.manager.InlineExpander` asserts the same
  identity internally; the oracle re-checks and *reports* it so a
  drift shows up as data, not just a raised exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.inliner.manager import InlineResult, inline_module
from repro.inliner.params import InlineParameters
from repro.observability import current
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import ProfileData, RunSpec, profile_module
from repro.workloads.suite import Benchmark, select_benchmarks


@dataclass
class DifferentialReport:
    """What the oracle observed for one program."""

    name: str
    runs: int = 0
    expansions: int = 0
    #: Per-input behavioral differences (empty means equivalent).
    divergences: list[str] = field(default_factory=list)
    #: Broken quantitative invariants (empty means reconciled).
    invariant_failures: list[str] = field(default_factory=list)
    calls_before: int = 0
    calls_after: int = 0
    #: Sum of the selected arcs' integer dynamic counts — the minimum
    #: number of dynamic calls expansion must have eliminated.
    eliminated_floor: int = 0
    projected_size: int = 0
    measured_size: int = 0
    #: The inliner's result the oracle checked (``None`` until it ran).
    inline: InlineResult | None = None

    @property
    def calls_eliminated(self) -> int:
        return self.calls_before - self.calls_after

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.invariant_failures

    def summary(self) -> str:
        """One status line, the shape the CLI prints per program."""
        status = "ok" if self.ok else "FAIL"
        line = (
            f"{self.name}: {status} ({self.runs} inputs,"
            f" {self.expansions} expansions,"
            f" {self.calls_eliminated} calls eliminated"
            f" >= floor {self.eliminated_floor},"
            f" size {self.projected_size} == {self.measured_size})"
        )
        for problem in self.divergences + self.invariant_failures:
            line += f"\n  - {problem}"
        return line


def verify_inlining(
    module,
    specs: list[RunSpec],
    params: InlineParameters | None = None,
    seed: int = 0,
    name: str = "module",
    profile: ProfileData | None = None,
) -> DifferentialReport:
    """Run the differential oracle on one compiled module.

    Profiles the original over ``specs`` (unless a matching ``profile``
    is supplied), inlines under it with the per-pass IL checker enabled,
    then profiles the inlined module over the same inputs and compares
    the two sides with
    :func:`~repro.experiments.pipeline.compare_outputs`, which matches
    each input on the observations profiling took and re-runs only to
    describe a divergence. A supplied ``profile`` may stem from other
    inputs, so the original is then profiled over ``specs`` as well.
    Never raises on a divergence — everything the oracle finds lands in
    the returned :class:`DifferentialReport`, which also carries the
    inliner's result.
    """
    from repro.experiments.pipeline import compare_outputs

    params = params or InlineParameters()
    obs = current()
    report = DifferentialReport(name=name, runs=len(specs))
    with obs.tracer.span("verify.differential", name=name) as attrs:
        before = None
        if profile is None:
            profile = before = profile_module(module, specs)
        result = report.inline = inline_module(
            module, profile, params, seed=seed, check=True
        )
        report.expansions = len(result.records)
        report.projected_size = result.selection.projected_size
        report.measured_size = result.pre_cleanup_size
        if report.projected_size != report.measured_size:
            report.invariant_failures.append(
                f"projected size {report.projected_size} != measured"
                f" post-expansion size {report.measured_size}"
            )

        site_counts = profile.total.site_counts
        report.eliminated_floor = sum(
            site_counts.get(arc.site, 0) for arc in result.selection.selected
        )
        after = profile_module(result.module, specs, check_exit=False)
        if before is None:
            before = profile_module(module, specs, check_exit=False)
        report.calls_before = before.total.calls
        report.calls_after = after.total.calls
        report.divergences = compare_outputs(
            module,
            result.module,
            specs,
            before=before.observations,
            after=after.observations,
        ).divergences
        if report.calls_eliminated < report.eliminated_floor:
            report.invariant_failures.append(
                f"only {report.calls_eliminated} dynamic calls eliminated,"
                f" but the {len(result.selection.selected)} selected arcs"
                f" executed {report.eliminated_floor} times under the profile"
            )
        attrs["ok"] = report.ok
        attrs["expansions"] = report.expansions
    if obs.metrics.enabled:
        obs.metrics.inc("verify.programs")
        if report.divergences:
            obs.metrics.inc("verify.divergences", len(report.divergences))
        if report.invariant_failures:
            obs.metrics.inc(
                "verify.invariant_failures", len(report.invariant_failures)
            )
    return report


def verify_benchmark(
    benchmark: Benchmark,
    scale: str = "small",
    params: InlineParameters | None = None,
    seed: int = 0,
) -> DifferentialReport:
    """Compile and pre-optimize one suite benchmark, then run the oracle."""
    module = benchmark.compile(pass_spec=DEFAULT_OPT_SPEC)
    return verify_inlining(
        module, benchmark.make_runs(scale), params, seed=seed, name=benchmark.name
    )


def verify_suite(
    names: list[str] | None = None,
    scale: str = "small",
    params: InlineParameters | None = None,
    seed: int = 0,
) -> list[DifferentialReport]:
    """Run the oracle over every suite benchmark (or a named subset)."""
    return [
        verify_benchmark(benchmark, scale, params, seed=seed)
        for benchmark in select_benchmarks(names)
    ]
