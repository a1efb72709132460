"""The differential-equivalence oracle.

Inline expansion must be a *semantic no-op*: for every input, the
inlined program produces exactly the outputs of the original. The
oracle measures one inlining with
:func:`~repro.experiments.pipeline.measure_inlining`, which profiles
both modules over the same inputs and compares, per input, their exit
codes, stdout and stderr bytes and written files, and it checks two
quantitative invariants tying the inliner's bookkeeping to physical
reality:

- **calls-eliminated floor**: the dynamic calls removed by inlining
  (original total minus inlined total, from the VM's exact integer
  counters) are at least the sum of the selected arcs' dynamic counts
  under the measured profile. Expansion deletes exactly those call
  executions; copied sites inside spliced bodies keep executing, so
  the floor is tight in a deterministic VM.
- **size reconciliation**: the cost model's projected program size
  equals the measured post-expansion code size, exactly (no epsilon).
  :class:`~repro.inliner.manager.InlineExpander` asserts the identity
  and raises :class:`~repro.errors.InlineError` on a breach; the oracle
  records that error as an invariant failure, so a drift shows up as
  data in the report instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InlineError
from repro.experiments import pipeline
from repro.inliner.params import InlineParameters
from repro.observability import current
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import ProfileData, RunSpec
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
    #: The measurement the oracle checked: both profiles, the inliner's
    #: result and the output comparison (``None`` when the inliner
    #: raised).
    measured: pipeline.InliningMeasurement | None = None

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

    Measures the inlining with
    :func:`~repro.experiments.pipeline.measure_inlining`, the per-pass
    IL checker enabled: the inliner selects under ``profile`` when one
    is supplied (it may stem from other inputs) and under the
    original's profile over ``specs`` otherwise. A self-profiled
    original that exits non-zero raises, because its weights would be
    poisoned; a non-zero exit anywhere else is compared like any other
    output. Never raises on a divergence or a broken invariant, the
    inliner's size reconciliation included: everything the oracle finds
    lands in the returned :class:`DifferentialReport`, which also
    carries the measurement.
    """

    def profiled(candidate, inputs):
        strict = candidate is module and profile is None
        return pipeline.profile_module(candidate, inputs, check_exit=strict)

    def inliner(measured):
        return pipeline.inline_module(
            module, profile or measured, params, seed, check=True
        )

    obs = current()
    report = DifferentialReport(name=name, runs=len(specs))
    with obs.tracer.span("verify.differential", name=name) as attrs:
        try:
            measured = report.measured = pipeline.measure_inlining(
                module, specs, inliner, name=name, profiler=profiled
            )
        except InlineError as error:
            report.invariant_failures.append(str(error))
        else:
            result = measured.inline
            report.expansions = len(result.records)
            report.projected_size = result.selection.projected_size
            report.measured_size = result.pre_cleanup_size
            report.calls_before = measured.profile.total.calls
            report.calls_after = measured.post_profile.total.calls
            report.divergences = measured.output_divergences
            site_counts = measured.profile.total.site_counts
            report.eliminated_floor = sum(
                site_counts.get(arc.site, 0) for arc in result.selection.selected
            )
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
