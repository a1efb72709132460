"""The differential-equivalence oracle.

Inline expansion must be a *semantic no-op*: for every input, the
inlined program produces exactly the outputs of the original. This
module proves that claim empirically by running both modules over the
same inputs and asserting, per input, identical exit codes, identical
stdout bytes, and identical written files — and, over the whole input
set, two quantitative invariants tying the inliner's bookkeeping to
physical reality:

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
from repro.observability import Observability, resolve
from repro.opt import optimize_module
from repro.profiler.profile import (
    Observation,
    ProfileData,
    RunSpec,
    profile_module,
    run_once,
)
from repro.workloads.suite import Benchmark, benchmark_names, benchmark_suite


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


def _compare_run(label: str, original, inlined) -> list[str]:
    """Describe every channel on which two runs of one input differ."""
    problems: list[str] = []
    if original.exit_code != inlined.exit_code:
        problems.append(
            f"{label}: exit code {original.exit_code} != {inlined.exit_code}"
        )
    out_a, out_b = bytes(original.os.stdout), bytes(inlined.os.stdout)
    if out_a != out_b:
        offset = next(
            (i for i, (a, b) in enumerate(zip(out_a, out_b)) if a != b),
            min(len(out_a), len(out_b)),
        )
        problems.append(
            f"{label}: stdout differs at byte {offset}"
            f" (lengths {len(out_a)} vs {len(out_b)})"
        )
    if original.os.written_files != inlined.os.written_files:
        paths = sorted(
            set(original.os.written_files) | set(inlined.os.written_files)
        )
        differing = [
            path
            for path in paths
            if original.os.written_files.get(path)
            != inlined.os.written_files.get(path)
        ]
        problems.append(f"{label}: written files differ: {', '.join(differing)}")
    return problems


def verify_inlining(
    module,
    specs: list[RunSpec],
    params: InlineParameters | None = None,
    seed: int = 0,
    name: str = "module",
    profile: ProfileData | None = None,
    obs: Observability | None = None,
    engine: str = "counting",
) -> DifferentialReport:
    """Run the differential oracle on one compiled module.

    Profiles the original over ``specs`` (unless a matching ``profile``
    is supplied), inlines under it with the per-pass IL checker enabled,
    then executes the inlined module over every input and compares it
    with the original. When the oracle profiles the original itself,
    the original's outputs and call count come from those profiling
    runs, and it re-runs only to describe a divergence; a supplied
    ``profile`` may stem from other inputs, so the original then runs
    beside the inlined module on every input. Never raises on a
    divergence — everything the oracle finds lands in the returned
    :class:`DifferentialReport`. All executions use ``engine`` (both
    tiers produce identical counters, so the oracle's verdict is
    engine-independent; ``fast`` just gets there sooner).
    """
    params = params or InlineParameters()
    obs = resolve(obs)
    report = DifferentialReport(name=name, runs=len(specs))
    with obs.tracer.span("verify.differential", name=name) as attrs:
        observed = None
        if profile is None:
            profile = profile_module(module, specs, obs=obs, engine=engine)
            observed = profile.observations
            report.calls_before = profile.total.calls
        result: InlineResult = inline_module(
            module, profile, params, seed=seed, check=True, obs=obs
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
        for index, spec in enumerate(specs):
            label = spec.label or f"input {index}"
            inlined = run_once(result.module, spec, obs=obs, engine=engine)
            report.calls_after += inlined.counters.calls
            if observed is not None and Observation.of(inlined) == observed[index]:
                continue
            original = run_once(module, spec, obs=obs, engine=engine)
            if observed is None:
                report.calls_before += original.counters.calls
            report.divergences.extend(_compare_run(label, original, inlined))
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
    pre_optimize: bool = True,
    seed: int = 0,
    obs: Observability | None = None,
    engine: str = "counting",
) -> DifferentialReport:
    """Compile one suite benchmark and run the oracle on it."""
    obs = resolve(obs)
    module = benchmark.compile(obs=obs)
    if pre_optimize:
        optimize_module(module, obs=obs)
    return verify_inlining(
        module,
        benchmark.make_runs(scale),
        params,
        seed=seed,
        name=benchmark.name,
        obs=obs,
        engine=engine,
    )


def verify_suite(
    names: list[str] | None = None,
    scale: str = "small",
    params: InlineParameters | None = None,
    pre_optimize: bool = True,
    seed: int = 0,
    obs: Observability | None = None,
    engine: str = "counting",
) -> list[DifferentialReport]:
    """Run the oracle over every suite benchmark (or a named subset)."""
    if names is not None:
        unknown = sorted(set(names) - set(benchmark_names()))
        if unknown:
            raise ValueError(
                f"unknown benchmark name(s): {', '.join(unknown)};"
                f" known: {', '.join(benchmark_names())}"
            )
    return [
        verify_benchmark(
            benchmark,
            scale,
            params,
            pre_optimize,
            seed=seed,
            obs=obs,
            engine=engine,
        )
        for benchmark in benchmark_suite()
        if names is None or benchmark.name in names
    ]
