"""The engine-equivalence oracle.

The fast tier (:mod:`repro.vm.fast`) is only admissible if it is
*observationally identical* to the reference counting interpreter — not
just same outputs, but the same exact integer profile: dynamic IL
instructions, control transfers, calls, returns, per-site and
per-function counts, and per-branch taken/not-taken splits. This
module runs the same module under both engines over the
same inputs and diffs every one of those channels.

Two entry points mirror the differential oracle's shape:

- :func:`diff_engines_suite` sweeps the benchmark suite (or a named
  subset) at a given scale;
- :func:`replay_fuzz_corpus` regenerates the seeded fuzz corpus and
  replays every program that compiles under both engines, so the fast
  tier is exercised on shapes the hand-written suite never produces.

Both report findings as data (:class:`EngineDiffReport`), matching the
``check`` subcommand's print-everything-then-exit-nonzero contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.observability import Observability, resolve
from repro.profiler.profile import RunSpec, run_differences, run_once
from repro.vm.machine import ENGINES
from repro.workloads.suite import Benchmark, select_benchmarks


@dataclass
class EngineDiffReport:
    """What the oracle observed for one program under both engines."""

    name: str
    runs: int = 0
    #: One entry per diverging input, naming every differing channel
    #: (empty means the fast tier is observationally identical to the
    #: counting interpreter).
    divergences: list[str] = field(default_factory=list)
    #: Total dynamic IL instructions (identical across engines when ok).
    il: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        """One status line, the shape the CLI prints per program."""
        status = "ok" if self.ok else "FAIL"
        line = f"{self.name}: {status} ({self.runs} inputs, {self.il} il)"
        for problem in self.divergences:
            line += f"\n  - {problem}"
        return line


def diff_engines(
    module,
    specs: list[RunSpec],
    name: str = "module",
    obs: Observability | None = None,
) -> EngineDiffReport:
    """Run ``module`` under both engines over ``specs`` and diff them.

    Compares, per input, every channel
    :func:`~repro.profiler.profile.run_differences` knows with
    ``counters=True``: exit code, stdout, stderr, written files, and
    the full counter state — ``il``/``ct``/``calls``/``returns`` plus
    the per-site, per-function, and per-branch dictionaries. Never
    raises on a divergence; everything lands in the returned report.
    """
    obs = resolve(obs)
    report = EngineDiffReport(name=name, runs=len(specs))
    with obs.tracer.span("verify.engines", name=name) as attrs:
        for index, spec in enumerate(specs):
            reference = run_once(
                module, spec, collect_branches=True, obs=obs, engine="counting"
            )
            fast = run_once(
                module, spec, collect_branches=True, obs=obs, engine="fast"
            )
            report.il += reference.counters.il
            problems = run_differences(
                reference, fast, counters=True, after="under fast"
            )
            if problems:
                label = spec.label or f"input {index}"
                report.divergences.append(
                    f"{label} (counting vs fast): " + "; ".join(problems)
                )
        attrs["ok"] = report.ok
        attrs["il"] = report.il
    if obs.metrics.enabled:
        obs.metrics.inc("verify.engine_programs")
        if report.divergences:
            obs.metrics.inc(
                "verify.engine_divergences", len(report.divergences)
            )
    return report


def diff_engines_benchmark(
    benchmark: Benchmark,
    scale: str = "small",
    obs: Observability | None = None,
) -> EngineDiffReport:
    """Compile one suite benchmark and diff the engines on it."""
    obs = resolve(obs)
    module = benchmark.compile(obs=obs)
    return diff_engines(
        module, benchmark.make_runs(scale), name=benchmark.name, obs=obs
    )


def diff_engines_suite(
    names: list[str] | None = None,
    scale: str = "small",
    obs: Observability | None = None,
) -> list[EngineDiffReport]:
    """Diff the engines over every suite benchmark (or a subset)."""
    return [
        diff_engines_benchmark(benchmark, scale, obs=obs)
        for benchmark in select_benchmarks(names)
    ]


def replay_fuzz_corpus(
    count: int,
    seed: int = 0,
    obs: Observability | None = None,
) -> list[EngineDiffReport]:
    """Replay the seeded fuzz corpus under both engines.

    Regenerates the same deterministic programs :func:`run_fuzz` would
    (same seed arithmetic), compiles each, and diffs the engines on the
    result. Programs that fail to compile are skipped — the fuzz
    campaign itself owns compile-stage findings — but an execution-side
    :class:`~repro.errors.ReproError` under either engine is reported
    as a divergence, since both engines must trap identically.
    """
    from repro.compiler import compile_program
    from repro.verify.fuzz import generate_program

    obs = resolve(obs)
    reports: list[EngineDiffReport] = []
    for index in range(count):
        program_seed = seed + index
        source = generate_program(program_seed)
        name = f"fuzz-{index}"
        try:
            module = compile_program(
                source, filename=f"fuzz{index}.c", obs=obs
            )
        except ReproError:
            continue
        try:
            reports.append(
                diff_engines(module, [RunSpec(label=name)], name=name, obs=obs)
            )
        except ReproError as error:
            report = EngineDiffReport(name=name, runs=1)
            report.divergences.append(f"engine raised: {error}")
            reports.append(report)
    return reports


__all__ = [
    "ENGINES",
    "EngineDiffReport",
    "diff_engines",
    "diff_engines_benchmark",
    "diff_engines_suite",
    "replay_fuzz_corpus",
]
