"""The per-benchmark experiment pipeline.

For each benchmark: compile, pre-optimize (constant folding and jump
optimization, which the paper applies *before* inline expansion — §4.4),
then measure the inlining with :func:`measure_inlining`, and classify
the inlined program's call sites.

:func:`measure_inlining` is the one place an inlining is measured, the
way §4 measures it: profile the program over its inputs, inline under
that profile, re-profile the inlined program over the same inputs, and
check that both printed the same outputs. The check compares the
:class:`~repro.profiler.profile.Observation` each profiled run left
behind, so every (module, input) pair executes once. The suite, the
differential oracle, the service's ``inline`` and ``check`` operations,
``impact-inline inline``, the ablations and the extension studies all
call it, each with its own way of profiling and of inlining; Table 4's
call decrease, ILs/call and CTs/call are defined once, on the
:class:`InliningMeasurement` it returns (:func:`checked` raises on a
divergence).

Every stage is instrumented: run it under
``with observing(Observability.create()):`` (see
:mod:`repro.observability`) to collect a structured trace (phase
spans, inline-decision audit records) and a metrics snapshot. With
nothing bound, observability is a no-op and leaves all outputs
byte-identical.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import InlineError
from repro.inliner.classify import ClassifiedSites, SiteClass, classify_sites
from repro.inliner.manager import InlineResult, inline_module
from repro.inliner.params import InlineParameters
from repro.observability import current
# Nothing here calls it any more; bench/layers.py times this name.
from repro.opt import optimize_module  # noqa: F401
from repro.opt.pipeline import DEFAULT_OPT_SPEC, parse_pass_spec
from repro.pipeline.parallel import parallel_map, validate_jobs
from repro.pipeline.session import CompilationSession, open_session
from repro.profiler.profile import (
    Observation,
    ProfileData,
    RunSpec,
    profile_module,
    run_differences,
    run_once,
)
from repro.callgraph.build import build_call_graph
from repro.workloads.suite import Benchmark, benchmark_by_name, select_benchmarks

_LOG = logging.getLogger("repro.experiments")


@dataclass(frozen=True)
class RunConfig:
    """The options of one suite run, checked once and passed whole.

    ``names`` restricts the run to those benchmarks, kept in suite
    order; ``jobs > 1`` runs them on that many worker processes;
    ``pass_spec`` selects the pre-optimization pipeline (``""``: none),
    kept as given; ``check`` re-verifies IL well-formedness after every
    inline phase; ``params`` are the inliner's knobs.
    Construction raises :class:`ValueError` on ``jobs < 1``, a
    ``pass_spec`` of ``None`` or one
    :func:`~repro.opt.pipeline.parse_pass_spec` rejects, or any unknown
    benchmark name.
    """

    scale: str = "small"
    names: tuple[str, ...] | None = None
    jobs: int = 1
    pass_spec: str = DEFAULT_OPT_SPEC
    check: bool = False
    params: InlineParameters = InlineParameters()

    def __post_init__(self) -> None:
        validate_jobs(self.jobs)
        if self.pass_spec is None:
            raise ValueError("pass_spec must be a string ('' for no passes), not None")
        parse_pass_spec(self.pass_spec)
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        select_benchmarks(self.names)


@dataclass
class OutputComparison:
    """Outcome of comparing two modules' outputs over an input set."""

    matches: bool
    #: One entry per diverging input: which spec, and what differed
    #: (exit code vs. stdout vs. written files).
    divergences: list[str] = field(default_factory=list)
    #: Inputs matched from recorded observations alone, with no VM run.
    reused: int = 0
    #: Inputs for which at least one module was executed.
    rerun: int = 0


@dataclass
class InliningMeasurement:
    """One inlining as :func:`measure_inlining` measured it.

    ``profile`` and ``post_profile`` are the original's and the inlined
    module's profiles over the same inputs, ``inline`` is what the
    inliner returned, and ``comparison`` is read from the two profiles'
    observations.
    """

    profile: ProfileData
    inline: InlineResult
    post_profile: ProfileData
    comparison: OutputComparison

    @property
    def outputs_match(self) -> bool:
        return self.comparison.matches

    @property
    def output_divergences(self) -> list[str]:
        """Human-readable description of every input whose outputs
        diverged between the original and inlined binaries (empty when
        they match)."""
        return self.comparison.divergences

    # ------------------------------------------------------------------
    # Table 4 quantities

    @property
    def code_increase(self) -> float:
        return self.inline.code_increase

    @property
    def call_decrease(self) -> float:
        """Table 4's *call dec*: the share of the original's dynamic
        calls that are gone from the inlined module's."""
        before, after = self.profile.avg_calls, self.post_profile.avg_calls
        if before <= 0:
            return 0.0
        return max(0.0, 1.0 - after / before)

    @property
    def ils_per_call(self) -> float:
        calls = self.post_profile.avg_calls
        return self.post_profile.avg_il / calls if calls else float("inf")

    @property
    def cts_per_call(self) -> float:
        calls = self.post_profile.avg_calls
        return self.post_profile.avg_ct / calls if calls else float("inf")


@dataclass
class BenchmarkResult(InliningMeasurement):
    """Everything the four tables need for one benchmark."""

    name: str
    c_lines: int
    input_description: str
    post_classified: ClassifiedSites
    params: InlineParameters = field(default_factory=InlineParameters)

    @property
    def runs(self) -> int:
        return self.profile.runs

    @property
    def classified(self) -> ClassifiedSites:
        return self.inline.classified

    # ------------------------------------------------------------------
    # Table 1 quantities

    @property
    def avg_il_thousands(self) -> float:
        return self.profile.avg_il / 1000.0

    @property
    def avg_ct_thousands(self) -> float:
        return self.profile.avg_ct / 1000.0


def measure_inlining(
    module,
    specs: list[RunSpec],
    inliner: Callable[[ProfileData], InlineResult],
    *,
    name: str,
    profiler=None,
) -> InliningMeasurement:
    """Profile ``module`` over ``specs``, inline it, re-profile the
    inlined module over the same inputs, and compare their outputs.

    ``profiler(module, specs)`` is the caller's way of profiling, used
    for both modules: a session's cached
    :meth:`~repro.pipeline.session.CompilationSession.profile`, or
    :func:`~repro.profiler.profile.profile_module` with the caller's
    fuel and exit-code policy (plain ``profile_module`` when ``None``).
    ``inliner(profile)`` is the caller's way of inlining, given the
    original's profile: a :func:`functools.partial` of
    :func:`~repro.inliner.manager.inline_module`, or one that selects
    under static arc weights or under a profile of other inputs.
    Whatever it selects under, the original is profiled over ``specs``,
    so every figure on the record compares an input with itself. Each
    stage runs in its ``benchmark.<stage>`` span, tagged with ``name``.
    The output check reads the two profiles' observations
    (:func:`compare_outputs`) and runs the modules again only to
    describe a divergence.
    """
    profiler = profiler or profile_module
    tracer = current().tracer
    with tracer.span("benchmark.profile", name=name):
        profile = profiler(module, specs)
    with tracer.span("benchmark.inline", name=name):
        inlined = inliner(profile)
    with tracer.span("benchmark.post_profile", name=name):
        post_profile = profiler(inlined.module, specs)
    with tracer.span("benchmark.check_outputs", name=name) as attrs:
        comparison = compare_outputs(
            module,
            inlined.module,
            specs,
            before=profile.observations,
            after=post_profile.observations,
        )
        attrs["reused"] = comparison.reused
        attrs["rerun"] = comparison.rerun
    return InliningMeasurement(profile, inlined, post_profile, comparison)


def checked(
    measured: InliningMeasurement, name: str, label: str
) -> InliningMeasurement:
    """``measured``, if its outputs matched; otherwise raises
    :class:`~repro.errors.InlineError` naming ``name [label]`` and each divergence."""
    if not measured.outputs_match:
        raise InlineError(
            f"{name} [{label}]: inlined outputs diverge: "
            + "; ".join(measured.output_divergences)
        )
    return measured


def run_benchmark(
    benchmark: Benchmark,
    config: RunConfig,
    *,
    session: CompilationSession | None = None,
) -> BenchmarkResult:
    """Run the full experiment pipeline for one benchmark.

    With a :class:`~repro.pipeline.session.CompilationSession`, the
    compile (including pre-optimization) and both profiling stages are
    served content-addressed from its cache when possible; without one
    every stage runs from scratch. Either way a run that exits non-zero
    raises. ``config.names`` and ``config.jobs`` are the suite's
    business and are ignored here.
    """
    scale, params = config.scale, config.params
    obs = current()
    tracer = obs.tracer
    # Mint a per-benchmark trace id (unless the caller already bound
    # one, e.g. a service request): every span/event/decision this run
    # emits then carries it, so one grep isolates one benchmark even in
    # an interleaved parallel trace.
    scoped: dict = {}
    if tracer.enabled and "trace_id" not in tracer.bound_context():
        from repro.observability.context import new_trace_id

        scoped["trace_id"] = new_trace_id()
    with tracer.context(**scoped), tracer.span(
        "benchmark", name=benchmark.name, scale=scale
    ) as attrs:
        with tracer.span("benchmark.compile", name=benchmark.name):
            if session is not None:
                module = session.compiled_module(
                    benchmark.source,
                    filename=f"{benchmark.name}.c",
                    pass_spec=config.pass_spec,
                )
            else:
                module = benchmark.compile(pass_spec=config.pass_spec)
        measured = measure_inlining(
            module,
            benchmark.make_runs(scale),
            functools.partial(
                inline_module, module, params=params, check=config.check
            ),
            name=benchmark.name,
            profiler=session.profile if session is not None else None,
        )
        inlined, post_profile = measured.inline, measured.post_profile
        if tracer.enabled:
            for decision in inlined.decisions:
                record = decision.to_record()
                record["benchmark"] = benchmark.name
                tracer.record(record)
        comparison = measured.comparison
        if obs.metrics.enabled:
            obs.metrics.inc("pipeline.check.reused_inputs", comparison.reused)
        for divergence in comparison.divergences:
            tracer.event(
                "output_divergence", benchmark=benchmark.name, detail=divergence
            )
            _LOG.warning("[%s] output divergence: %s", benchmark.name, divergence)

        with tracer.span("benchmark.post_classify", name=benchmark.name):
            post_graph = build_call_graph(inlined.module, post_profile)
            post_classified = classify_sites(
                inlined.module, post_graph, post_profile, params
            )
        attrs["outputs_match"] = comparison.matches
        attrs["expansions"] = len(inlined.records)
    if obs.metrics.enabled:
        obs.metrics.inc("pipeline.benchmarks")
        if not comparison.matches:
            obs.metrics.inc("pipeline.output_divergences", len(comparison.divergences))
    return BenchmarkResult(
        **vars(measured),
        name=benchmark.name,
        c_lines=benchmark.c_lines,
        input_description=benchmark.input_description,
        post_classified=post_classified,
        params=params,
    )


def compare_outputs(
    module_a,
    module_b,
    specs: list[RunSpec],
    before: tuple[Observation, ...] | None = None,
    after: tuple[Observation, ...] | None = None,
) -> OutputComparison:
    """Compare both modules' outputs over every spec; describe divergences.

    ``before``/``after`` are the observations profiling already took of
    ``module_a``/``module_b`` on ``specs`` (one per spec, in order; any
    other count is ignored). An input whose two observations agree
    matches without running; a side with no observation is run and
    observed. A disagreeing input re-runs both modules in full, so each
    divergence names the input (label or index) and every channel
    :func:`~repro.profiler.profile.run_differences` finds differing:
    exit code, stdout, stderr, or written files.
    """
    if before is not None and len(before) != len(specs):
        before = None
    if after is not None and len(after) != len(specs):
        after = None
    comparison = OutputComparison(matches=True)
    for index, spec in enumerate(specs):
        seen_a = before[index] if before is not None else None
        seen_b = after[index] if after is not None else None
        if seen_a is not None and seen_a == seen_b:
            comparison.reused += 1
            continue
        comparison.rerun += 1
        if seen_a is None:
            seen_a = Observation.of(run_once(module_a, spec))
        if seen_b is None:
            seen_b = Observation.of(run_once(module_b, spec))
        if seen_a == seen_b:
            continue
        problems = run_differences(
            run_once(module_a, spec), run_once(module_b, spec)
        )
        if problems:
            label = spec.label or f"input {index}"
            comparison.divergences.append(f"{label}: " + "; ".join(problems))
    comparison.matches = not comparison.divergences
    return comparison


def _benchmark_task(
    name: str,
    *,
    config: RunConfig,
    session: CompilationSession | str | None,
) -> BenchmarkResult:
    """One suite item, addressed by benchmark name so it pickles.

    ``session`` is the live session on the serial path, and the
    session's cache directory on a worker process, which opens it once
    (:func:`~repro.pipeline.session.open_session`).
    """
    if isinstance(session, str):
        session = open_session(session)
    _LOG.info("[%s] running ...", name)
    return run_benchmark(benchmark_by_name(name), config, session=session)


def run_suite(
    config: RunConfig,
    *,
    session: CompilationSession | None = None,
) -> list[BenchmarkResult]:
    """Run the pipeline for every benchmark ``config`` selects.

    Results keep suite order. ``jobs=1`` (or one benchmark) is the
    plain serial loop, served from the live ``session``. Otherwise the
    benchmarks run on worker processes, which return their results and
    telemetry by pickling; per-worker trace/metric records are merged
    into the current observability. The workers share the session's *disk*
    store: each process opens ``session.cache_dir`` once, and a session
    without one is not passed to them.

    Progress goes through the ``repro.experiments`` logger; callers
    that want it on stderr call
    :func:`~repro.observability.enable_console_logging`.
    """
    names = [benchmark.name for benchmark in select_benchmarks(config.names)]
    if session is not None and config.jobs > 1 and len(names) > 1:
        # The items run on worker processes, which the live session (a
        # lock, in-memory tables) cannot reach: they get its directory.
        session = session.cache_dir
    task = functools.partial(_benchmark_task, config=config, session=session)
    with current().tracer.span("suite", scale=config.scale) as attrs:
        results = parallel_map(task, names, config.jobs, worker_label="suite")
        attrs["benchmarks"] = len(results)
    return results


def aggregate_dynamic_breakdown(
    results: list[BenchmarkResult],
) -> dict[SiteClass, float]:
    """Suite-wide post-inline dynamic call mix (the §4.4 percentages)."""
    totals = {site_class: 0.0 for site_class in SiteClass}
    for result in results:
        for site_class in SiteClass:
            totals[site_class] += result.post_classified.dynamic.get(
                site_class, 0.0
            )
    grand = sum(totals.values())
    if grand == 0:
        return {site_class: 0.0 for site_class in SiteClass}
    return {site_class: value / grand for site_class, value in totals.items()}
