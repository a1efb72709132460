"""The per-benchmark experiment pipeline.

For each benchmark: compile, pre-optimize (constant folding and jump
optimization, which the paper applies *before* inline expansion — §4.4),
profile over the input set, classify call sites, inline, re-profile the
inlined program over the same inputs, and check output equivalence
between the original and inlined binaries on every input. The check
compares the :class:`~repro.profiler.profile.Observation` each profiled
run left behind, so every (module, input) pair executes once.

Every stage is instrumented: pass an
:class:`~repro.observability.Observability` as ``obs`` to collect a
structured trace (phase spans, inline-decision audit records) and a
metrics snapshot. The default (``obs=None``) is a true no-op and leaves
all outputs byte-identical.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

from repro.inliner.classify import ClassifiedSites, SiteClass, classify_sites
from repro.inliner.manager import InlineExpander, InlineResult
from repro.inliner.params import InlineParameters
from repro.observability import Observability, resolve
# Nothing here calls it any more; bench/layers.py times this name.
from repro.opt import optimize_module  # noqa: F401
from repro.opt.pipeline import DEFAULT_OPT_SPEC, parse_pass_spec
from repro.pipeline.parallel import parallel_map, validate_executor, validate_jobs
from repro.pipeline.session import CompilationSession
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
    order; ``jobs > 1`` runs them on a ``"thread"`` or ``"process"``
    ``executor`` pool; ``pass_spec`` selects the pre-optimization
    pipeline (``None``: the full five-pass set; ``""``: none), kept as
    given; ``check`` re-verifies IL well-formedness after every inline
    phase; ``params`` are the inliner's knobs.
    Construction raises :class:`ValueError` on ``jobs < 1``, an unknown
    executor, a pass spec :func:`~repro.opt.pipeline.parse_pass_spec`
    rejects, or any unknown benchmark name.
    """

    scale: str = "small"
    names: tuple[str, ...] | None = None
    jobs: int = 1
    executor: str = "thread"
    pass_spec: str | None = None
    check: bool = False
    params: InlineParameters = InlineParameters()

    def __post_init__(self) -> None:
        validate_jobs(self.jobs)
        validate_executor(self.executor)
        parse_pass_spec(self.pass_spec)
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        select_benchmarks(self.names)


def pre_opt_spec(config: RunConfig) -> str:
    """The pass spec a run pre-optimizes with: ``config.pass_spec``, or
    the default pipeline when that is ``None``."""
    return DEFAULT_OPT_SPEC if config.pass_spec is None else config.pass_spec


@dataclass
class BenchmarkResult:
    """Everything the four tables need for one benchmark."""

    name: str
    c_lines: int
    runs: int
    input_description: str
    profile: ProfileData
    classified: ClassifiedSites
    inline: InlineResult
    post_profile: ProfileData
    post_classified: ClassifiedSites
    outputs_match: bool
    params: InlineParameters = field(default_factory=InlineParameters)
    #: Human-readable description of every input whose outputs diverged
    #: between the original and inlined binaries (empty when they match).
    output_divergences: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Table 1 quantities

    @property
    def avg_il_thousands(self) -> float:
        return self.profile.avg_il / 1000.0

    @property
    def avg_ct_thousands(self) -> float:
        return self.profile.avg_ct / 1000.0

    # ------------------------------------------------------------------
    # Table 4 quantities

    @property
    def code_increase(self) -> float:
        return self.inline.code_increase

    @property
    def call_decrease(self) -> float:
        before = self.profile.avg_calls
        after = self.post_profile.avg_calls
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


def run_benchmark(
    benchmark: Benchmark,
    config: RunConfig,
    *,
    obs: Observability | None = None,
    session: CompilationSession | None = None,
) -> BenchmarkResult:
    """Run the full experiment pipeline for one benchmark.

    With a :class:`~repro.pipeline.session.CompilationSession`, the
    compile (including pre-optimization) and both profiling stages are
    served content-addressed from its cache when possible; without one
    every stage runs from scratch. ``config.names`` and the pool
    options are the suite's business and are ignored here.
    """
    scale, params = config.scale, config.params
    obs = resolve(obs)
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
        if session is not None:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = session.compile_benchmark(
                    benchmark, pass_spec=config.pass_spec, obs=obs
                )
        else:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = benchmark.compile(obs=obs, pass_spec=pre_opt_spec(config))
        specs = benchmark.make_runs(scale)
        with tracer.span("benchmark.profile", name=benchmark.name):
            if session is not None:
                profile = session.profile(
                    module, specs, scale=scale, params=params, obs=obs
                )
            else:
                profile = profile_module(module, specs, obs=obs)

        with tracer.span("benchmark.inline", name=benchmark.name):
            expander = InlineExpander(
                module, profile, params, check=config.check, obs=obs
            )
            inline_result = expander.run()
        if tracer.enabled:
            for decision in inline_result.decisions:
                record = decision.to_record()
                record["benchmark"] = benchmark.name
                tracer.record(record)
        with tracer.span("benchmark.post_profile", name=benchmark.name):
            if session is not None:
                post_profile = session.profile(
                    inline_result.module, specs, scale=scale, params=params,
                    obs=obs,
                )
            else:
                post_profile = profile_module(inline_result.module, specs, obs=obs)

        with tracer.span(
            "benchmark.check_outputs", name=benchmark.name
        ) as check_attrs:
            comparison = compare_outputs(
                module,
                inline_result.module,
                specs,
                before=profile.observations,
                after=post_profile.observations,
            )
            check_attrs["reused"] = comparison.reused
            check_attrs["rerun"] = comparison.rerun
        if obs.metrics.enabled:
            obs.metrics.inc("pipeline.check.reused_inputs", comparison.reused)
        for divergence in comparison.divergences:
            tracer.event(
                "output_divergence", benchmark=benchmark.name, detail=divergence
            )
            _LOG.warning("[%s] output divergence: %s", benchmark.name, divergence)

        with tracer.span("benchmark.post_classify", name=benchmark.name):
            post_graph = build_call_graph(inline_result.module, post_profile, obs=obs)
            post_classified = classify_sites(
                inline_result.module, post_graph, post_profile, params
            )
        attrs["outputs_match"] = comparison.matches
        attrs["expansions"] = len(inline_result.records)
    if obs.metrics.enabled:
        obs.metrics.inc("pipeline.benchmarks")
        if not comparison.matches:
            obs.metrics.inc("pipeline.output_divergences", len(comparison.divergences))
    return BenchmarkResult(
        name=benchmark.name,
        c_lines=benchmark.c_lines,
        runs=len(specs),
        input_description=benchmark.input_description,
        profile=profile,
        classified=inline_result.classified,
        inline=inline_result,
        post_profile=post_profile,
        post_classified=post_classified,
        outputs_match=comparison.matches,
        params=params,
        output_divergences=comparison.divergences,
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


#: Per-process registry of sessions opened from a spec, so one worker
#: process reuses its in-memory cache across the tasks it executes
#: (the disk store is shared between processes regardless).
_WORKER_SESSIONS: dict[tuple, CompilationSession] = {}


def _session_from_spec(spec: dict | None) -> CompilationSession | None:
    if spec is None:
        return None
    key = tuple(sorted(spec.items()))
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        session = CompilationSession.from_spec(spec)
        _WORKER_SESSIONS[key] = session
    return session


def _benchmark_task(
    name: str,
    obs: Observability,
    *,
    config: RunConfig,
    session: CompilationSession | dict | None,
) -> BenchmarkResult:
    """One suite item, addressed by benchmark name so it pickles.

    ``session`` is the live session when the task runs in this process
    and the session's spec in a process worker, which re-opens the
    shared disk store from it.
    """
    if isinstance(session, dict):
        session = _session_from_spec(session)
    _LOG.info("[%s] running ...", name)
    return run_benchmark(benchmark_by_name(name), config, obs=obs, session=session)


def run_suite(
    config: RunConfig,
    *,
    obs: Observability | None = None,
    session: CompilationSession | None = None,
) -> list[BenchmarkResult]:
    """Run the pipeline for every benchmark ``config`` selects.

    Results keep suite order. With ``config.jobs > 1`` the benchmarks
    run on a worker pool and per-worker trace/metric records are merged
    into the parent ``obs``; ``jobs=1`` is the plain serial loop. The
    ``"thread"`` executor shares the live ``session`` in memory but
    serializes CPU work on the GIL; ``"process"`` gives true CPU
    parallelism — workers share the session's *disk* store (each
    process re-opens it from :meth:`CompilationSession.spec`) and
    return their results and telemetry by pickling. A shared
    ``session`` serves compiles and profiles from its
    content-addressed cache either way.

    Progress goes through the ``repro.experiments`` logger; callers
    that want it on stderr call
    :func:`~repro.observability.enable_console_logging`.
    """
    obs = resolve(obs)
    if session is not None and config.jobs > 1 and config.executor == "process":
        # The live session holds locks and caches that cannot cross
        # the process boundary.
        session = session.spec()
    task = functools.partial(_benchmark_task, config=config, session=session)
    with obs.tracer.span("suite", scale=config.scale) as attrs:
        results = parallel_map(
            task,
            [benchmark.name for benchmark in select_benchmarks(config.names)],
            config.jobs,
            obs=obs,
            worker_label="suite",
            executor=config.executor,
        )
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
