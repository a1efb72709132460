"""Ablation studies on the design choices DESIGN.md calls out.

A — weight threshold T (§2.3.3's ``weight(Ai) < T`` guard),
B — profile-guided selection vs. the no-profile baselines of §1.2,
C — code-growth limit (§2.3.1's program-size cap),
D — linearization order (paper's weight heuristic vs. hybrid),
E — held-out inputs: does a profile of some inputs select for others?

A point of A–D is a ``(label, variant)`` pair, where
``variant(module, profile, check=...)`` inlines one compiled program
given its profile. Every sweep takes a
:class:`~repro.experiments.pipeline.RunConfig` and runs one task per
program it selects under :func:`~repro.pipeline.parallel.parallel_map`.
The task compiles the program once and measures every distinct variant
once with :func:`~repro.experiments.pipeline.measure_inlining`,
profiling through one in-memory
:class:`~repro.pipeline.session.CompilationSession`, so the original is
profiled once. Every variant is data, an :class:`_Expander` of
parameters, linearization and arc weights, so equal configurations
compare equal: the default one, a point of A, B, C and D, is measured
once per program. B's static baselines are expanders too, selecting
under their heuristic's arc weights, so every point spends its
program-size cap through the same cost model and passes the same size
reconciliation. A point whose outputs diverge raises
:class:`~repro.errors.InlineError`. Variants hold only module-level
functions, so they pickle for the worker processes ``jobs > 1`` runs
the tasks on.
"""

from __future__ import annotations

import functools
import itertools
import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import hint_weights, leaf_weights, loop_weights, size_weights
from repro.experiments.pipeline import RunConfig, checked, measure_inlining
from repro.experiments.report import pct, render_table
from repro.il.module import ILModule
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.pipeline.parallel import parallel_map
from repro.pipeline.session import CompilationSession
from repro.profiler.profile import ProfileData
from repro.profiler.static_estimate import estimate_profile
from repro.workloads.suite import benchmark_by_name, select_benchmarks


@dataclass
class AblationPoint:
    label: str
    code_increase: float
    call_decrease: float


def _checked(measured, name: str, label: str):
    """``measured``'s Table 4 pair; raises when its outputs diverged."""
    measured = checked(measured, name, label)
    return measured.code_increase, measured.call_decrease


def _mean_points(task, config: RunConfig, labels) -> list[AblationPoint]:
    """Run ``task(name)`` on every program ``config`` selects; it
    returns one ``(code_increase, call_decrease)`` pair per label, or
    ``None`` to sit out. Each label's point is its mean over the
    programs."""
    per_program = [
        pairs
        for pairs in parallel_map(
            task,
            [benchmark.name for benchmark in select_benchmarks(config.names)],
            config.jobs,
            worker_label="ablation",
        )
        if pairs is not None
    ]
    return [
        AblationPoint(
            label,
            statistics.fmean(pairs[index][0] for pairs in per_program),
            statistics.fmean(pairs[index][1] for pairs in per_program),
        )
        for index, label in enumerate(labels)
    ]


def _measure_program(name, *, config, variants):
    """Every ``(label, variant)`` on one program, addressed by name so
    it pickles; variants that compare equal share one measurement."""
    benchmark = benchmark_by_name(name)
    module = benchmark.compile(pass_spec=config.pass_spec)
    specs = benchmark.make_runs(config.scale)
    session = CompilationSession()
    measured: dict = {}
    points = []
    for label, variant in variants:
        if variant not in measured:
            measured[variant] = measure_inlining(
                module,
                specs,
                functools.partial(variant, module, check=config.check),
                name=name,
                profiler=session.profile,
            )
        points.append(_checked(measured[variant], name, label))
    return points


def _sweep(config: RunConfig, variants) -> list[AblationPoint]:
    task = functools.partial(_measure_program, config=config, variants=variants)
    return _mean_points(task, config, [label for label, _variant in variants])


@dataclass(frozen=True)
class _Expander:
    """The paper's expander under ``params`` and the linearization
    order ``linearization`` (``inline_module``'s default unless set),
    selecting under the program's profile, or under the arc weights
    ``weights(module)`` when set: a §1.2 heuristic's, or §4.2's
    structure-analysis estimate."""

    params: InlineParameters = field(default_factory=InlineParameters)
    linearization: str = "hybrid"
    weights: Callable[[ILModule], ProfileData] | None = None

    def __call__(self, module, profile, check=False):
        return inline_module(
            module,
            profile if self.weights is None else self.weights(module),
            params=self.params,
            linearize_method=self.linearization,
            check=check,
        )


_THRESHOLDS = tuple(
    (f"T={threshold:g}", _Expander(InlineParameters(weight_threshold=threshold)))
    for threshold in (1, 10, 100, 1000)
)

_GROWTH_LIMITS = tuple(
    (f"limit={factor:g}x", _Expander(InlineParameters(size_limit_factor=factor)))
    for factor in (1.0, 1.1, 1.25, 1.5, 2.0)
)

_BASELINES = (
    ("profile-guided", _Expander()),
    ("static-estimate", _Expander(weights=estimate_profile)),
    ("leaf (PL.8)", _Expander(weights=leaf_weights)),
    ("loop (MIPS)", _Expander(weights=loop_weights)),
    ("size<=25", _Expander(weights=size_weights)),
    ("hint (GNU)", _Expander(weights=hint_weights)),
)

_LINEARIZATIONS = tuple(
    (method, _Expander(linearization=method)) for method in ("weight", "hybrid")
)


def threshold_sweep(config: RunConfig) -> list[AblationPoint]:
    """Ablation A: sweep the arc-weight threshold T."""
    return _sweep(config, _THRESHOLDS)


def baseline_comparison(config: RunConfig) -> list[AblationPoint]:
    """Ablation B: profile-guided vs. static heuristics, same size cap."""
    return _sweep(config, _BASELINES)


def growth_limit_sweep(config: RunConfig) -> list[AblationPoint]:
    """Ablation C: sweep the program-size cap."""
    return _sweep(config, _GROWTH_LIMITS)


def linearization_comparison(config: RunConfig) -> list[AblationPoint]:
    """Ablation D: the paper's pure-weight order vs. the hybrid order."""
    return _sweep(config, _LINEARIZATIONS)


def _heldout_program(name, *, config):
    """Ablation E's train and held-out pairs for one program, or
    ``None`` when it has fewer than two inputs to split."""
    benchmark = benchmark_by_name(name)
    specs = benchmark.make_runs(config.scale)
    if len(specs) < 2:
        return None
    module = benchmark.compile(pass_spec=config.pass_spec)
    session = CompilationSession()
    # The training side's original profile is the one the program is
    # inlined under; the held-out side measures that same inlining.
    train = measure_inlining(
        module,
        specs[0::2],
        functools.partial(inline_module, module, check=config.check),
        name=name,
        profiler=session.profile,
    )
    held_out = measure_inlining(
        module,
        specs[1::2],
        lambda _profile: train.inline,
        name=name,
        profiler=session.profile,
    )
    return [
        _checked(train, name, "train-inputs"),
        _checked(held_out, name, "held-out-inputs"),
    ]


def heldout_input_check(config: RunConfig) -> list[AblationPoint]:
    """Ablation E: profile on half the inputs, evaluate on the rest.

    The paper's methodology hinges on representative inputs (§1.2,
    §4: "representative inputs for each benchmark are applied to
    establish reliable profile information"). If profiles generalize,
    the call decrease measured on held-out inputs should track the
    trained-inputs number closely. Each program is inlined once, under
    the profile of its even-numbered inputs, and that inlining is
    measured on those inputs and on the odd-numbered ones.
    """
    task = functools.partial(_heldout_program, config=config)
    return _mean_points(task, config, ("train-inputs", "held-out-inputs"))


def render_points(title: str, points: list[AblationPoint]) -> str:
    rows = [
        [point.label, pct(point.code_increase), pct(point.call_decrease)]
        for point in points
    ]
    return render_table(title, ["configuration", "code inc", "call dec"], rows)


def render_ablations(config: RunConfig) -> str:
    """Ablations A–D under ``config``, one table each, measured as one
    sweep."""
    tables = [
        ("Ablation A: weight threshold T.", _THRESHOLDS),
        ("Ablation B: profile-guided vs. static heuristics.", _BASELINES),
        ("Ablation C: code-growth limit.", _GROWTH_LIMITS),
        ("Ablation D: linearization order.", _LINEARIZATIONS),
    ]
    points = iter(
        _sweep(config, [variant for _, variants in tables for variant in variants])
    )
    return "\n\n".join(
        render_points(title, list(itertools.islice(points, len(variants))))
        for title, variants in tables
    )
