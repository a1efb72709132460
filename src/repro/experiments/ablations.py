"""Ablation studies on the design choices DESIGN.md calls out.

A — weight threshold T (§2.3.3's ``weight(Ai) < T`` guard),
B — profile-guided selection vs. the no-profile baselines of §1.2,
C — code-growth limit (§2.3.1's program-size cap),
D — linearization order (paper's weight heuristic vs. hybrid).

Every sweep takes a :class:`~repro.experiments.pipeline.RunConfig`
(benchmarks, scale, pre-optimization passes, ``check``, and
``jobs``) and fans out over the selected benchmarks via
:func:`~repro.pipeline.parallel.parallel_map`; the measurement tasks
are module-level functions parameterized with :func:`functools.partial`
so they pickle for the worker processes ``jobs > 1`` runs them on.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass

from repro.baselines import (
    hint_inline,
    leaf_inline,
    loop_inline,
    size_threshold_inline,
)
from repro.experiments.pipeline import RunConfig, call_decrease, measure_inlining
from repro.experiments.report import pct, render_table
from repro.inliner.manager import InlineExpander
from repro.inliner.params import InlineParameters
from repro.pipeline.parallel import parallel_map
from repro.profiler.profile import profile_module
from repro.workloads.suite import benchmark_by_name, select_benchmarks


@dataclass
class AblationPoint:
    label: str
    code_increase: float
    call_decrease: float


def _prepare(benchmark, config):
    module = benchmark.compile(pass_spec=config.pass_spec)
    specs = benchmark.make_runs(config.scale)
    profile = profile_module(module, specs)
    return module, specs, profile


def _prepare_task(name, *, config):
    """Compile+pre-optimize+profile one benchmark, addressed by name."""
    return _prepare(benchmark_by_name(name), config)


def _prepare_suite(config):
    """Compile+pre-optimize+profile every selected benchmark."""
    return parallel_map(
        functools.partial(_prepare_task, config=config),
        [benchmark.name for benchmark in select_benchmarks(config.names)],
        config.jobs,
        worker_label="ablation-prepare",
    )


def _measure_all(prepared, one, config):
    """Apply ``one(module, specs, profile)`` to every prepared benchmark."""
    return parallel_map(
        one,
        prepared,
        config.jobs,
        worker_label="ablation-measure",
    )


def _measure(
    module, inlined_module, specs, profile, config
) -> tuple[float, float]:
    decrease = call_decrease(profile, profile_module(inlined_module, specs))
    original = module.total_code_size()
    increase = (inlined_module.total_code_size() - original) / original
    return increase, decrease


def _expander_task(entry, *, config, **options):
    """Inline one prepared benchmark with the paper's expander.

    ``options`` go to :class:`InlineExpander` (``params``,
    ``linearize_method``).
    """
    module, specs, profile = entry
    result = InlineExpander(module, profile, check=config.check, **options).run()
    return _measure(module, result.module, specs, profile, config)


def _mean_point(label, pairs) -> AblationPoint:
    incs = [inc for inc, _ in pairs]
    decs = [dec for _, dec in pairs]
    return AblationPoint(label, statistics.fmean(incs), statistics.fmean(decs))


def threshold_sweep(
    config: RunConfig, thresholds: tuple[float, ...] = (1, 10, 100, 1000)
) -> list[AblationPoint]:
    """Ablation A: sweep the arc-weight threshold T."""
    points = []
    prepared = _prepare_suite(config)
    for threshold in thresholds:
        one = functools.partial(
            _expander_task,
            config=config,
            params=InlineParameters(weight_threshold=threshold),
        )
        pairs = _measure_all(prepared, one, config)
        points.append(_mean_point(f"T={threshold:g}", pairs))
    return points


def growth_limit_sweep(
    config: RunConfig, factors: tuple[float, ...] = (1.0, 1.1, 1.25, 1.5, 2.0)
) -> list[AblationPoint]:
    """Ablation C: sweep the program-size cap."""
    points = []
    prepared = _prepare_suite(config)
    for factor in factors:
        one = functools.partial(
            _expander_task,
            config=config,
            params=InlineParameters(size_limit_factor=factor),
        )
        pairs = _measure_all(prepared, one, config)
        points.append(_mean_point(f"limit={factor:g}x", pairs))
    return points


def linearization_comparison(config: RunConfig) -> list[AblationPoint]:
    """Ablation D: the paper's pure-weight order vs. the hybrid order."""
    points = []
    prepared = _prepare_suite(config)
    for method in ("weight", "hybrid"):
        one = functools.partial(
            _expander_task, config=config, linearize_method=method
        )
        pairs = _measure_all(prepared, one, config)
        points.append(_mean_point(method, pairs))
    return points


def _size25_inline(module, params):
    return size_threshold_inline(module, 25, params)


def _baseline_task(entry, *, config, label):
    """Inline one prepared benchmark with the named baseline heuristic."""
    module, specs, profile = entry
    params = InlineParameters()
    heuristic = dict(_BASELINES)[label]
    if heuristic is None:
        inlined = InlineExpander(
            module, profile, params, check=config.check
        ).run().module
    elif heuristic == "static-estimate":
        # §4.2's open question: run the same expander on weights
        # estimated by structure analysis instead of profiling.
        from repro.profiler.static_estimate import estimate_profile

        estimated = estimate_profile(module)
        inlined = InlineExpander(
            module, estimated, params, check=config.check
        ).run().module
    else:
        inlined = heuristic(module, params).module
    return _measure(module, inlined, specs, profile, config)


_BASELINES = (
    ("profile-guided", None),
    ("static-estimate", "static-estimate"),
    ("leaf (PL.8)", leaf_inline),
    ("loop (MIPS)", loop_inline),
    ("size<=25", _size25_inline),
    ("hint (GNU)", hint_inline),
)


def baseline_comparison(config: RunConfig) -> list[AblationPoint]:
    """Ablation B: profile-guided vs. static heuristics, same size cap."""
    points = []
    prepared = _prepare_suite(config)
    for label, _heuristic in _BASELINES:
        one = functools.partial(_baseline_task, config=config, label=label)
        pairs = _measure_all(prepared, one, config)
        points.append(_mean_point(label, pairs))
    return points


def heldout_input_check(config: RunConfig) -> list[AblationPoint]:
    """Ablation E: profile on half the inputs, evaluate on the rest.

    The paper's methodology hinges on representative inputs (§1.2,
    §4: "representative inputs for each benchmark are applied to
    establish reliable profile information"). If profiles generalize,
    the call decrease measured on held-out inputs should track the
    trained-inputs number closely.
    """
    points = []
    for subset in ("train-inputs", "held-out-inputs"):
        measured = []
        for benchmark in select_benchmarks(config.names):
            module = benchmark.compile(pass_spec=config.pass_spec)
            specs = benchmark.make_runs(config.scale)
            if len(specs) < 2:
                continue
            train = specs[0::2]
            measured.append(
                measure_inlining(
                    module,
                    train if subset == "train-inputs" else specs[1::2],
                    name=benchmark.name,
                    selecting=profile_module(module, train),
                    check=config.check,
                )
            )
        points.append(
            _mean_point(
                subset, [(m.code_increase, m.call_decrease) for m in measured]
            )
        )
    return points


def render_points(title: str, points: list[AblationPoint]) -> str:
    rows = [
        [point.label, pct(point.code_increase), pct(point.call_decrease)]
        for point in points
    ]
    return render_table(title, ["configuration", "code inc", "call dec"], rows)


def render_ablations(config: RunConfig) -> str:
    """Ablations A–D under ``config``, one table each."""
    return "\n\n".join(
        [
            render_points(
                "Ablation A: weight threshold T.", threshold_sweep(config)
            ),
            render_points(
                "Ablation B: profile-guided vs. static heuristics.",
                baseline_comparison(config),
            ),
            render_points(
                "Ablation C: code-growth limit.", growth_limit_sweep(config)
            ),
            render_points(
                "Ablation D: linearization order.",
                linearization_comparison(config),
            ),
        ]
    )
