"""The extension studies (§5's instruction cache, refs 17–18's
placement, §1.1's register traffic), read from one checked inlining.

``tables extensions`` compiles compress once, pre-optimized, and
measures its inlining (the expander, then the optimizer) once with
:func:`~repro.experiments.pipeline.measure_inlining`. A diverging
inlined program raises :class:`~repro.errors.InlineError` before any
study runs; each study reads the original module and that record.
"""

from __future__ import annotations

from repro.experiments.pipeline import InliningMeasurement, checked, measure_inlining
from repro.icache import icache_experiment
from repro.il.module import ILModule
from repro.inliner.manager import inline_module
from repro.layout import placement_experiment
from repro.opt import optimize_module
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import RunSpec
from repro.regalloc import pressure_experiment
from repro.workloads import benchmark_by_name


def measure_extension(
    module: ILModule, specs: list[RunSpec], *, name: str
) -> InliningMeasurement:
    """``module`` inlined, then optimized, measured over ``specs``;
    raises :class:`~repro.errors.InlineError` naming ``name`` on a divergence."""

    def inline_and_optimize(profile):
        result = inline_module(module, profile)
        optimize_module(result.module)
        return result

    measured = measure_inlining(module, specs, inline_and_optimize, name=name)
    return checked(measured, name, "inline+optimize")


def measure_compress(scale: str) -> tuple[ILModule, list[RunSpec], InliningMeasurement]:
    """compress pre-optimized, its first two inputs at ``scale``, and
    its inlining measured over them: what every study reads."""
    benchmark = benchmark_by_name("compress")
    module = benchmark.compile(pass_spec=DEFAULT_OPT_SPEC)
    specs = benchmark.make_runs(scale)[:2]
    return module, specs, measure_extension(module, specs, name=benchmark.name)


def render_extensions(scale: str) -> str:
    """The three studies, as ``tables extensions`` prints them."""
    module, specs, measured = measure_compress(scale)
    lines = ["I-cache miss ratios before/after inlining (compress, scattered):"]
    lines += [
        f"  {point.size_bytes:5d}B {point.associativity}-way:"
        f" {point.miss_before:.4f} -> {point.miss_after:.4f}"
        f" ({point.improvement:+.0%})"
        for point in icache_experiment(module, specs, measured)
    ]
    lines += ["", "Placement vs. inlining (compress):"]
    lines += [
        f"  {p.size_bytes:5d}B {p.associativity}-way: scattered"
        f" {p.miss_scattered:.4f}, placed {p.miss_placed:.4f}"
        f" ({p.placement_improvement:+.0%}), inlined"
        f" {p.miss_inlined_scattered:.4f} ({p.inlining_improvement:+.0%})"
        for p in placement_experiment(module, specs, measured)
    ]
    lines += ["", "Register memory traffic before/after inlining (compress):"]
    lines += [
        f"  K={k:2d}: save/restore {before.save_restore_events:.0f} ->"
        f" {after.save_restore_events:.0f}; spills"
        f" {before.spill_events:.0f} -> {after.spill_events:.0f}"
        for k, before, after in pressure_experiment(module, measured, ks=(4, 8, 16))
    ]
    return "\n".join(lines)
