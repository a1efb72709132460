"""Extension experiment: optimization scope enlargement (§1.2).

The paper's compiler-side motivation: inline expansion "provides larger
and specialized execution plans to the code optimizers". Quantified
here with loop-invariant code motion: the dynamic instructions LICM
removes grow several-fold once callee bodies are spliced into the
callers' loops, because the callees' (previously hidden) address
arithmetic becomes visibly invariant.
"""

import functools

from conftest import emit
from repro.experiments.pipeline import checked, measure_inlining
from repro.inliner.manager import inline_module
from repro.opt import licm_module, optimize_module
from repro.profiler.profile import run_once
from repro.workloads import benchmark_by_name


def _measure(name):
    benchmark = benchmark_by_name(name)
    module = benchmark.compile()
    optimize_module(module)
    specs = benchmark.make_runs("small")[:2]
    # The original's and the inlined module's ILs are their profiles'
    # totals; only the LICM variants run again.
    measured = checked(
        measure_inlining(
            module, specs, functools.partial(inline_module, module), name=name
        ),
        name,
        "licm",
    )

    def licm_ils(m):
        hoisted = m.clone()
        licm_module(hoisted)
        optimize_module(hoisted)
        return sum(run_once(hoisted, spec).counters.il for spec in specs)

    saved_before = measured.profile.total.il - licm_ils(module)
    saved_after = measured.post_profile.total.il - licm_ils(measured.inline.module)
    return name, saved_before, saved_after


def _run_experiment():
    return [_measure(name) for name in ("compress", "eqn", "grep")]


def bench_licm_synergy(benchmark):
    rows = benchmark.pedantic(_run_experiment, iterations=1, rounds=1)

    lines = ["benchmark   LICM savings (ILs): plain    after-inlining"]
    for name, before, after in rows:
        lines.append(f"{name:10s}  {before:10d}    {after:10d}")
    emit("LICM savings before vs. after inline expansion", "\n".join(lines))

    for name, before, after in rows:
        assert after > before, name  # inlining widens LICM's scope
    # And decisively so on at least one benchmark.
    assert any(after > 3 * max(before, 1) for _, before, after in rows)
