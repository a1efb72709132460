#!/usr/bin/env python3
"""Compare profile-guided inlining against the no-profile heuristics.

Reproduces in miniature the paper's §1.2 survey: IBM PL.8 inlined all
leaf procedures, MIPS used loop structure, GNU C trusted the ``inline``
keyword. Each heuristic is a set of arc weights that the profile-guided
expander selects under, so every contender spends the same code budget
(the default 1.25x program-size cap), charged by the same cost model.
Each inlining is measured the way the paper's tables are: profiled over
grep's inputs and checked against the original's outputs. On grep the
profile-guided expander should beat all of them.

Run with ``python examples/heuristic_comparison.py``.
"""

from repro.baselines import hint_weights, leaf_weights, loop_weights, size_weights
from repro.experiments.pipeline import checked, measure_inlining
from repro.inliner.manager import inline_module
from repro.opt import optimize_module
from repro.pipeline.session import CompilationSession
from repro.workloads import benchmark_by_name


def main() -> None:
    benchmark = benchmark_by_name("grep")
    module = benchmark.compile()
    optimize_module(module)
    specs = benchmark.make_runs("small")
    # One session profiles the original once for every contender.
    session = CompilationSession()

    contenders = [
        ("profile-guided", None),
        ("leaf (PL.8)", leaf_weights),
        ("loop (MIPS)", loop_weights),
        ("size<=25", size_weights),
        ("hint (GNU)", hint_weights),
    ]
    print(f"{'heuristic':16s}  {'call dec':>8s}  {'code inc':>8s}")
    for label, weights in contenders:

        def inliner(profile, weights=weights):
            return inline_module(
                module, profile if weights is None else weights(module)
            )

        measured = checked(
            measure_inlining(
                module, specs, inliner, name="grep", profiler=session.profile
            ),
            "grep",
            label,
        )
        print(
            f"{label:16s}  {100 * measured.call_decrease:7.1f}%"
            f"  {100 * measured.code_increase:7.1f}%"
        )


if __name__ == "__main__":
    main()
