"""Ablation B: profile-guided selection vs. the §1.2 static heuristics.

Expected series: at the same code budget, profile-guided expansion
eliminates far more dynamic calls than PL.8-style leaf inlining,
MIPS-style loop inlining, callee-size thresholds, or GNU-style
programmer hints — the paper's core argument for profile information.
"""

from conftest import CONFIG, emit
from repro.experiments.ablations import baseline_comparison, render_points


def bench_ablation_baselines(benchmark):
    points = benchmark.pedantic(
        baseline_comparison, args=(CONFIG,), iterations=1, rounds=1
    )
    emit(
        "Ablation B: profile-guided vs. static heuristics",
        render_points("", points),
    )

    by_label = {point.label: point for point in points}
    guided = by_label["profile-guided"]
    for label, point in by_label.items():
        if label != "profile-guided":
            assert guided.call_decrease >= point.call_decrease, label
    # And the margin is decisive, not marginal.
    best_static = max(
        point.call_decrease
        for label, point in by_label.items()
        if label != "profile-guided"
    )
    assert guided.call_decrease >= best_static + 0.10
