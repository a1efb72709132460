"""Ablation D: linearization order (§3.3).

Compares the paper's pure execution-count ordering with the hybrid
callee-first ordering. Expected: hybrid matches or beats pure weight on
call decrease, because weight ties between a hot caller and its equally
hot callee no longer block arcs arbitrarily.
"""

from conftest import CONFIG, emit
from repro.experiments.ablations import linearization_comparison, render_points


def bench_ablation_linearization(benchmark):
    points = benchmark.pedantic(
        linearization_comparison, args=(CONFIG,), iterations=1, rounds=1
    )
    emit("Ablation D: linearization order", render_points("", points))

    by_label = {point.label: point for point in points}
    assert by_label["hybrid"].call_decrease >= by_label["weight"].call_decrease
