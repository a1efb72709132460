"""Ablation A: the weight threshold T of the cost function (§2.3.3).

Expected series: raising T from 1 to 1000 monotonically shrinks both
the code increase and the call decrease — T=10 (the paper's value)
gives nearly all the benefit of T=1 at lower cost.
"""

from conftest import CONFIG, emit
from repro.experiments.ablations import render_points, threshold_sweep


def bench_ablation_threshold(benchmark):
    points = benchmark.pedantic(
        threshold_sweep, args=(CONFIG,), iterations=1, rounds=1
    )
    emit("Ablation A: weight threshold T", render_points("", points))

    decs = [point.call_decrease for point in points]
    incs = [point.code_increase for point in points]
    # Higher threshold can only shrink the selected set.
    assert decs[0] >= decs[-1]
    assert incs[0] >= incs[-1]
    # T=10 keeps most of T=1's benefit.
    assert decs[1] >= 0.8 * decs[0]
