"""Ablation E: does the profile generalize to unseen inputs?

The paper's approach "is more suitable for characterizing realistic
programs for which representative inputs can be easily collected"
(§1.2). Expected: inlining decisions trained on half of each
benchmark's inputs eliminate nearly as many calls on the held-out half
— hot call sites are a property of the program, not of one input.
"""

from conftest import CONFIG, emit
from repro.experiments.ablations import heldout_input_check, render_points


def bench_ablation_heldout(benchmark):
    points = benchmark.pedantic(
        heldout_input_check, args=(CONFIG,), iterations=1, rounds=1
    )
    emit("Ablation E: profile generalization", render_points("", points))

    by_label = {point.label: point for point in points}
    train = by_label["train-inputs"].call_decrease
    held_out = by_label["held-out-inputs"].call_decrease
    assert train > 0.3
    # Held-out benefit within 15 points of the trained benefit.
    assert abs(train - held_out) < 0.15
