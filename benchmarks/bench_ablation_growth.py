"""Ablation C: the program-size cap (§2.3.1's code-explosion guard).

Expected series: the call decrease rises steeply up to ~1.25x and then
saturates — the profile concentrates the benefit in few sites, so extra
code budget buys little (the paper's justification for a modest cap).
"""

from conftest import CONFIG, emit
from repro.experiments.ablations import growth_limit_sweep, render_points


def bench_ablation_growth(benchmark):
    points = benchmark.pedantic(
        growth_limit_sweep, args=(CONFIG,), iterations=1, rounds=1
    )
    emit("Ablation C: code-growth limit", render_points("", points))

    by_label = {point.label: point for point in points}
    # No budget, no expansion.
    assert by_label["limit=1x"].call_decrease <= 0.05
    assert by_label["limit=1x"].code_increase <= 0.01
    # Monotone benefit in the cap...
    decs = [point.call_decrease for point in points]
    assert all(a <= b + 1e-9 for a, b in zip(decs, decs[1:]))
    # ...with diminishing returns past 1.25x (crossover of the paper's
    # cost/benefit trade: 2.0x buys <15 points over 1.25x).
    assert by_label["limit=2x"].call_decrease - by_label[
        "limit=1.25x"
    ].call_decrease < 0.15
