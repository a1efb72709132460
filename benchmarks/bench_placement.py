"""Extension experiment: layout vs. inlining as locality fixes.

Compares three strategies for instruction-cache locality on compress:
a scattered (worst-practice) layout, Pettis–Hansen-style profile-guided
function placement, and inline expansion under the scattered layout.
Both remedies beat the scattered baseline on small caches; inlining's
advantage is that the locality becomes *internal* to the functions and
no longer depends on where the linker puts them — the IMPACT-I position
(paper refs 17–18).
"""

from conftest import emit
from repro.experiments.extensions import measure_compress
from repro.layout import placement_experiment


def _run_experiment():
    module, specs, measured = measure_compress("small")
    return placement_experiment(module, specs, measured)


def bench_placement(benchmark):
    points = benchmark.pedantic(_run_experiment, iterations=1, rounds=1)

    lines = ["cache        scattered  placed            inlined"]
    for p in points:
        lines.append(
            f"{p.size_bytes:5d}B {p.associativity}-way  {p.miss_scattered:.4f}"
            f"    {p.miss_placed:.4f} ({p.placement_improvement:+.0%})"
            f"   {p.miss_inlined_scattered:.4f} ({p.inlining_improvement:+.0%})"
        )
    emit("I-cache: placement vs. inlining (compress)", "\n".join(lines))

    for p in points:
        # Both locality fixes beat the scattered baseline.
        assert p.placement_improvement > 0
        assert p.inlining_improvement > 0
