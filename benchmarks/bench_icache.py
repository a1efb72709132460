"""Extension experiment: instruction-cache behaviour after inlining.

The paper's §5: "Although inline expansion increases the static code
size, it greatly reduces the mapping conflict in instruction caches
with small set-associativities" (measured in the authors' ISCA 1989
companion). Reproduced here on the compress benchmark with a scattered
code layout (callers and callees placed apart, the conflict regime):
small direct-mapped caches show large miss-ratio reductions after
profile-guided inlining.
"""

from conftest import emit
from repro.experiments.extensions import measure_compress
from repro.icache import icache_experiment

_CONFIGS = [
    (512, 16, 1),
    (1024, 16, 1),
    (2048, 16, 1),
    (1024, 16, 2),
]


def _run_experiment():
    module, specs, measured = measure_compress("small")
    return icache_experiment(module, specs, measured, configs=_CONFIGS)


def bench_icache(benchmark):
    points = benchmark.pedantic(_run_experiment, iterations=1, rounds=1)

    lines = ["cache        before   after    improvement"]
    for point in points:
        lines.append(
            f"{point.size_bytes:5d}B {point.associativity}-way"
            f"   {point.miss_before:.4f}   {point.miss_after:.4f}"
            f"   {point.improvement:+.1%}"
        )
    emit("I-cache miss ratios before/after inlining (compress)", "\n".join(lines))

    # Shape: in the small direct-mapped configurations, inlining cuts
    # the miss ratio substantially (the paper's conflict-reduction
    # claim); sanity bounds on all ratios.
    for point in points:
        assert 0.0 <= point.miss_after <= 1.0
        assert 0.0 <= point.miss_before <= 1.0
    small_direct = [p for p in points if p.associativity == 1 and p.size_bytes <= 1024]
    assert all(p.improvement > 0.3 for p in small_direct)
