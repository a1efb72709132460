"""The twelve-benchmark suite.

Miniature but fully functional re-implementations (in the C subset) of
the paper's twelve UNIX programs — cccp, cmp, compress, eqn, espresso,
grep, lex, make, tar, tee, wc, yacc — with deterministic input
generators mirroring the paper's input descriptions (Table 1).
"""

from repro.workloads.suite import (
    Benchmark,
    benchmark_by_name,
    benchmark_names,
    benchmark_suite,
    select_benchmarks,
)

__all__ = [
    "Benchmark",
    "benchmark_by_name",
    "benchmark_names",
    "benchmark_suite",
    "select_benchmarks",
]
