"""Experiment harness: regenerates every table of the paper's §4.

- Table 1 — benchmark characteristics,
- Table 2 — static call-site classification,
- Table 3 — dynamic call behaviour,
- Table 4 — inline expansion results (code inc, call dec, ILs/call,
  CTs/call, AVG, SD),
- §4.4 — post-inline dynamic call breakdown,
- plus the reproduction's own ablations (threshold, growth limit,
  profile-guided vs. static heuristics).
"""

from repro.experiments.pipeline import (
    BenchmarkResult,
    RunConfig,
    run_benchmark,
    run_suite,
)
from repro.experiments.tables import (
    post_inline_breakdown,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "BenchmarkResult",
    "RunConfig",
    "post_inline_breakdown",
    "run_benchmark",
    "run_suite",
    "table1",
    "table2",
    "table3",
    "table4",
]
