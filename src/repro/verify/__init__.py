"""Differential-correctness harness for the inline expander.

Two complementary attacks on the same question — *is inlining a
semantic no-op, and does the cost model's arithmetic match physical
expansion?*:

- :mod:`repro.verify.differential` measures each inlining over real
  benchmark inputs with
  :func:`~repro.experiments.pipeline.measure_inlining`, the step the
  tables use, comparing every output channel and checking the
  calls-eliminated and size-reconciliation invariants.
- :mod:`repro.verify.fuzz` generates random programs in the supported
  C subset and pushes them through compile → optimize → inline →
  optimize with a differential execution after every stage.

Both report findings as data (:class:`DifferentialReport` /
:class:`FuzzReport`) rather than raising, a size-reconciliation
breach the inliner raises included, so the CLI's ``check`` subcommand
and CI can print everything that went wrong in one run.
"""

from repro.verify.differential import (
    DifferentialReport,
    verify_benchmark,
    verify_inlining,
    verify_suite,
)
from repro.verify.fuzz import (
    FUZZ_PARAMS,
    FuzzFailure,
    FuzzReport,
    check_program,
    generate_program,
    run_fuzz,
)

__all__ = [
    "DifferentialReport",
    "FUZZ_PARAMS",
    "FuzzFailure",
    "FuzzReport",
    "check_program",
    "generate_program",
    "run_fuzz",
    "verify_benchmark",
    "verify_inlining",
    "verify_suite",
]
