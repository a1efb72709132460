#!/usr/bin/env python3
"""Regenerate all of the paper's tables in one go (small scale).

Equivalent to ``python -m repro.experiments all``; use
``--scale full`` there for the paper-sized input sets.

Run with ``python examples/paper_tables.py``.
"""

from repro.experiments import RunConfig, run_suite
from repro.experiments.tables import all_tables
from repro.observability import enable_console_logging


def main() -> None:
    enable_console_logging()
    results = run_suite(RunConfig(scale="small"))
    print()
    print(all_tables(results))


if __name__ == "__main__":
    main()
