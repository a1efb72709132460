"""Shared fixtures for the benchmark harness.

Each ``bench_table*.py`` regenerates one table/figure of the paper and
prints it, so ``pytest benchmarks/ --benchmark-only`` doubles as the
experiment runner. Set ``REPRO_SCALE=full`` for paper-sized input sets
(slower); the default ``small`` preserves every qualitative shape.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.pipeline import RunConfig, run_suite

SCALE = os.environ.get("REPRO_SCALE", "small")

#: The run configuration every ablation bench sweeps under.
CONFIG = RunConfig(scale=SCALE)

_capture_manager = None


def pytest_configure(config):
    global _capture_manager
    _capture_manager = config.pluginmanager.getplugin("capturemanager")


@pytest.fixture(scope="session")
def suite_results():
    """Pipeline results for all twelve benchmarks (computed once)."""
    return run_suite(CONFIG)


def emit(title: str, text: str) -> None:
    """Print a regenerated table to the real terminal.

    The printed rows are the point of this harness, so bypass pytest's
    output capture — ``pytest benchmarks/ --benchmark-only`` shows them
    directly (and ``tee`` records them).
    """
    body = f"\n==== {title} (scale={SCALE}) ====\n{text}"
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print(body, flush=True)
    else:
        print(body, flush=True)
