"""Run a repro module as ``python -m`` would, with optional capture.

Usage::

    python bench/launch.py [--results FILE] [--spans PREFIX] -m MODULE [ARGS...]

``-m repro.cli tables all --scale small`` runs exactly what
``python -m repro.cli tables all --scale small`` runs. The options add:

``--results FILE``
    Keep the ``BenchmarkResult`` list that ``run_suite`` returns and write
    what the benchmark checks (outputs_match, post-inline counts) to FILE
    at exit. This wraps one call per run and adds no timers.
``--spans PREFIX``
    Install the layer timers of ``layers.py`` first (the traced pass).
"""

from __future__ import annotations

import atexit
import functools
import json
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def capture_results(path: str) -> None:
    """Record every ``run_suite`` result and write its summary at exit.

    Both ``tables`` entry points bind ``run_suite`` when
    ``repro.experiments.__main__`` is first imported, which happens after
    this patch.
    """
    import repro.experiments.pipeline as pipeline

    captured: list = []
    original = pipeline.run_suite

    @functools.wraps(original)
    def run_suite(*args, **kwargs):
        results = original(*args, **kwargs)
        captured.extend(results)
        return results

    pipeline.run_suite = run_suite

    def write() -> None:
        summary = {
            result.name: {
                "outputs_match": result.outputs_match,
                "gen_il": result.post_profile.total.il,
                "gen_calls": result.post_profile.total.calls,
                "gen_code_size": result.inline.final_size,
                "expansions": len(result.inline.records),
            }
            for result in captured
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)

    atexit.register(write)


def main(argv: list[str]) -> None:
    results = spans = None
    while argv and argv[0] != "-m":
        option, value, *argv = argv
        if option == "--results":
            results = value
        elif option == "--spans":
            spans = value
        else:
            raise SystemExit(f"launch.py: unknown option {option!r}")
    if len(argv) < 2:
        raise SystemExit("launch.py: expected -m MODULE [ARGS...]")
    module, args = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    if spans:
        import layers  # this script's directory is sys.path[0]

        layers.record_to(spans)
    if results:
        capture_results(results)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
