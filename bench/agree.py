"""Check that two benchmark results agree within the benchmark's bounds.

Usage::

    python bench/agree.py A.json B.json

A and B are ``bench/run.py --out`` files. For every workload in both and
every end-to-end metric of ``BENCHMARK.json``, B's median must lie within
the metric's bound of A's, in either direction; count metrics, which the
program computes exactly, must be identical. Exit status 0 when all agree
and both results were correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def compare(spec: dict, a: dict, b: dict) -> list[tuple]:
    """One row per (workload, metric): ``(workload, metric, a, b, bound, ok)``."""
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in run_a["metrics"] or name not in run_b["metrics"]:
                continue
            value_a = run_a["metrics"][name]["value"]
            value_b = run_b["metrics"][name]["value"]
            if metric["unit"] == "count":
                bound, ok = 0.0, value_a == value_b
            else:
                bound = metric["bound"]
                ok = abs(value_b - value_a) <= bound * abs(value_a)
            rows.append((workload, name, value_a, value_b, bound, ok))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    a, b = results
    rows = compare(spec, a, b)
    print(f"{'workload':18} {'metric':16} {'A':>14} {'B':>14} {'change':>8} {'bound':>6}")
    for workload, name, value_a, value_b, bound, ok in rows:
        change = (value_b - value_a) / value_a if value_a else 0.0
        print(
            f"{workload:18} {name:16} {value_a:14.6g} {value_b:14.6g}"
            f" {change:+8.1%} {bound:6.1%}{'' if ok else '  DISAGREE'}"
        )
    incorrect = [
        f"{path}: {workload}"
        for path, result in zip(argv, results)
        for workload, run in result["workloads"].items()
        if not run["correct"]
    ]
    for entry in incorrect:
        print(f"not correct: {entry}")
    if not rows:
        print("no workload in common")
    return 0 if rows and all(row[-1] for row in rows) and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
