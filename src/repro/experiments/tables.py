"""Table builders: one function per table/figure of the paper's §4."""

from __future__ import annotations

import statistics

from repro.experiments.pipeline import (
    BenchmarkResult,
    aggregate_dynamic_breakdown,
)
from repro.experiments.report import fixed, pct, render_table
from repro.inliner.classify import SiteClass


def table1(results: list[BenchmarkResult]) -> str:
    """Table 1: benchmark characteristics."""
    rows = []
    for result in results:
        rows.append(
            [
                result.name,
                str(result.c_lines),
                str(result.runs),
                f"{result.avg_il_thousands:.0f}K",
                f"{result.avg_ct_thousands:.1f}K",
                result.input_description,
            ]
        )
    return render_table(
        "Table 1. Benchmark characteristics.",
        ["benchmark", "C lines", "runs", "IL's", "control", "input description"],
        rows,
    )


def table2(results: list[BenchmarkResult]) -> str:
    """Table 2: static function call characteristics."""
    rows = []
    for result in results:
        classified = result.classified
        rows.append(
            [
                result.name,
                str(classified.total_static),
                pct(classified.static_fraction(SiteClass.EXTERNAL)),
                pct(classified.static_fraction(SiteClass.POINTER)),
                pct(classified.static_fraction(SiteClass.UNSAFE)),
                pct(classified.static_fraction(SiteClass.SAFE)),
            ]
        )
    averages = _column_averages(
        results,
        lambda r: [
            r.classified.static_fraction(SiteClass.EXTERNAL),
            r.classified.static_fraction(SiteClass.POINTER),
            r.classified.static_fraction(SiteClass.UNSAFE),
            r.classified.static_fraction(SiteClass.SAFE),
        ],
    )
    rows.append(["AVG", "", *[pct(v) for v in averages]])
    return render_table(
        "Table 2. Static function call characteristics.",
        ["benchmark", "total", "external", "pointer", "unsafe", "safe"],
        rows,
    )


def table3(results: list[BenchmarkResult]) -> str:
    """Table 3: dynamic function call behaviour."""
    rows = []
    for result in results:
        classified = result.classified
        rows.append(
            [
                result.name,
                f"{classified.total_dynamic:.0f}",
                pct(classified.dynamic_fraction(SiteClass.EXTERNAL)),
                pct(classified.dynamic_fraction(SiteClass.POINTER)),
                pct(classified.dynamic_fraction(SiteClass.UNSAFE)),
                pct(classified.dynamic_fraction(SiteClass.SAFE)),
            ]
        )
    averages = _column_averages(
        results,
        lambda r: [
            r.classified.dynamic_fraction(SiteClass.EXTERNAL),
            r.classified.dynamic_fraction(SiteClass.POINTER),
            r.classified.dynamic_fraction(SiteClass.UNSAFE),
            r.classified.dynamic_fraction(SiteClass.SAFE),
        ],
    )
    rows.append(["AVG", "", *[pct(v) for v in averages]])
    return render_table(
        "Table 3. Dynamic function call behavior (calls per run).",
        ["benchmark", "calls", "external", "pointer", "unsafe", "safe"],
        rows,
    )


def table4(results: list[BenchmarkResult]) -> str:
    """Table 4: inline expansion results, with AVG and SD rows."""
    rows = []
    for result in results:
        rows.append(
            [
                result.name,
                pct(result.code_increase, 0),
                pct(result.call_decrease, 0),
                fixed(result.ils_per_call),
                fixed(result.cts_per_call),
            ]
        )
    code = [result.code_increase for result in results]
    calls = [result.call_decrease for result in results]
    ils = [result.ils_per_call for result in results]
    cts = [result.cts_per_call for result in results]
    rows.append(
        [
            "AVG",
            pct(statistics.fmean(code)),
            pct(statistics.fmean(calls)),
            fixed(statistics.fmean(ils)),
            fixed(statistics.fmean(cts)),
        ]
    )
    if len(results) > 1:
        rows.append(
            [
                "SD",
                pct(statistics.stdev(code)),
                pct(statistics.stdev(calls)),
                fixed(statistics.stdev(ils)),
                fixed(statistics.stdev(cts)),
            ]
        )
    return render_table(
        "Table 4. Inline expansion results.",
        ["benchmark", "code inc", "call dec", "IL's per call", "CT's per call"],
        rows,
    )


def post_inline_breakdown(results: list[BenchmarkResult]) -> str:
    """§4.4: what the remaining dynamic calls are, after expansion.

    The paper reports external 56.1%, pointer 2.8%, unsafe 18.0%,
    safe 23.1% across the suite.
    """
    mix = aggregate_dynamic_breakdown(results)
    rows = [
        [
            "all benchmarks",
            pct(mix[SiteClass.EXTERNAL]),
            pct(mix[SiteClass.POINTER]),
            pct(mix[SiteClass.UNSAFE]),
            pct(mix[SiteClass.SAFE]),
        ]
    ]
    return render_table(
        "Post-inline dynamic call breakdown (paper 4.4: 56.1/2.8/18.0/23.1).",
        ["scope", "external", "pointer", "unsafe", "safe"],
        rows,
    )


def _column_averages(results, extractor) -> list[float]:
    columns = [extractor(result) for result in results]
    return [statistics.fmean(values) for values in zip(*columns)]


def all_tables(results: list[BenchmarkResult]) -> str:
    parts = [
        table1(results),
        table2(results),
        table3(results),
        table4(results),
        post_inline_breakdown(results),
    ]
    mismatches = [r.name for r in results if not r.outputs_match]
    if mismatches:
        parts.append(
            "WARNING: inlined output mismatch for: " + ", ".join(mismatches)
        )
    else:
        parts.append(
            "All inlined binaries produced byte-identical outputs on every input."
        )
    return "\n\n".join(parts)


#: What ``impact-inline tables WHAT`` renders from the suite results.
TABLES = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "breakdown": post_inline_breakdown,
    "all": all_tables,
}
