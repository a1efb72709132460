"""Benchmark suite registry (the paper's Table 1 row set)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler import compile_program
from repro.il.module import ILModule
from repro.profiler.profile import RunSpec
from repro.workloads.programs import (
    cccp,
    cmp,
    compress,
    eqn,
    espresso,
    grep,
    lex,
    make,
    tar,
    tee,
    wc,
    yacc,
)

_MODULES = {
    "cccp": cccp,
    "cmp": cmp,
    "compress": compress,
    "eqn": eqn,
    "espresso": espresso,
    "grep": grep,
    "lex": lex,
    "make": make,
    "tar": tar,
    "tee": tee,
    "wc": wc,
    "yacc": yacc,
}


@dataclass(frozen=True)
class Benchmark:
    """One suite entry: source text plus its input generator."""

    name: str
    source: str
    input_description: str
    runs_factory: Callable[[str], list[RunSpec]]

    @property
    def c_lines(self) -> int:
        """Static program size in C lines (Table 1's *C lines*)."""
        return sum(1 for line in self.source.splitlines() if line.strip())

    def make_runs(self, scale: str = "small") -> list[RunSpec]:
        return self.runs_factory(scale)

    def compile(self, link_libc: bool = True, pass_spec: str | None = None) -> ILModule:
        """Compile the program, pre-optimized by ``pass_spec`` (``None``:
        not at all)."""
        return compile_program(
            self.source,
            filename=f"{self.name}.c",
            link_libc=link_libc,
            pass_spec=pass_spec,
        )


def benchmark_suite() -> list[Benchmark]:
    """All twelve benchmarks, in the paper's Table 1 order."""
    return [
        Benchmark(
            name=name,
            source=module.SOURCE,
            input_description=module.INPUT_DESCRIPTION,
            runs_factory=module.make_runs,
        )
        for name, module in _MODULES.items()
    ]


def benchmark_names() -> list[str]:
    return list(_MODULES)


def select_benchmarks(names=None) -> list[Benchmark]:
    """The suite (in Table 1 order), or the subset ``names`` picks.

    Every name must be known: unknown names raise :class:`ValueError`
    listing them all, rather than being silently skipped.
    """
    if names is not None:
        unknown = sorted(set(names) - set(_MODULES))
        if unknown:
            raise ValueError(
                f"unknown benchmark name(s): {', '.join(unknown)};"
                f" known: {', '.join(_MODULES)}"
            )
    return [
        benchmark
        for benchmark in benchmark_suite()
        if names is None or benchmark.name in names
    ]


def benchmark_by_name(name: str) -> Benchmark:
    module = _MODULES.get(name)
    if module is None:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {', '.join(_MODULES)}"
        )
    return Benchmark(
        name=name,
        source=module.SOURCE,
        input_description=module.INPUT_DESCRIPTION,
        runs_factory=module.make_runs,
    )
