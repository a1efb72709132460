"""Chaitin-style graph-coloring register allocation.

Simplify/select with optimistic coloring (Briggs): repeatedly remove a
node of degree < K; if none exists, remove the cheapest spill candidate
optimistically. During select, nodes that cannot be colored are marked
spilled. No rewrite of the IL is performed — the VM executes virtual
registers directly — but the assignment and spill set quantify exactly
what a K-register machine would do, which is what the paper's
register-window discussion needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.il.function import ILFunction
from repro.il.module import ILModule
from repro.regalloc.interference import InterferenceGraph, build_interference


@dataclass
class AllocationResult:
    """Coloring of one function's registers."""

    function: str
    assignment: dict[str, int] = field(default_factory=dict)
    spilled: set[str] = field(default_factory=set)
    graph: InterferenceGraph | None = None

    @property
    def registers_used(self) -> int:
        return len(set(self.assignment.values())) if self.assignment else 0

    @property
    def spill_count(self) -> int:
        return len(self.spilled)

    def spill_cost(self) -> int:
        """Static use/def count of spilled registers: each such event
        would become a memory access on a K-register machine."""
        if self.graph is None:
            return 0
        return sum(self.graph.use_counts.get(reg, 0) for reg in self.spilled)

    def verify(self) -> bool:
        """No two interfering registers share a color."""
        if self.graph is None:
            return True
        for reg, color in self.assignment.items():
            for neighbor in self.graph.neighbors(reg):
                if self.assignment.get(neighbor) == color:
                    return False
        return True


def allocate_function(
    function: ILFunction, k: int = 16
) -> AllocationResult:
    """Color ``function``'s virtual registers with K colors."""
    graph = build_interference(function)
    result = AllocationResult(function.name, graph=graph)

    degrees = {reg: graph.degree(reg) for reg in graph.nodes}
    removed: set[str] = set()
    stack: list[str] = []

    def current_degree(reg: str) -> int:
        return sum(1 for n in graph.neighbors(reg) if n not in removed)

    worklist = set(graph.nodes)
    while worklist:
        candidate = None
        for reg in sorted(worklist, key=lambda r: (degrees.get(r, 0), r)):
            if current_degree(reg) < k:
                candidate = reg
                break
        if candidate is None:
            # Optimistic spill choice: cheapest use-count per degree.
            candidate = min(
                worklist,
                key=lambda r: (
                    graph.use_counts.get(r, 0) / (current_degree(r) + 1),
                    r,
                ),
            )
        worklist.discard(candidate)
        removed.add(candidate)
        stack.append(candidate)

    # Select phase.
    for reg in reversed(stack):
        taken = {
            result.assignment[n]
            for n in graph.neighbors(reg)
            if n in result.assignment
        }
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            result.spilled.add(reg)
        else:
            result.assignment[reg] = color
    return result


def allocate_module(module: ILModule, k: int = 16) -> dict[str, AllocationResult]:
    """Allocate every function; returns results by function name."""
    return {
        name: allocate_function(function, k)
        for name, function in module.functions.items()
    }
