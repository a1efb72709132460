"""Pettis–Hansen-style function placement by call affinity.

Greedy chain merging: treat each function as a singleton chain, then
repeatedly merge the two chains connected by the heaviest remaining
call-arc weight, orienting the merge so caller and callee end up
adjacent. The final concatenation is the placement order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.icache.experiment import traced_miss_ratio
from repro.il.module import ILModule
from repro.profiler.profile import ProfileData, RunSpec
from repro.il.instructions import Opcode

if TYPE_CHECKING:  # the measurement, named only in annotations
    from repro.experiments.pipeline import InliningMeasurement


def affinity_order(module: ILModule, profile: ProfileData) -> list[str]:
    """Function order that keeps hot caller/callee pairs adjacent."""
    # Aggregate arc weights between function pairs.
    weights: dict[tuple[str, str], float] = {}
    for caller, instr in module.call_sites():
        if instr.op is not Opcode.CALL or instr.name not in module.functions:
            continue
        if instr.name == caller:
            continue
        key = tuple(sorted((caller, instr.name)))
        weights[key] = weights.get(key, 0.0) + profile.arc_weight(instr.site)

    chain_of: dict[str, int] = {}
    chains: dict[int, list[str]] = {}
    for index, name in enumerate(module.functions):
        chain_of[name] = index
        chains[index] = [name]

    for (a, b), _ in sorted(weights.items(), key=lambda kv: -kv[1]):
        chain_a = chain_of[a]
        chain_b = chain_of[b]
        if chain_a == chain_b:
            continue
        # Orient so the endpoints being joined are adjacent when possible.
        left = chains[chain_a]
        right = chains[chain_b]
        if left[0] == a:
            left.reverse()
        if right[-1] == b:
            right.reverse()
        merged = left + right
        chains[chain_a] = merged
        del chains[chain_b]
        for name in merged:
            chain_of[name] = chain_a

    # Hot chains first (by the max node weight they contain).
    ordered_chains = sorted(
        chains.values(),
        key=lambda chain: -max(profile.node_weight(n) for n in chain),
    )
    return [name for chain in ordered_chains for name in chain]


@dataclass
class PlacementResult:
    """Miss ratios of the layout strategies under one cache config."""

    size_bytes: int
    associativity: int
    miss_scattered: float
    miss_placed: float
    miss_inlined_scattered: float

    @property
    def placement_improvement(self) -> float:
        if self.miss_scattered == 0:
            return 0.0
        return 1.0 - self.miss_placed / self.miss_scattered

    @property
    def inlining_improvement(self) -> float:
        if self.miss_scattered == 0:
            return 0.0
        return 1.0 - self.miss_inlined_scattered / self.miss_scattered


def placement_experiment(
    module: ILModule,
    specs: list[RunSpec],
    measured: InliningMeasurement,
    configs: tuple[tuple[int, int], ...] = ((512, 1), (1024, 1), (1024, 2)),
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[PlacementResult]:
    """Compare three locality strategies on the I-cache, over ``specs``:

    1. ``module`` under a scattered layout (the do-nothing linker),
    2. ``module`` placed by :func:`affinity_order` under ``measured``'s
       profile of it,
    3. ``measured``'s inlined module under the scattered layout
       (locality made internal to functions, robust against placement).
    """
    order = affinity_order(module, measured.profile)

    results = []
    for size_bytes, associativity in configs:
        scattered = traced_miss_ratio(
            module, specs, size_bytes, 16, associativity, seeds,
            code_layout="scattered",
        )
        placed = traced_miss_ratio(
            module, specs, size_bytes, 16, associativity, function_order=order
        )
        inlined_scattered = traced_miss_ratio(
            measured.inline.module, specs, size_bytes, 16, associativity, seeds,
            code_layout="scattered",
        )
        results.append(
            PlacementResult(
                size_bytes, associativity, scattered, placed, inlined_scattered
            )
        )
    return results
