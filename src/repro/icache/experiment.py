"""The instruction-cache experiment (paper §5 / the ISCA'89 companion).

Measures the instruction-cache miss ratio of a benchmark before and
after profile-guided inline expansion, over a sweep of small cache
configurations. The paper's claim: although inlining grows static code,
it removes the call/return ping-pong between caller and callee lines,
reducing mapping conflicts in caches with small set-associativities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.icache.cache import InstructionCache
from repro.il.module import ILModule
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.profiler.profile import RunSpec, profile_module
from repro.vm.machine import Machine


@dataclass
class CachePoint:
    """Miss ratios for one cache configuration."""

    size_bytes: int
    line_bytes: int
    associativity: int
    miss_before: float
    miss_after: float

    @property
    def improvement(self) -> float:
        """Relative miss-ratio reduction from inlining (can be < 0)."""
        if self.miss_before == 0:
            return 0.0
        return 1.0 - self.miss_after / self.miss_before


def traced_miss_ratio(
    module: ILModule,
    specs: list[RunSpec],
    size_bytes: int,
    line_bytes: int,
    associativity: int,
    seeds: tuple[int, ...] = (0,),
    **layout,
) -> float:
    """Mean miss ratio over the layout seeds: a fresh cache per seed
    traces one run of every spec. ``layout`` goes to the
    :class:`~repro.vm.machine.Machine` (``code_layout``,
    ``function_order``)."""
    total = 0.0
    for seed in seeds:
        cache = InstructionCache(size_bytes, line_bytes, associativity)
        for spec in specs:
            Machine(
                module, spec.make_os(), icache=cache, layout_seed=seed, **layout
            ).run()
        total += cache.stats.miss_ratio
    return total / len(seeds)


def icache_experiment(
    module: ILModule,
    specs: list[RunSpec],
    configs: list[tuple[int, int, int]] | None = None,
    params: InlineParameters | None = None,
    layout: str = "scattered",
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> list[CachePoint]:
    """Compare miss ratios before/after inlining over ``configs``.

    ``configs`` entries are (size_bytes, line_bytes, associativity);
    the defaults span the small caches of the paper's era. ``layout``
    chooses the simulated code placement: "scattered" (default) models
    a linker that separates related functions — the mapping-conflict
    regime where the paper's companion study found inlining helps most;
    "sequential" packs functions contiguously (a best-case pre-inline
    layout where inlining's duplication can instead cost misses).
    """
    if configs is None:
        configs = [
            (512, 16, 1),
            (1024, 16, 1),
            (2048, 16, 1),
            (1024, 16, 2),
            (4096, 32, 1),
        ]
    working = module.clone()
    optimize_module(working)
    profile = profile_module(working, specs, check_exit=False)
    inlined = inline_module(working, profile, params).module
    optimize_module(inlined)

    points = []
    for size_bytes, line_bytes, associativity in configs:
        before = traced_miss_ratio(
            working, specs, size_bytes, line_bytes, associativity, seeds,
            code_layout=layout,
        )
        after = traced_miss_ratio(
            inlined, specs, size_bytes, line_bytes, associativity, seeds,
            code_layout=layout,
        )
        points.append(
            CachePoint(size_bytes, line_bytes, associativity, before, after)
        )
    return points
