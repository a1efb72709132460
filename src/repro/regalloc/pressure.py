"""The register-pressure experiment.

Quantifies the §1.1 trade: before inlining, every dynamic call would
save/restore registers at the boundary (the cost register windows
attack); after inlining the calls are gone but merged live ranges raise
the pressure inside the caller. The report weights both effects by the
profile:

- ``save_restore_events``: dynamic calls × the registers a convention
  would save (bounded by the callee's coloring),
- ``spill_events``: per-function static spill costs × execution counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.il.module import ILModule
from repro.profiler.profile import ProfileData
from repro.regalloc.coloring import allocate_module

if TYPE_CHECKING:  # the measurement, named only in annotations
    from repro.experiments.pipeline import InliningMeasurement


@dataclass
class PressureReport:
    """Pressure numbers for one module under a K-register machine."""

    #: Profile-weighted spill events (memory accesses from spills).
    spill_events: float = 0.0
    #: Profile-weighted save/restore traffic at call boundaries.
    save_restore_events: float = 0.0

    @property
    def total_memory_events(self) -> float:
        return self.spill_events + self.save_restore_events


def measure_pressure(
    module: ILModule, profile: ProfileData, k: int = 16
) -> PressureReport:
    """Allocate every function and weight the outcome by the profile."""
    report = PressureReport()
    for name, allocation in allocate_module(module, k).items():
        weight = profile.node_weight(name)
        report.spill_events += weight * allocation.spill_cost()
        # Save/restore: per dynamic call, the convention moves
        # min(K, registers the callee actually uses) registers to memory
        # and back (callee-saved discipline).
        report.save_restore_events += 2 * weight * min(k, allocation.registers_used)
    return report


def pressure_experiment(
    module: ILModule,
    measured: InliningMeasurement,
    ks: tuple[int, ...] = (8, 16, 32),
) -> list[tuple[int, PressureReport, PressureReport]]:
    """(K, before, after) pressure reports across register-file sizes:
    ``module`` under ``measured``'s profile of it, and ``measured``'s
    inlined module under its post-inline profile.

    Expected shape: inlining trades save/restore traffic (large before,
    tiny after) for extra spills (small before, moderate after), with a
    large net win for realistic K — the software counterpart of the
    paper's "register windows become unnecessary" claim.
    """
    results = []
    for k in ks:
        before = measure_pressure(module, measured.profile, k)
        after = measure_pressure(measured.inline.module, measured.post_profile, k)
        results.append((k, before, after))
    return results
