"""IL virtual machine.

Executes an :class:`~repro.il.module.ILModule` with a byte-addressable
memory, an explicit control stack, and a virtual OS providing the
external ("system call") functions. While running it counts dynamic
intermediate instructions, control transfers, and per-call-site
invocation counts — the raw material of the paper's profiles.

The interpreter (:mod:`repro.vm.machine`) runs each linked function as
predecoded basic blocks and counts once per block entry.
"""

from repro.vm.counters import Counters
from repro.vm.machine import DEFAULT_HEAP_LIMIT, Machine, RunResult
from repro.vm.os import VirtualOS

__all__ = [
    "Counters",
    "DEFAULT_HEAP_LIMIT",
    "Machine",
    "RunResult",
    "VirtualOS",
]
