"""Refinement of call-through-pointer callee sets (§2.5).

The paper: "Interprocedural dataflow analysis may reduce the potential
callee sets of call-through-pointer sites", but IMPACT-I skipped it
because external functions force the worst case anyway. This module
implements the refinement for the closed-world case and a sound
signature-based narrowing for the open-world case:

- **address-taken narrowing** (the paper's "maximum set"): only
  functions whose addresses are used in computation can be reached —
  already applied by :func:`repro.callgraph.build.build_call_graph`
  when no external exists;
- **arity narrowing** (ours): a call through a pointer passing k
  arguments can only reach functions of k parameters, because the VM
  (like any real ABI with register windows or stack cleanup) faults on
  a mismatch. This is sound even with externals present, since an
  external can only leak addresses the program took.

The result feeds function-level dead-code elimination and gives cycle
detection fewer spurious cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.il.instructions import Opcode
from repro.il.module import ILModule


@dataclass
class PointerCallSummary:
    """Possible callee sets for every indirect call site."""

    #: site id -> candidate callee names (user functions only).
    callees_by_site: dict[int, set[str]] = field(default_factory=dict)
    #: The union over all sites (the refined ### successor set).
    all_targets: set[str] = field(default_factory=set)
    #: True when an indirect call may still reach an external function.
    may_reach_external: bool = False


def analyze_pointer_calls(module: ILModule) -> PointerCallSummary:
    """Compute refined callee sets for every ICALL site."""
    summary = PointerCallSummary()
    # Candidate pool: address-taken user functions. With externals in
    # the program the pool conservatively also includes every function
    # whose address could have leaked — which is still exactly the
    # address-taken set: taking an address is the only way to leak it.
    pool = {
        name
        for name in module.address_taken
        if name in module.functions
    }
    summary.may_reach_external = any(
        name in module.externals for name in module.address_taken
    ) or bool(module.externals)

    by_arity: dict[int, set[str]] = {}
    for name in pool:
        by_arity.setdefault(len(module.functions[name].params), set()).add(name)

    for _, instr in module.call_sites():
        if instr.op is not Opcode.ICALL:
            continue
        candidates = set(by_arity.get(len(instr.args), set()))
        summary.callees_by_site[instr.site] = candidates
        summary.all_targets |= candidates
    return summary
