"""Static inlining heuristics (no profile), as arc weights.

Each heuristic is a predicate over direct call sites, turned into the
arc weights of a :class:`~repro.profiler.profile.ProfileData` that
:func:`~repro.inliner.manager.inline_module` selects under, as it does
under a profile or :func:`~repro.profiler.static_estimate.estimate_profile`.
A site the predicate accepts weighs more than any weight threshold and
any function's size. Among accepted sites, loop sites come first and
then smaller callees: without a profile, the best priority is
structural. Every other site weighs 0, below any threshold.

So a heuristic spends the profile-guided expander's budget through the
expander's own linear order, cost model, physical expansion and size
reconciliation: its program-size cap is the same cap, charged the same
way.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.loops import call_sites_in_loops
from repro.il.function import ILFunction
from repro.il.instructions import Opcode
from repro.il.module import ILModule
from repro.profiler.profile import ProfileData
from repro.vm.counters import Counters

#: The size heuristic inlines callees of at most this many IL
#: instructions.
MAX_CALLEE_SIZE = 25

#: An accepted site's weight outside a loop, before its callee's size
#: is subtracted; a loop site weighs twice as much.
_ACCEPTED = 1e9


def _weights(
    module: ILModule, accepts: Callable[[ILFunction, bool], bool]
) -> ProfileData:
    """Arc weights for the direct sites ``accepts(callee, in_loop)``
    takes; self-recursive ones are left to the linear order."""
    arc_weights: dict[int, float] = {}
    for function in module.functions.values():
        loop_sites = call_sites_in_loops(function)
        for instr in function.body:
            if instr.op is not Opcode.CALL or instr.name not in module.functions:
                continue  # indirect or external: no body to duplicate
            callee = module.functions[instr.name]
            in_loop = instr.site in loop_sites
            if accepts(callee, in_loop):
                arc_weights[instr.site] = (
                    _ACCEPTED * (2 if in_loop else 1) - callee.code_size()
                )
    return ProfileData(runs=1, total=Counters(), arc_weights=arc_weights)


def leaf_weights(module: ILModule) -> ProfileData:
    """IBM PL.8 style: every call to a leaf-level procedure."""
    return _weights(
        module,
        lambda callee, _in_loop: not any(
            instr.op in (Opcode.CALL, Opcode.ICALL) for instr in callee.body
        ),
    )


def loop_weights(module: ILModule) -> ProfileData:
    """MIPS style: every call site inside a loop."""
    return _weights(module, lambda _callee, in_loop: in_loop)


def size_weights(module: ILModule) -> ProfileData:
    """Every call to a callee of at most :data:`MAX_CALLEE_SIZE` IL
    instructions."""
    return _weights(
        module, lambda callee, _in_loop: callee.code_size() <= MAX_CALLEE_SIZE
    )


def hint_weights(module: ILModule) -> ProfileData:
    """GNU C style: every call to a function marked ``inline``."""
    return _weights(module, lambda callee, _in_loop: callee.inline_hint)
