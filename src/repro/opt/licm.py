"""Loop-invariant code motion.

Hoists pure, loop-invariant computations into a preheader. This is one
of the optimizations whose scope inline expansion enlarges (§1.2): a
callee's address arithmetic, once spliced into a loop, frequently
becomes invariant and hoistable.

Soundness conditions for hoisting an instruction ``dst = op(args)``
found in a loop body:

1. the opcode is pure and cannot trap (CONST, MOV, non-division BIN,
   UN, FRAME, GADDR, FADDR — loads are excluded because stores in the
   loop may alias),
2. every register source is invariant: defined nowhere in the loop, or
   itself already hoisted this round,
3. ``dst`` has exactly one definition in the whole function (so there
   is no other value the name could carry),
4. ``dst`` is not live on entry to the loop header (hoisting must not
   overwrite a value an earlier iteration... or pre-loop path reads).

The preheader is materialized as a fresh label directly before the
header; jumps into the loop from outside are retargeted to it while
back edges keep targeting the header.
"""

from __future__ import annotations

from repro.analysis.liveness import liveness
from repro.analysis.loops import natural_loops
from repro.il.function import ILFunction
from repro.il.instructions import Instr, Opcode

_PURE_OPS = frozenset(
    {Opcode.CONST, Opcode.MOV, Opcode.BIN, Opcode.UN, Opcode.FRAME,
     Opcode.GADDR, Opcode.FADDR}
)
_TRAPPING_BINOPS = frozenset({"/", "%"})

#: Most hoisting rounds run over one function.
MAX_ROUNDS = 10


def hoist_loop_invariants(function: ILFunction) -> int:
    """Hoist invariants out of one loop (the largest); returns moves.

    Called repeatedly by :func:`licm_function` so that freshly created
    preheaders (which change instruction indices) are re-analyzed.
    """
    result = liveness(function)
    cfg = result.cfg
    loops = natural_loops(cfg)
    if not loops:
        return 0
    # Outermost first: largest body.
    loops.sort(key=lambda loop: -len(loop.body))
    body = function.body

    for loop in loops:
        loop_instrs: list[int] = []
        for block_index in loop.body:
            block = cfg.blocks[block_index]
            loop_instrs.extend(range(block.start, block.end))
        loop_instr_set = set(loop_instrs)

        defs_in_loop: dict[str, int] = {}
        defs_total: dict[str, int] = {}
        for index, instr in enumerate(body):
            if instr.dst is not None:
                defs_total[instr.dst] = defs_total.get(instr.dst, 0) + 1
                if index in loop_instr_set:
                    defs_in_loop[instr.dst] = defs_in_loop.get(instr.dst, 0) + 1

        header_live_in = result.live_in[loop.header]
        invariant_regs: set[str] = set()
        hoisted: list[int] = []
        changed = True
        while changed:
            changed = False
            for index in loop_instrs:
                instr = body[index]
                if index in hoisted or instr.op not in _PURE_OPS:
                    continue
                if instr.op is Opcode.BIN and instr.op2 in _TRAPPING_BINOPS:
                    continue
                dst = instr.dst
                if dst is None or defs_total.get(dst, 0) != 1:
                    continue
                if dst in header_live_in:
                    continue
                sources_ok = all(
                    reg in invariant_regs or defs_in_loop.get(reg, 0) == 0
                    for reg in instr.source_regs()
                )
                if not sources_ok:
                    continue
                hoisted.append(index)
                invariant_regs.add(dst)
                changed = True
        if not hoisted:
            continue

        # Build the preheader before the header block's label run.
        header_block = cfg.blocks[loop.header]
        preheader_label = function.new_label("PH")
        hoisted_sorted = sorted(hoisted)
        moved = [body[i] for i in hoisted_sorted]
        # Retarget entries from outside the loop to the preheader.
        for index, instr in enumerate(body):
            if index in loop_instr_set:
                continue
            for label in instr.labels_used():
                if label in header_block.labels:
                    instr.retarget_labels(
                        {old: preheader_label for old in header_block.labels}
                    )
                    break
        new_body: list[Instr] = []
        for index, instr in enumerate(body):
            if index in set(hoisted_sorted):
                continue
            if index == header_block.start:
                new_body.append(Instr(Opcode.LABEL, label=preheader_label))
                new_body.extend(moved)
            new_body.append(instr)
        function.body = new_body
        return len(moved)  # one loop per call; caller re-analyzes
    return 0


def licm_function(function: ILFunction) -> int:
    """Run LICM to a fixpoint over all loops; returns total moves."""
    total = 0
    for _ in range(MAX_ROUNDS):
        moved = hoist_loop_invariants(function)
        if moved == 0:
            break
        total += moved
    return total


def licm_module(module) -> int:
    """Apply LICM to every function of a module."""
    return sum(licm_function(fn) for fn in module.functions.values())
