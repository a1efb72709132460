"""Structural verifier for IL modules.

Runs after lowering (in every compile), once after each
inline run, after each inline phase under ``--check``, and — function-
local checks only — wherever a pass spec names ``verify``, to guarantee
transformations preserve IL well-formedness:

- every label referenced by a jump/branch/switch exists exactly once
  (duplicate labels are rejected),
- every frame slot referenced by FRAME exists in the function, and the
  frame layout is consistent (offsets assigned, aligned, non-overlapping,
  inside the declared frame size),
- every direct call targets a defined function or declared external,
- every GADDR names a known global, every FADDR a known function or
  external,
- call-site ids are unique program-wide,
- argument counts of direct calls to defined functions match,
- RET arity matches the function signature: a value function never
  returns without a value and a void function never returns one (the
  static face of the inliner's RETURN_MISMATCH hazard),
- the function ends with a terminator (cannot fall off the end),
- def-before-use of registers over the control-flow graph: reading a
  register that is *definitely unassigned* (unwritten along every path
  from entry) is rejected. This catches renaming bugs in inlining —
  e.g. a call destination left unwritten by a spliced valueless
  return — without flagging conditionally-initialized locals, which
  the zero-initializing VM defines.

Each function is checked in a few linear walks over ``Instr`` fields.
One splits the body into basic blocks, numbering registers to bits and
keeping per block, as Python ints, the registers it writes and those it
reads before writing them. The definitely-unassigned dataflow runs over
these bitsets (meet = AND); only a block whose in-set meets its
read-before-write set is walked again, to name the register.
"""

from __future__ import annotations

from repro.errors import ILError
from repro.il.function import ILFunction
from repro.il.instructions import Opcode, is_terminator
from repro.il.module import ILModule

_LABEL, _RET, _CJUMP = Opcode.LABEL, Opcode.RET, Opcode.CJUMP
_FRAME, _GADDR, _FADDR = Opcode.FRAME, Opcode.GADDR, Opcode.FADDR
_CALL, _ICALL = Opcode.CALL, Opcode.ICALL

#: Per opcode, the operand fields ``Instr.sources`` reads: 1 = ``a``,
#: 2 = ``a`` and ``b``, 3 = ``args``, 4 = ``a`` then ``args``.
_READS = tuple({
    Opcode.MOV: 1, Opcode.UN: 1, Opcode.LOAD: 1, Opcode.RET: 1, Opcode.CJUMP: 1,
    Opcode.SWITCH: 1, Opcode.BIN: 2, Opcode.STORE: 2, Opcode.CALL: 3, Opcode.ICALL: 4,
}.get(op, 0) for op in Opcode)


def verify_function_local(function: ILFunction) -> None:
    """The function-local subset of :func:`verify_function`.

    Everything that needs no enclosing module: label resolution and
    duplicate-label rejection, RET arity vs. the signature, frame-slot
    layout consistency, CFG def-before-use, and the trailing
    terminator. This is what the ``verify`` pass runs inside
    function-level pipelines (e.g. ``--passes 'fold,verify,dce'``).
    """
    name, body = function.name, function.body
    bits: dict[str, int] = {}  # register -> its bit
    params = 0
    for reg in function.params:
        params |= bits.setdefault(reg, 1 << len(bits))
    labels: dict[str, int] = {}  # label -> the block it starts
    # Per block: (start, end, registers written, registers read first).
    blocks: list[tuple[int, int, int, int]] = []
    start = kill = exposed = 0
    for index, instr in enumerate(body):
        op = instr.op
        if op is _LABEL:
            if index != start:
                blocks.append((start, index, kill, exposed))
                start, kill, exposed = index, 0, 0
            label = instr.label
            if label is not None:
                if label in labels:
                    raise ILError(f"duplicate label {label!r} in {name}")
                labels[label] = len(blocks)
        reads = _READS[op]
        if reads:
            if reads == 1:
                regs = (instr.a,)
            elif reads == 2:
                regs = (instr.a, instr.b)
            else:
                regs = instr.args if reads == 3 else (instr.a, *instr.args)
            for reg in regs:
                if isinstance(reg, str):
                    bit = bits.setdefault(reg, 1 << len(bits))
                    if not bit & kill:
                        exposed |= bit
        if instr.dst is not None:
            kill |= bits.setdefault(instr.dst, 1 << len(bits))
        if op >= _RET and (
            op is not _CJUMP or instr.label is not None or instr.label2 is not None
        ):
            blocks.append((start, index + 1, kill, exposed))
            start, kill, exposed = index + 1, 0, 0
    if start < len(body):
        blocks.append((start, len(body), kill, exposed))

    # Jump targets and RET arity live in each block's last instruction.
    successors: list[list[int]] = []
    assigned, read_first = params, 0  # over the whole body
    for block_id, (_, end, kill, exposed) in enumerate(blocks):
        assigned |= kill
        read_first |= exposed
        last = body[end - 1]
        if last.op is _RET:
            if function.returns_value and last.a is None:
                raise ILError(f"{name}: valueless return in a value-returning function")
            if not function.returns_value and last.a is not None:
                raise ILError(f"{name}: value returned from a void function")
        targets = []
        for label in last.labels_used():
            if label not in labels:
                raise ILError(f"{name}: jump to unknown label {label!r}")
            targets.append(labels[label])
        if end < len(body) and not is_terminator(last):
            targets.append(block_id + 1)
        successors.append(targets)
    _verify_frame(function)
    if read_first & ~assigned:
        for instr in body:
            for reg in instr.source_regs():
                if not bits[reg] & assigned:
                    raise ILError(
                        f"{name}: register {reg!r} read before written"
                        " (never assigned anywhere)"
                    )
    if blocks:
        _verify_def_before_use(function, bits, blocks, successors, assigned & ~params)
    if not body or not is_terminator(body[-1]):
        raise ILError(f"{name}: function may fall off the end")


def _verify_def_before_use(
    function: ILFunction,
    bits: dict[str, int],
    blocks: list[tuple[int, int, int, int]],
    successors: list[list[int]],
    entry: int,
) -> None:
    """Reject reads of registers *definitely unassigned* (unwritten
    along every path from entry, where ``entry`` holds them all): no
    execution could have produced a value, so the read is a frontend bug
    or an inlining rename bug such as a call destination no spliced
    return ever wrote. Registers assigned on *some* path are accepted:
    the VM zero-initializes registers.
    """
    # Forward fixpoint; unreached blocks contribute nothing (top = all
    # registers). Blocks report in the order the worklist reaches them.
    in_sets = {0: entry}
    out_sets: list[int | None] = [None] * len(blocks)
    work = [0]
    while work:
        block_id = work.pop()
        out = in_sets[block_id] & ~blocks[block_id][2]
        if out_sets[block_id] == out:
            continue
        out_sets[block_id] = out
        for succ in successors[block_id]:
            before = in_sets.get(succ)
            merged = out if before is None else before & out
            if merged != before:
                in_sets[succ] = merged
                work.append(succ)

    for block_id, unassigned in in_sets.items():
        start, end, _, exposed = blocks[block_id]
        if not unassigned & exposed:
            continue
        for instr in function.body[start:end]:
            for reg in instr.source_regs():
                if bits[reg] & unassigned:
                    raise ILError(
                        f"{function.name}: register {reg!r} read before written"
                    )
            if instr.dst is not None:
                unassigned &= ~bits[instr.dst]


def _verify_frame(function: ILFunction) -> None:
    """Frame-slot consistency: layout assigned, aligned, non-overlapping."""
    if not function.slots:
        return
    laid_out = sorted(function.slots.values(), key=lambda slot: slot.offset)
    end = 0
    for slot in laid_out:
        if slot.size < 1:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} has size {slot.size}"
            )
        if slot.offset < 0:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} has no offset"
                " (layout_frame never ran)"
            )
        align = max(slot.align, 1)
        if slot.offset % align:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} at offset"
                f" {slot.offset} violates alignment {align}"
            )
        if slot.offset < end:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} at offset"
                f" {slot.offset} overlaps the previous slot (ends at {end})"
            )
        end = slot.offset + slot.size
    if end > function.frame_size:
        raise ILError(
            f"{function.name}: frame slots end at {end} but frame_size is"
            f" {function.frame_size}"
        )


def verify_function(module: ILModule, function: ILFunction) -> None:
    verify_function_local(function)
    _verify_references(module, function)


def _verify_references(module: ILModule, function: ILFunction) -> list[int]:
    """Check what ``function`` names in ``module``, in body order, and
    return its call-site ids in that order."""
    name = function.name
    sites = []
    for instr in function.body:
        op = instr.op
        if op is _CALL:
            callee = module.functions.get(instr.name or "")
            if callee is None:
                if instr.name not in module.externals:
                    raise ILError(f"{name}: call to unknown function {instr.name!r}")
            elif len(instr.args) != len(callee.params):
                raise ILError(
                    f"{name}: call to {instr.name} with {len(instr.args)}"
                    f" args, expected {len(callee.params)}"
                )
            if instr.site < 0:
                raise ILError(f"{name}: call without a site id")
            sites.append(instr.site)
        elif op is _ICALL:
            if instr.site < 0:
                raise ILError(f"{name}: indirect call without a site id")
            sites.append(instr.site)
        elif op is _FRAME:
            if instr.name not in function.slots:
                raise ILError(f"{name}: FRAME references unknown slot {instr.name!r}")
        elif op is _GADDR:
            if instr.name not in module.globals:
                raise ILError(f"{name}: GADDR references unknown global {instr.name!r}")
        elif op is _FADDR:
            if instr.name not in module.functions and instr.name not in module.externals:
                raise ILError(
                    f"{name}: FADDR references unknown function {instr.name!r}"
                )
    return sites


def verify_module(module: ILModule) -> None:
    """Verify the whole module; raises ILError on the first defect.

    The entry function; then per function, in module order: duplicate
    labels; unknown jump labels and RET arity, in body order; the frame
    layout; registers never assigned; definitely-unassigned reads;
    falling off the end; module references and then call-site ids, in
    body order. Last, the address-taken names.
    """
    if module.entry not in module.functions:
        raise ILError(f"entry function {module.entry!r} is not defined")
    sites: set[int] = set()
    for function in module.functions.values():
        verify_function_local(function)
        for site in _verify_references(module, function):
            if site in sites:
                raise ILError(f"duplicate call-site id {site} (in {function.name})")
            sites.add(site)
    for name in module.address_taken:
        if name not in module.functions and name not in module.externals:
            raise ILError(f"address-taken function {name!r} does not exist")
