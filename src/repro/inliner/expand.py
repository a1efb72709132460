"""Physical inline expansion (§2.4, §3.5).

Inlining one call site involves three tasks: (1) duplication of the
callee body, (2) variable renaming, and (3) symbol-table (frame-slot)
updates. Renamed identifiers are qualified with a path name built from
the callee and the call-site id — e.g. register ``x`` of ``min`` inlined
at site 42 becomes ``min@42/x`` — matching §5's "identifiers are
qualified with proper path names to simplify symbol table management".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InlineError
from repro.il.function import ILFunction
from repro.il.instructions import Instr, Opcode, is_real
from repro.il.module import ILModule


@dataclass
class ExpansionRecord:
    """What one physical expansion did."""

    site: int
    caller: str
    callee: str
    #: Call sites copied from the callee get fresh ids: old -> new.
    copied_sites: dict[int, int] = field(default_factory=dict)
    #: Net growth in *real* instructions (the code-size delta: labels
    #: excluded, the removed call accounted). Matches
    #: :meth:`repro.inliner.cost.CostModel.splice_delta` exactly.
    added_instructions: int = 0


def _find_call(caller: ILFunction, site: int) -> int:
    for index, instr in enumerate(caller.body):
        if instr.site == site and instr.op in (Opcode.CALL, Opcode.ICALL):
            return index
    raise InlineError(f"call site {site} not found in {caller.name}")


def expand_call_site(
    module: ILModule, caller_name: str, site: int
) -> ExpansionRecord:
    """Inline the callee of call site ``site`` into ``caller_name``.

    The callee's *current* body is duplicated — under the linear-order
    discipline all expansions into the callee are already done, so one
    physical expansion here realizes the whole chain (§2.7).
    """
    caller = module.functions[caller_name]
    index = _find_call(caller, site)
    call = caller.body[index]
    if call.op is not Opcode.CALL:
        raise InlineError(f"site {site} is an indirect call; cannot expand")
    callee = module.functions.get(call.name or "")
    if callee is None:
        raise InlineError(f"callee {call.name!r} has no available body")
    if callee.name == caller.name:
        raise InlineError(f"cannot expand self-recursive call in {caller.name}")
    if len(call.args) != len(callee.params):
        raise InlineError(
            f"site {site}: {len(call.args)} args for {len(callee.params)} params"
        )
    if call.dst is not None:
        # A valueless RET spliced into a value-consuming call would
        # leave call.dst unwritten — the VM's CALL writes the register
        # unconditionally, so expansion would silently change semantics
        # (the destination keeps whatever stale value it held).
        for instr in callee.body:
            if instr.op is Opcode.RET and instr.a is None:
                raise InlineError(
                    f"site {site}: callee {callee.name!r} has a valueless"
                    " return but the call consumes a result; expansion"
                    " would leave the destination register unwritten"
                )

    prefix = f"{callee.name}@{site}"
    record = ExpansionRecord(site, caller.name, callee.name)

    # --- task 2 prep: build renaming maps (path-qualified names) -----
    reg_map: dict[str, str] = {}
    for param in callee.params:
        reg_map[param] = f"{prefix}/{param}"
    label_map: dict[str, str] = {}
    slot_map: dict[str, str] = {}
    for instr in callee.body:
        if instr.dst is not None and instr.dst not in reg_map:
            reg_map[instr.dst] = f"{prefix}/{instr.dst}"
        for reg in instr.source_regs():
            if reg not in reg_map:
                reg_map[reg] = f"{prefix}/{reg}"
        if instr.op is Opcode.LABEL and instr.label not in label_map:
            label_map[instr.label] = f"{prefix}/{instr.label}"
    return_label = f"{prefix}/return"

    # --- task 3: symbol table (frame slot) updates --------------------
    for slot in callee.slots.values():
        new_name = f"{prefix}/{slot.name}"
        slot_map[slot.name] = new_name
        caller.add_slot(new_name, slot.size, slot.align)

    # --- task 1: duplicate, rename, rewrite returns -------------------
    spliced: list[Instr] = []
    for param, arg in zip(callee.params, call.args):
        target = reg_map[param]
        if isinstance(arg, str):
            spliced.append(Instr(Opcode.MOV, dst=target, a=arg))
        else:
            spliced.append(Instr(Opcode.CONST, dst=target, a=arg))
    for instr in callee.body:
        clone = instr.copy()
        if clone.op is Opcode.RET:
            value = clone.a
            if value is not None and isinstance(value, str):
                value = reg_map.get(value, value)
            if call.dst is not None and value is not None:
                if isinstance(value, str):
                    spliced.append(Instr(Opcode.MOV, dst=call.dst, a=value))
                else:
                    spliced.append(Instr(Opcode.CONST, dst=call.dst, a=value))
            spliced.append(Instr(Opcode.JUMP, label=return_label))
            continue
        clone.replace_regs(reg_map)
        clone.retarget_labels(label_map)
        if clone.op is Opcode.FRAME:
            clone.name = slot_map[clone.name]
        elif clone.op is Opcode.LABEL:
            pass  # renamed via retarget_labels
        elif clone.op in (Opcode.CALL, Opcode.ICALL):
            new_site = module.new_site_id()
            record.copied_sites[clone.site] = new_site
            clone.site = new_site
        spliced.append(clone)
    spliced.append(Instr(Opcode.LABEL, label=return_label))

    caller.body[index : index + 1] = spliced
    caller.layout_frame()  # frame sizes are updated after each expansion
    real = sum(1 for instr in spliced if is_real(instr))
    record.added_instructions = real - 1  # the call itself went away
    return record
