"""IL functions and stack-frame layout."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ILError
from repro.il.instructions import Instr, is_real

#: Fixed per-call control-stack overhead, in bytes: return address,
#: saved frame pointer, and callee-saved register spill area. Mirrors
#: the paper's §2.3.2 list (parameter passing, register saving, local
#: declarations, returned value passing); parameters are added per call.
CALL_OVERHEAD_BYTES = 32
PARAM_WORD_BYTES = 4


@dataclass(slots=True)
class FrameSlot:
    """A named region in a function's stack frame.

    Slots hold address-taken scalars, arrays, and structs. ``offset`` is
    assigned by :meth:`ILFunction.layout_frame`.
    """

    name: str
    size: int
    align: int = 4
    offset: int = -1


class ILFunction:
    """One function in IL form.

    ``params`` are the virtual registers that receive arguments, in
    order. ``body`` is a flat instruction list (labels included).
    """

    def __init__(
        self,
        name: str,
        params: list[str],
        returns_value: bool,
        inline_hint: bool = False,
    ):
        self.name = name
        self.params = list(params)
        self.returns_value = returns_value
        self.inline_hint = inline_hint
        self.body: list[Instr] = []
        self.slots: dict[str, FrameSlot] = {}
        self.frame_size = 0
        #: Monotonic counters for fresh names, preserved across inlining
        #: so freshly generated names never collide.
        self.next_temp = 0
        self.next_label = 0

    # ------------------------------------------------------------------
    # naming

    def new_temp(self, prefix: str = "t") -> str:
        name = f"{prefix}{self.next_temp}"
        self.next_temp += 1
        return name

    def new_label(self, prefix: str = "L") -> str:
        name = f"{prefix}{self.next_label}"
        self.next_label += 1
        return name

    # ------------------------------------------------------------------
    # frame management

    def add_slot(self, name: str, size: int, align: int = 4) -> FrameSlot:
        if name in self.slots:
            raise ILError(f"duplicate frame slot {name!r} in {self.name}")
        slot = FrameSlot(name, max(size, 1), align)
        self.slots[name] = slot
        return slot

    def layout_frame(self) -> int:
        """Assign slot offsets and return the total frame size in bytes.

        Called after lowering and again after each inline expansion, as
        the paper requires ("function stack frame sizes ... are updated
        after each expansion", §5).
        """
        offset = 0
        for slot in self.slots.values():
            align = max(slot.align, 1)
            offset = (offset + align - 1) // align * align
            slot.offset = offset
            offset += slot.size
        self.frame_size = (offset + 3) // 4 * 4
        return self.frame_size

    def stack_usage(self) -> int:
        """Control-stack bytes one activation of this function consumes."""
        return CALL_OVERHEAD_BYTES + self.frame_size + PARAM_WORD_BYTES * len(self.params)

    # ------------------------------------------------------------------
    # metrics

    def code_size(self) -> int:
        """Number of real (non-label) IL instructions — the paper's
        per-function code size metric, re-evaluated during selection."""
        return sum(1 for instr in self.body if is_real(instr))

    def clone(self) -> "ILFunction":
        """Deep-copy this function (used to duplicate callees, §2.4)."""
        copy = ILFunction(self.name, self.params, self.returns_value, self.inline_hint)
        copy.body = [instr.copy() for instr in self.body]
        copy.slots = {
            name: FrameSlot(slot.name, slot.size, slot.align, slot.offset)
            for name, slot in self.slots.items()
        }
        copy.frame_size = self.frame_size
        copy.next_temp = self.next_temp
        copy.next_label = self.next_label
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ILFunction {self.name} ({self.code_size()} instrs)>"
