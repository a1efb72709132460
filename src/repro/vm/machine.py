"""The IL interpreter.

The machine links an :class:`~repro.il.module.ILModule` into the form
it executes and interprets that with an explicit control stack,
counting the dynamic quantities the paper's profiler needs.

Memory model: one flat byte-addressable space.

- ``[0, 16)`` is unmapped (null-pointer guard),
- ``[16, 16 + stack_size)`` is the control stack (frame slots only;
  scalar temporaries live in per-activation register files),
- globals follow the stack region,
- the heap grows beyond the globals via a bump allocator.

Function pointers are encoded as negative integers (``-1 - index`` into
the function table), so they survive 32-bit store/load round trips and
can never collide with data addresses.

Linking translates each IL function once (`Machine._translate`) into
basic blocks: jumps name block indices, a direct call names the
callee's `_Function`, globals, function pointers and builtins are
resolved, and every operand is a register index (each distinct
immediate has a slot of its own, preset when a frame starts). The
result, laid out in simulated code space, is memoised per module and
link knobs (``_COMPILED_MEMO``). The interpreter counts IL
instructions, checks fuel and feeds the instruction-cache tracer once
per block entry; `Machine._execute` states the contract. README "The
interpreter" has its measured speed.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass

from repro.errors import ILError, VMTrap
from repro.il.instructions import Opcode
from repro.il.module import ILModule
from repro.vm.builtins import BUILTINS, ExitSignal
from repro.vm.counters import Counters
from repro.vm.os import VirtualOS

# Compiled opcodes (distinct from IL opcodes: loads/stores are split by
# size and calls by callee kind for dispatch speed).
_OP_CONST = 0
_OP_MOV = 1
_OP_BIN = 2
_OP_UN = 3
_OP_LOAD4 = 4
_OP_LOAD1 = 5
_OP_STORE4 = 6
_OP_STORE1 = 7
_OP_FRAME = 8
_OP_CALLU = 9
_OP_CALLB = 10
_OP_ICALL = 11
_OP_RET = 12
_OP_JUMP = 13
_OP_CJUMP = 14
_OP_SWITCH = 15

_NULL_GUARD = 16
_INT_MASK = 0xFFFFFFFF
_INT_SIGN = 0x80000000

# Memory access at a byte address. Each raises ``struct.error`` past
# the end of memory, which `Machine._execute` maps to the VM's trap.
_load4 = struct.Struct("<i").unpack_from
_load1 = struct.Struct("<b").unpack_from
_store4 = struct.Struct("<I").pack_into
_store1 = struct.Struct("<B").pack_into

#: The trap wording and address field of each memory opcode.
_BAD_ACCESS = {
    _OP_LOAD4: ("load4 from", 2), _OP_LOAD1: ("load1 from", 2),
    _OP_STORE4: ("store4 to", 1), _OP_STORE1: ("store1 to", 1),
}

#: Kept for ``bench/run.py::tables_engine``, its only reader, which
#: picks the ``counting`` engine for every table workload when this
#: names no other.
ENGINES = ("counting",)

#: Ceiling on bump-allocator growth (bytes). Fuel caps instruction
#: counts but not allocation: a tight ``malloc`` loop can otherwise
#: grow host memory without bound. 256 MiB clears every suite
#: benchmark and fuzz program by a wide margin.
DEFAULT_HEAP_LIMIT = 256 * 1024 * 1024

#: Per-module cache of linked code: module -> {link key: (stamp,
#: functions)}. Linking is pure in the module plus the link knobs
#: captured in the key (the code layout included), so machines built
#: against the same module share one translated, laid-out form, and
#: nothing in it changes after it is built.
_COMPILED_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _wrap(value: int) -> int:
    value &= _INT_MASK
    return value - 0x100000000 if value & _INT_SIGN else value


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer division by zero")
    quotient = abs(a) // abs(b)
    return _wrap(-quotient if (a < 0) != (b < 0) else quotient)


def _c_mod(a: int, b: int) -> int:
    return _wrap(a - _c_div(a, b) * b)


#: Each lambda is one expression: ``((v + 2**31) & 0xFFFFFFFF) - 2**31``
#: is `_wrap` written out, saving a nested call per executed ``BIN``.
_BINOPS = {
    "+": lambda a, b: ((a + b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "-": lambda a, b: ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "*": lambda a, b: ((a * b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "/": _c_div,
    "%": _c_mod,
    "<<": lambda a, b: (((a << (b & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    ">>": lambda a, b: (((a >> (b & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "&": lambda a, b: (((a & b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "|": lambda a, b: (((a | b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "^": lambda a, b: (((a ^ b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}

_UNOPS = {
    "-": lambda a: _wrap(-a),
    "+": lambda a: a,
    "~": lambda a: _wrap(~a),
    "!": lambda a: 0 if a else 1,
    "sxt8": lambda a: ((a & 0xFF) ^ 0x80) - 0x80,
}


class _Function:
    """One linked function, in the form `Machine._execute` runs.

    ``blocks[k]`` is ``(length, instructions)`` for basic block ``k``,
    whose first instruction sits at simulated code address
    ``addresses[k]`` (for the instruction-cache tracer). Jump targets
    name blocks, a direct call names the callee's ``_Function``, and
    every operand is a register index: each distinct immediate has a
    slot of its own, preset in ``template``, so a frame starts as
    ``template[:]``.
    """

    __slots__ = ("name", "nparams", "frame_size", "blocks", "template", "addresses")

    def __init__(self, function):
        self.name = function.name
        self.nparams = len(function.params)
        self.frame_size = function.layout_frame()
        self.blocks: list[tuple[int, tuple]] = []
        self.template: list[int] = []
        self.addresses: list[int] = []


#: IL opcodes after which a new basic block starts. Every call ends its
#: block, builtins included, so ``exit()`` is always a block's last
#: instruction and a block entered always runs to its end unless an
#: instruction in it traps.
_BLOCK_ENDS = {
    Opcode.JUMP, Opcode.CJUMP, Opcode.SWITCH, Opcode.RET, Opcode.CALL, Opcode.ICALL,
}


@dataclass
class RunResult:
    """Outcome of one program run."""

    exit_code: int
    counters: Counters
    os: VirtualOS

    @property
    def stdout(self) -> str:
        return self.os.stdout_text()


class Machine:
    """Links and executes one IL module.

    A machine is single-shot: build one, call :meth:`run` once (a
    second call raises :class:`~repro.errors.ILError` — the first run
    mutates globals and the heap, so re-running would execute a
    different program and double-report into the metrics registry).
    Machines built for one module with the same link knobs share its
    linked code (``_COMPILED_MEMO``), so running many inputs translates
    it once.
    """

    def __init__(
        self,
        module: ILModule,
        os: VirtualOS | None = None,
        stack_size: int = 1 << 20,
        fuel: int = 2_000_000_000,
        collect_branches: bool = False,
        icache=None,
        code_layout: str = "sequential",
        layout_seed: int = 0,
        function_order: list[str] | None = None,
        metrics=None,
        heap_limit: int = DEFAULT_HEAP_LIMIT,
    ):
        self.module = module
        self.os = os if os is not None else VirtualOS()
        self._heap_limit = heap_limit
        self._ran = False
        self._stack_limit = _NULL_GUARD + stack_size
        self._fuel = fuel
        self._collect_branches = collect_branches
        #: Optional repro.observability MetricsRegistry; dynamic counts
        #: are reported into it once per run (never from the hot loop).
        self._metrics = metrics
        #: Optional repro.icache.InstructionCache fed the address of
        #: every executed instruction, a block at a time (slows
        #: execution; off by default).
        self.icache = icache
        #: "sequential" packs functions in module order; "scattered"
        #: shuffles them with random gaps, modelling a linker that
        #: places related functions far apart (the mapping-conflict
        #: regime of the paper's instruction-cache study).
        self._code_layout = code_layout
        self._layout_seed = layout_seed
        self._function_order = function_order
        self._mem = bytearray()
        self._sp = _NULL_GUARD
        self.counters = Counters()
        self._global_addresses: dict[str, int] = {}
        self._function_table: list[tuple] = []
        self._function_ids: dict[str, int] = {}
        self._functions: dict[str, _Function] = {}
        self._link()

    # ------------------------------------------------------------------
    # linking

    def _link(self) -> None:
        module = self.module
        # Function table: user functions first, then externals.
        for name in module.functions:
            self._function_ids[name] = len(self._function_table)
            self._function_table.append(("u", name))
        for name in sorted(module.externals):
            self._function_ids[name] = len(self._function_table)
            self._function_table.append(("b", name))
        # Global placement after the stack region.
        address = self._stack_limit
        for data in module.globals.values():
            align = max(data.align, 1)
            address = (address + align - 1) // align * align
            self._global_addresses[data.name] = address
            address += max(data.size, 1)
        heap_start = (address + 15) // 16 * 16
        self._mem = bytearray(heap_start)
        self._heap_top = heap_start
        self._heap_start = heap_start
        for data in module.globals.values():
            self._init_global(data)
        compile_key = (
            self._stack_limit,
            self._collect_branches,
            self._code_layout,
            self._layout_seed,
            tuple(self._function_order) if self._function_order else None,
        )
        # The stamp revalidates cache hits: transforms in this codebase
        # clone modules before mutating, but in-place edits would
        # otherwise serve stale code. Rebinding ``body`` or splicing it
        # changes an id or a length here.
        stamp = tuple(
            (name, id(fn), id(fn.body), len(fn.body))
            for name, fn in module.functions.items()
        )
        entries = _COMPILED_MEMO.setdefault(module, {})
        entry = entries.get(compile_key)
        if entry is None or entry[0] != stamp:
            entry = entries[compile_key] = (stamp, self._translate_module())
        self._functions = entry[1]

    def _translate_module(self) -> dict[str, _Function]:
        """Every function of the module, translated and laid out."""
        module = self.module
        functions = {
            name: _Function(function) for name, function in module.functions.items()
        }
        starts = {
            name: self._translate(function, functions)
            for name, function in module.functions.items()
        }
        # Lay functions out in a simulated code space for the
        # instruction-cache tracer (4 bytes per IL instruction,
        # line-aligned starts).
        ordered = list(functions.values())
        gaps = [0] * len(ordered)
        if self._function_order is not None:
            # Explicit placement (e.g. profile-guided affinity order);
            # names missing from the order keep their relative position
            # at the end.
            position = {name: i for i, name in enumerate(self._function_order)}
            ordered.sort(key=lambda f: position.get(f.name, len(position)))
        elif self._code_layout == "scattered":
            import random

            rng = random.Random(0xC0DE + self._layout_seed)
            rng.shuffle(ordered)
            gaps = [rng.randrange(0, 16) * 16 for _ in ordered]
        elif self._code_layout != "sequential":
            raise ILError(f"unknown code layout {self._code_layout!r}")
        code_address = 0
        for function, gap in zip(ordered, gaps):
            code_address += gap
            function.addresses = [code_address + 4 * pc for pc in starts[function.name]]
            code_address += 4 * sum(length for length, _ in function.blocks)
            code_address = (code_address + 15) // 16 * 16
        return functions

    def _init_global(self, data) -> None:
        base = self._global_addresses[data.name]
        for item in data.init:
            offset = base + item.offset
            if item.kind == "int":
                raw = item.value & (_INT_MASK if item.size == 4 else 0xFF)
                self._mem[offset : offset + item.size] = raw.to_bytes(
                    item.size, "little"
                )
            elif item.kind == "bytes":
                self._mem[offset : offset + len(item.data)] = item.data
            elif item.kind == "gaddr":
                address = self._global_addresses[item.symbol]
                self._mem[offset : offset + 4] = address.to_bytes(4, "little")
            elif item.kind == "faddr":
                fid = self._function_pointer(item.symbol)
                self._mem[offset : offset + 4] = (fid & _INT_MASK).to_bytes(4, "little")
            else:  # pragma: no cover
                raise ILError(f"unknown init kind {item.kind!r}")

    def _function_pointer(self, name: str) -> int:
        if name not in self._function_ids:
            raise ILError(f"unknown function {name!r} used as a pointer")
        return -1 - self._function_ids[name]

    def _translate(self, function, functions: dict[str, _Function]) -> list[int]:
        """Fill in ``functions[function.name]`` from ``function``'s body;
        return the pc (labels not counted) where each block starts."""
        # Leaders: pc 0, the instruction after each block end and every
        # jump target. A label that nothing jumps to starts no block.
        label_at: dict[str, int] = {}
        leaders = {0}
        targets: list[str] = []
        pc = 0
        for instr in function.body:
            op = instr.op
            if op is Opcode.LABEL:
                label_at[instr.label] = pc
                continue
            pc += 1
            if op in _BLOCK_ENDS:
                leaders.add(pc)
                if op is Opcode.JUMP:
                    targets.append(instr.label)
                elif op is Opcode.CJUMP:
                    targets += (instr.label, instr.label2)
                elif op is Opcode.SWITCH:
                    targets += [label for _, label in instr.cases]
                    targets.append(instr.label2)
        leaders.update(label_at[label] for label in targets if label in label_at)
        starts = sorted(leader for leader in leaders if leader < pc)
        block_at = {leader: k for k, leader in enumerate(starts)}

        def block(label: str) -> int:
            return block_at[label_at[label]]

        # Registers and immediates share one index space, parameters
        # first; ``template`` presets each immediate's slot.
        slots: dict = {name: i for i, name in enumerate(function.params)}

        def operand(value) -> int:
            index = slots.get(value)
            if index is None:
                index = slots[value] = len(slots)
            return index

        code = []
        for il_index, instr in enumerate(function.body):
            op = instr.op
            if op is Opcode.LABEL:
                continue
            if op is Opcode.CONST:
                code.append((_OP_CONST, operand(instr.dst), instr.a))
            elif op is Opcode.MOV:
                code.append((_OP_MOV, operand(instr.dst), operand(instr.a)))
            elif op is Opcode.BIN:
                fn = _BINOPS.get(instr.op2)
                if fn is None:
                    raise ILError(f"unknown binary operator {instr.op2!r}")
                code.append(
                    (_OP_BIN, operand(instr.dst), fn, operand(instr.a), operand(instr.b))
                )
            elif op is Opcode.UN:
                fn = _UNOPS.get(instr.op2)
                if fn is None:
                    raise ILError(f"unknown unary operator {instr.op2!r}")
                code.append((_OP_UN, operand(instr.dst), fn, operand(instr.a)))
            elif op is Opcode.LOAD:
                kind = _OP_LOAD4 if instr.size == 4 else _OP_LOAD1
                code.append((kind, operand(instr.dst), operand(instr.a)))
            elif op is Opcode.STORE:
                kind = _OP_STORE4 if instr.size == 4 else _OP_STORE1
                code.append((kind, operand(instr.a), operand(instr.b)))
            elif op is Opcode.FRAME:
                slot = function.slots.get(instr.name)
                if slot is None:
                    raise ILError(
                        f"{function.name}: unknown frame slot {instr.name!r}"
                    )
                code.append((_OP_FRAME, operand(instr.dst), slot.offset))
            elif op is Opcode.GADDR:
                address = self._global_addresses.get(instr.name)
                if address is None:
                    raise ILError(f"unknown global {instr.name!r}")
                code.append((_OP_CONST, operand(instr.dst), address))
            elif op is Opcode.FADDR:
                code.append(
                    (_OP_CONST, operand(instr.dst), self._function_pointer(instr.name))
                )
            elif op is Opcode.CALL:
                dst = operand(instr.dst) if instr.dst is not None else -1
                args = tuple(operand(a) for a in instr.args)
                if instr.name in self.module.functions:
                    callee = self.module.functions[instr.name]
                    if len(args) != len(callee.params):
                        # Indirect calls trap on arity mismatch at run
                        # time; direct calls are fully resolved here, so
                        # reject them at link time instead of letting
                        # extra args overwrite callee temporaries.
                        raise ILError(
                            f"{function.name}: call to {instr.name} at site"
                            f" {instr.site} passes {len(args)} args,"
                            f" expected {len(callee.params)}"
                        )
                    code.append(
                        (_OP_CALLU, dst, functions[instr.name], args, instr.site)
                    )
                else:
                    entry = BUILTINS.get(instr.name)
                    impl = None
                    if entry is not None:
                        nargs, impl = entry
                        if nargs != len(args):
                            raise ILError(
                                f"builtin {instr.name} takes {nargs} args,"
                                f" called with {len(args)}"
                            )
                    code.append(
                        (_OP_CALLB, dst, impl, args, instr.site, instr.name)
                    )
            elif op is Opcode.ICALL:
                dst = operand(instr.dst) if instr.dst is not None else -1
                args = tuple(operand(a) for a in instr.args)
                code.append((_OP_ICALL, dst, operand(instr.a), args, instr.site))
            elif op is Opcode.RET:
                code.append((_OP_RET, operand(instr.a if instr.a is not None else 0)))
            elif op is Opcode.JUMP:
                code.append((_OP_JUMP, block(instr.label)))
            elif op is Opcode.CJUMP:
                key = (function.name, il_index) if self._collect_branches else None
                code.append(
                    (
                        _OP_CJUMP,
                        operand(instr.a),
                        block(instr.label),
                        block(instr.label2),
                        key,
                    )
                )
            elif op is Opcode.SWITCH:
                table = {value: block(label) for value, label in instr.cases}
                code.append((_OP_SWITCH, operand(instr.a), table, block(instr.label2)))
            else:  # pragma: no cover
                raise ILError(f"cannot compile opcode {op}")
        target = functions[function.name]
        target.blocks = [
            (end - start, tuple(code[start:end]))
            for start, end in zip(starts, [*starts[1:], pc])
        ]
        target.template = [0 if type(key) is str else key for key in slots]
        return starts

    # ------------------------------------------------------------------
    # services used by builtins

    def heap_alloc(self, size: int) -> int:
        address = self._heap_top
        rounded = (max(size, 1) + 7) // 8 * 8
        if self._heap_top + rounded - self._heap_start > self._heap_limit:
            raise VMTrap("out of heap memory")
        self._heap_top += rounded
        self._mem.extend(b"\x00" * rounded)
        return address

    def read_cstring_bytes(self, address: int) -> bytes:
        mem = self._mem
        if address < _NULL_GUARD:
            raise VMTrap(f"string read through bad pointer {address}")
        end = mem.find(b"\x00", address)
        if end < 0:
            raise VMTrap("unterminated string in VM memory")
        return bytes(mem[address:end])

    def write_bytes(self, address: int, data: bytes) -> None:
        if address < _NULL_GUARD or address + len(data) > len(self._mem):
            raise VMTrap(f"block write to bad address {address}")
        self._mem[address : address + len(data)] = data

    def read_byte(self, address: int) -> int:
        if address < _NULL_GUARD or address >= len(self._mem):
            raise VMTrap(f"block read from bad address {address}")
        return self._mem[address]

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < _NULL_GUARD or address + length > len(self._mem):
            raise VMTrap(f"block read from bad address {address}")
        return bytes(self._mem[address : address + length])

    def mem_bounds_ok(self, address: int, length: int) -> bool:
        """Whether ``[address, address+length)`` is fully mapped.

        Block-transfer builtins use this to pick the bulk path; windows
        that touch unmapped memory fall back to byte-at-a-time loops so
        partial-progress-then-trap behaviour stays exactly as specified.
        """
        return address >= _NULL_GUARD and address + length <= len(self._mem)

    # ------------------------------------------------------------------
    # execution

    def run(self) -> RunResult:
        if self._ran:
            raise ILError(
                "Machine is single-shot: run() was already called;"
                " build a new Machine to execute again"
            )
        self._ran = True
        entry = self._functions.get(self.module.entry)
        if entry is None:
            raise ILError(f"entry function {self.module.entry!r} not found")
        args: list[int] = []
        if entry.nparams == 2:
            args = self._setup_argv()
        elif entry.nparams != 0:
            raise ILError(
                f"{self.module.entry} must take 0 or 2 parameters,"
                f" has {entry.nparams}"
            )
        try:
            exit_code = self._execute(entry, args)
        except ExitSignal as signal:
            exit_code = signal.code
        if self._metrics is not None:
            metrics = self._metrics
            metrics.inc("vm.runs")
            metrics.inc("vm.instructions_retired", self.counters.il)
            metrics.inc("vm.control_transfers", self.counters.ct)
            metrics.inc("vm.calls", self.counters.calls)
            metrics.inc("vm.returns", self.counters.returns)
        return RunResult(exit_code, self.counters, self.os)

    def _setup_argv(self) -> list[int]:
        argv = [self.module.entry, *self.os.argv]
        pointers = []
        for arg in argv:
            data = arg.encode("latin-1") + b"\x00"
            address = self.heap_alloc(len(data))
            self.write_bytes(address, data)
            pointers.append(address)
        table = self.heap_alloc(4 * (len(pointers) + 1))
        for index, pointer in enumerate(pointers):
            self.write_bytes(table + 4 * index, pointer.to_bytes(4, "little"))
        return [len(pointers), table]

    def _execute(self, entry: _Function, args: list[int]) -> int:
        """Run ``entry`` to its return in the block form.

        Control enters a basic block, then runs every instruction in it
        (`_BLOCK_ENDS` says where blocks end). The work that is fixed
        per block happens once, at entry:

        - ``counters.il`` grows by the block's length;
        - fuel: a block that would take ``il`` past the machine's fuel
          raises :class:`~repro.errors.VMTrap` ("fuel exhausted after N
          instructions") before it runs, with ``N`` and ``il`` the
          instructions that actually ran;
        - the instruction-cache tracer, if any, is fed the block's
          addresses in order.

        Control transfers, calls and returns are counted as they run.
        A run that returns or calls ``exit()`` therefore counts every
        channel, and feeds the tracer every address, exactly as one
        instruction at a time would. A trap in mid-block uncounts the
        block's instructions after the raising one, so ``il`` still
        counts exactly what ran, the raising instruction included.
        """
        mem = self._mem
        counters = self.counters
        fuel = self._fuel
        functions = self._functions
        function_table = self._function_table
        stack_limit = self._stack_limit
        site_counts = counters.site_counts
        func_counts = counters.func_counts
        branch_counts = counters.branch_counts
        icache = self.icache

        n_il = 0
        n_ct = 0
        n_calls = 0
        n_rets = 0

        current = entry
        blocks = current.blocks
        regs = current.template[:]
        regs[: len(args)] = args
        k = 0
        fp = self._sp
        sp = fp + entry.frame_size
        if sp > stack_limit:
            raise VMTrap("control stack overflow at entry")
        func_counts[entry.name] = func_counts.get(entry.name, 0) + 1
        call_stack: list[tuple] = []
        length = 0
        block = ()
        ins = None

        try:
            while True:
                length, block = blocks[k]
                n_il += length
                if n_il > fuel:
                    n_il -= length
                    ins = None  # no instruction of this block ran
                    raise VMTrap(f"fuel exhausted after {n_il} instructions")
                if icache is not None:
                    start = current.addresses[k]
                    for address in range(start, start + 4 * length, 4):
                        icache.access(address)
                k += 1  # the fall-through block; transfers overwrite it
                for ins in block:
                    op = ins[0]
                    if op == _OP_BIN:
                        regs[ins[1]] = ins[2](regs[ins[3]], regs[ins[4]])
                    elif op == _OP_CJUMP:
                        n_ct += 1
                        if regs[ins[1]]:
                            k = ins[2]
                            taken = 0
                        else:
                            k = ins[3]
                            taken = 1
                        key = ins[4]
                        if key is not None:
                            pair = branch_counts.setdefault(key, [0, 0])
                            pair[taken] += 1
                    elif op == _OP_CONST:
                        regs[ins[1]] = ins[2]
                    elif op == _OP_MOV:
                        regs[ins[1]] = regs[ins[2]]
                    elif op == _OP_JUMP:
                        k = ins[1]
                        n_ct += 1
                    elif op == _OP_LOAD4:
                        address = regs[ins[2]]
                        if address < _NULL_GUARD:
                            raise VMTrap(f"load4 from bad address {address}")
                        regs[ins[1]] = _load4(mem, address)[0]
                    elif op == _OP_LOAD1:
                        address = regs[ins[2]]
                        if address < _NULL_GUARD:
                            raise VMTrap(f"load1 from bad address {address}")
                        regs[ins[1]] = _load1(mem, address)[0]
                    elif op == _OP_RET:
                        value = regs[ins[1]]
                        if not call_stack:
                            # The entry frame's return has no matching
                            # call instruction, so it does not count as a
                            # dynamic return (the paper assumes calls ==
                            # returns).
                            return value
                        n_rets += 1
                        sp = fp
                        current, blocks, regs, k, fp, dst = call_stack.pop()
                        if dst >= 0:
                            regs[dst] = value
                    elif op == _OP_CALLU:
                        callee = ins[2]
                        name = callee.name
                        n_calls += 1
                        site = ins[4]
                        site_counts[site] = site_counts.get(site, 0) + 1
                        func_counts[name] = func_counts.get(name, 0) + 1
                        new_regs = callee.template[:]
                        for index, a in enumerate(ins[3]):
                            new_regs[index] = regs[a]
                        call_stack.append((current, blocks, regs, k, fp, ins[1]))
                        current = callee
                        blocks = callee.blocks
                        regs = new_regs
                        k = 0
                        fp = sp
                        sp = fp + callee.frame_size
                        if sp > stack_limit:
                            raise VMTrap(
                                f"control stack overflow calling {name}"
                                f" (depth {len(call_stack)})"
                            )
                    elif op == _OP_STORE4:
                        address = regs[ins[1]]
                        if address < _NULL_GUARD:
                            raise VMTrap(f"store4 to bad address {address}")
                        _store4(mem, address, regs[ins[2]] & _INT_MASK)
                    elif op == _OP_UN:
                        regs[ins[1]] = ins[2](regs[ins[3]])
                    elif op == _OP_STORE1:
                        address = regs[ins[1]]
                        if address < _NULL_GUARD:
                            raise VMTrap(f"store1 to bad address {address}")
                        _store1(mem, address, regs[ins[2]] & 0xFF)
                    elif op == _OP_CALLB:
                        impl = ins[2]
                        name = ins[5]
                        if impl is None:
                            raise VMTrap(f"call to unavailable external {name!r}")
                        n_calls += 1
                        site = ins[4]
                        site_counts[site] = site_counts.get(site, 0) + 1
                        func_counts[name] = func_counts.get(name, 0) + 1
                        result = impl(self, *[regs[a] for a in ins[3]])
                        n_rets += 1
                        if ins[1] >= 0:
                            regs[ins[1]] = result if result is not None else 0
                    elif op == _OP_FRAME:
                        regs[ins[1]] = fp + ins[2]
                    elif op == _OP_ICALL:
                        pointer = regs[ins[2]]
                        if pointer >= 0:
                            raise VMTrap(f"indirect call through bad pointer {pointer}")
                        index = -1 - pointer
                        if index >= len(function_table):
                            raise VMTrap(f"indirect call through bad pointer {pointer}")
                        kind, name = function_table[index]
                        n_calls += 1
                        site = ins[4]
                        site_counts[site] = site_counts.get(site, 0) + 1
                        func_counts[name] = func_counts.get(name, 0) + 1
                        values = [regs[a] for a in ins[3]]
                        if kind == "b":
                            entry_builtin = BUILTINS.get(name)
                            if entry_builtin is None:
                                raise VMTrap(f"indirect call to unavailable {name!r}")
                            result = entry_builtin[1](self, *values)
                            n_rets += 1
                            if ins[1] >= 0:
                                regs[ins[1]] = result if result is not None else 0
                        else:
                            callee = functions[name]
                            if len(values) != callee.nparams:
                                raise VMTrap(
                                    f"indirect call to {name} with {len(values)} args,"
                                    f" expected {callee.nparams}"
                                )
                            new_regs = callee.template[:]
                            new_regs[: len(values)] = values
                            call_stack.append(
                                (current, blocks, regs, k, fp, ins[1])
                            )
                            current = callee
                            blocks = callee.blocks
                            regs = new_regs
                            k = 0
                            fp = sp
                            sp = fp + callee.frame_size
                            if sp > stack_limit:
                                raise VMTrap(
                                    f"control stack overflow calling {name}"
                                    f" (depth {len(call_stack)})"
                                )
                    elif op == _OP_SWITCH:
                        k = ins[2].get(regs[ins[1]], ins[3])
                        n_ct += 1
                    else:  # pragma: no cover
                        raise VMTrap(f"unknown compiled opcode {op}")
        except (VMTrap, struct.error) as error:
            # Uncount the instructions after the raising one: they never
            # ran. Control transfers and calls end their blocks, so only
            # an instruction that traps in mid-block leaves any.
            for index, done in enumerate(block):
                if done is ins:
                    n_il -= length - 1 - index
                    break
            if isinstance(error, struct.error):
                # A load or store past the end of memory.
                where, field = _BAD_ACCESS[ins[0]]
                raise VMTrap(f"{where} bad address {regs[ins[field]]}") from None
            raise
        finally:
            counters.il += n_il
            counters.ct += n_ct
            counters.calls += n_calls
            counters.returns += n_rets
