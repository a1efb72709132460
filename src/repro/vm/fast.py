"""The fast execution tier: interpret each region until compiling it pays.

The counting interpreter in :mod:`repro.vm.machine` pays a full dispatch
round (tuple fetch, opcode compare chain, operand boxing checks) for
every executed IL instruction. This module runs linked code in two
tiers, both speaking one protocol: a block's callable takes ``(r, fp,
d)`` (register file, frame pointer, IL call depth) and returns the next
block's callable, a 1-tuple holding the function's return value, or a
call request for the trampoline.

**Tier-0** is a per-function interpreter started at a given block. It
counts exactly as the reference does and calls the way generated code
calls. It also measures, per module and summed over every run of it,
the IL interpreted from each *region entry*: a function's entry, a
back-edge or switch target, or a block a closure exits to. And it
records which arm of each conditional branch it took.

**Tier-up.** Every block is reached through its block-table slot
``BT[k] or MK(k)``. ``MK(k)`` returns block ``k``'s tier-0 stub until
`_TIER_UP_IL` instructions have been interpreted from that region
entry; then it generates the block's closure (**tier-1**), installs it
in ``BT[k]``, and tier-0 hands control to it wherever it next reaches
that block. This is the paper's threshold ``T`` applied to the VM:
code is expanded only where the profile weight pays for it. A
threshold of 0 generates the closure of every block control enters on
first entry, with no tier-0; an infinite one generates none.

A tier-1 closure is fused over a control-flow region
("superinstructions"):

- The function body is split into basic blocks (leaders: entry, jump /
  switch targets, the instruction after every control transfer or
  call). A tiered-up block becomes one generated Python closure whose
  body is straight-line Python — operand fetches, 32-bit wrapping
  arithmetic, and memory bounds checks are inlined with no
  per-instruction dispatch at all. Exits name their target by block
  index, so blocks that are only ever inlined, or never reached, get
  no closure.
- Each closure greedily *inlines* its forward successors (both arms of
  a conditional, jump chains, fallthroughs, call continuations) up to
  a per-closure instruction budget (`_INLINE_BUDGET`), duplicating join
  blocks instead of bouncing through the driver. A branch back to the
  closure's own entry block compiles to ``continue`` of a surrounding
  ``while`` loop, so hot inner loops run entirely inside one Python
  frame.
- *Side exits*: an arm of a branch that tier-0 ran but never took is
  not copied in. It becomes an exit to that arm's block, which runs in
  tier-0 until it is hot enough to tier up itself. A branch tier-0
  never ran keeps both arms. Arms that only generated code takes are
  not recorded, so such an exit keeps leaving its closure each time.
- Virtual registers are promoted to Python locals for the lifetime of
  a closure invocation: only live-in registers (and, for closures with
  back-edges, loop-carried ones) are unpacked from the register file
  on entry. A modified local is written back only where control leaves
  the closure (budget bounces, side exits, switches, deep and indirect
  calls), and only if it is live where control resumes
  (`_block_liveness`). Tier-0 works on the register file itself.
- *Leaf* callees (acyclic, no calls to other user functions, no
  switch) are expanded transparently into the caller's closure with
  renamed locals — while still bumping the call/site/function/return
  counters, so the profile the paper's inliner consumes is untouched.
  This is the fast tier quietly agreeing with the paper: most dynamic
  calls go to small leaves, and expanding them wins.
- Remaining user calls are *direct Python calls*: the call site
  invokes the callee's entry (closure or stub) and resumes in the same
  Python frame, so the caller's promoted registers survive the call
  with no spill at all. Beyond a fixed IL call depth (`_DEPTH_LIMIT`)
  call sites in both tiers switch to returning a request tuple that an
  explicit-stack trampoline (``drive``) executes iteratively, so IL
  recursion of any depth — the reference interpreter bounds it only by
  stack memory, not Python frames — can never overflow the host stack.
- Dynamic-instruction accounting is *deferred along straight paths*:
  instruction and control-transfer counts accumulate as compile-time
  constants along each tail-duplicated path and flush as a single
  ``st[0] += n`` / ``st[1] += m`` at segment points (calls, closure
  exits, loop back-edges), so counters are exact at every call and on
  every successful run even when a builtin raises
  :class:`~repro.vm.builtins.ExitSignal` mid-block. Tier-0 keeps its
  counts in locals and flushes them at the same points.

The tier is proven against the reference interpreter: for every
successful run it produces the exact same :class:`~repro.vm.counters.
Counters` — ``il``/``ct``/``calls``/``returns`` totals and the
``site_counts``/``func_counts``/``branch_counts`` dicts — and identical
outputs (see :mod:`repro.verify.engines` and the ``fast-tier-smoke`` CI
job), at every threshold. Divergences exist only on *aborted* runs.
Fuel is checked where a cycle must pass: at every closure entry and
loop iteration in tier-1, and at every stub entry and region entry
tier-0 crosses. Between two checks a frame runs no cycle, so the trap
still fires, but up to one acyclic path late for each frame that
returns before the next check, where the reference traps at exactly
``fuel + 1``. A :class:`~repro.errors.VMTrap` mid-segment leaves that
segment's trailing instructions partially counted.

Generated code is a pure function of the linked instruction stream and
of the arms tier-0 saw when the block tiered up, so closure factories
are cached process-wide per structural fingerprint of the compiled
tuples (memoised with the link result it describes), function and
block, beside the heat and arms tier-0 measured. A later machine of the
same module starts from that heat and only instantiates the factories
of the blocks it enters, so re-running the same module (profiling
loops, differential checks, fuzz replay) interprets and generates once.
On the whole small suite (``tables all --scale small``, one serial
run's ``--metrics-out``), compiling every block a run entered
generated 527 closures of 261,359 lines in all; at the default
threshold the tier generates 173 closures of 56,326 lines, and tier-0
runs 1.43M of the 6.63M IL.
"""

from __future__ import annotations

import bisect
import struct
import sys
import threading
import time
from collections import OrderedDict

from repro.errors import VMTrap
from repro.vm.builtins import BUILTINS
from repro.vm.machine import (
    _BINOPS,
    _OP_BIN,
    _OP_CALLB,
    _OP_CALLU,
    _OP_CJUMP,
    _OP_CONST,
    _OP_FRAME,
    _OP_ICALL,
    _OP_JUMP,
    _OP_LOAD1,
    _OP_LOAD4,
    _OP_MOV,
    _OP_RET,
    _OP_STORE1,
    _OP_STORE4,
    _OP_SWITCH,
    _OP_UN,
    _UNOPS,
)

#: Operator symbol for each interpreter lambda (codegen inlines these).
_BIN_SYMBOL = {fn: symbol for symbol, fn in _BINOPS.items()}
_UN_SYMBOL = {fn: symbol for symbol, fn in _UNOPS.items()}

#: Comparison operators produce bare 0/1 and need no 32-bit wrap.
_COMPARISONS = {"<", ">", "<=", ">=", "==", "!="}

_TERMINATORS = (
    _OP_JUMP, _OP_CJUMP, _OP_SWITCH, _OP_RET, _OP_CALLU, _OP_ICALL,
)

#: How many instructions each closure may inline beyond its entry
#: block. Join blocks get tail-duplicated into both arms, so this caps
#: generated code growth; the budget is shared across the whole tree.
#: Chosen by measurement (2-vCPU x86-64 container): a smaller budget
#: generates less code for a cold run (33K lines at 64 against 53K at
#: 256 for six benchmarks' table pipeline) but bounces out of branchy
#: loops, so warm full-scale throughput falls (wc keeps 68% of it at
#: 192 and 53% at 64, the whole suite 94% at 64). 256 is the smallest
#: budget tried that loses none. Re-measured with side exits on and
#: `_TIER_UP_IL` at 5,000: ``tables-fast-cold`` p50 (``bench/run.py``,
#: median of three runs) was 1146, 1162, 1146 and 1196 ms at 64, 128,
#: 192 and 256, but five alternating pairs of 192 and 256 gave medians
#: of 1158 and 1171 ms, inside the 27 ms between the quartiles of 256;
#: warm full-scale throughput over four passes was 7.8-9.3M, 8.4-9.8M
#: and 8.4-9.2M IL/s at 64, 192 and 256. No smaller budget won beyond
#: that noise, so it stays 256.
_INLINE_BUDGET = 256

#: IL that tier-0 must interpret from a region entry, summed over every
#: run of the module, before `MK` generates that block's closure (the
#: module docstring says what a region entry is). Chosen by measurement
#: with ``bench/run.py`` on a 2-vCPU x86-64 container, p50 at the
#: bench's reference speed, median of three runs: ``tables-fast-cold``
#: took 1195, 1210, 1176, 1157 and 1219 ms at 500, 1,000, 2,000, 5,000
#: and 10,000, and the same workload over all twelve programs 3143 ms at
#: 2,000 against 2932 ms at 5,000.
_TIER_UP_IL = 5000

#: Per-run values every closure factory takes, in parameter order,
#: before the calling function's block table ``BT`` and installer
#: ``MK`` (see ``materialize`` in `run_fast`).
_ENV = (
    "st", "mem", "fuel", "site_counts", "func_counts", "branch_counts",
    "M", "icall", "drive", "MAT", "stack_limit", "builtins", "U4", "P4",
    "c_div", "c_mod", "VMTrap", "FNS",
)

#: Leaf callees whose fully tail-duplicated expansion exceeds this many
#: instructions are called through the normal protocol instead.
_LEAF_EXPANSION_CAP = 64

#: IL call depth beyond which call sites stop recursing into Python
#: and hand the callee to the explicit-stack trampoline instead. One
#: Python frame is consumed per direct IL call level.
_DEPTH_LIMIT = 512

#: Python recursion headroom needed for `_DEPTH_LIMIT` direct calls
#: plus builtins and the surrounding application stack.
_PY_STACK_NEED = 3000

#: Process-wide factory cache: structural code fingerprint -> module
#: factory table (functions generated lazily, shared across machines).
_FACTORY_CACHE: OrderedDict[tuple, "_FactoryTable"] = OrderedDict()
_FACTORY_CACHE_LIMIT = 32
_FACTORY_LOCK = threading.Lock()

_UNPACK4 = struct.Struct("<i").unpack_from
_PACK4 = struct.Struct("<I").pack_into


class _FastFunction:
    """Per-machine shell for one closure-compiled function."""

    __slots__ = ("name", "nregs", "nparams", "frame_size", "entry")

    def __init__(self, name: str, nregs: int, nparams: int, frame_size: int):
        self.name = name
        self.nregs = nregs
        self.nparams = nparams
        self.frame_size = frame_size
        #: Entry block's closure or tier-0 stub; None until first called.
        self.entry = None


class _FactoryTable:
    """Closure factories for one module shape, generated at tier-up.

    Shared by every machine (and thread) whose linked code has the same
    fingerprint, together with what tier-0 measured of each function
    (`_Regions`). A block's closure is generated and byte-compiled when
    the block tiers up, and never for blocks that stay cold.
    Each generation keeps its mutable state in its own
    `_ClosureCodegen`, so threads may generate closures of one function
    at once: they share only immutable analysis, a race re-generates
    identical source, and the last store wins.
    """

    __slots__ = ("functions", "leaves", "live", "factories", "regions")

    def __init__(self, functions: dict):
        self.functions = functions
        self.leaves: dict[str, tuple[int, int | None]] = {}
        for name, function in functions.items():
            leaf = _leaf_expansion_size(function)
            if leaf is not None:
                self.leaves[name] = leaf
        #: Function name -> registers live on entry to each block.
        self.live: dict[str, tuple[frozenset[int], ...]] = {}
        #: (function name, block index) -> closure factory.
        self.factories: dict[tuple[str, int], object] = {}
        #: Function name -> its tier-0 form and what tier-0 measured.
        self.regions: dict[str, _Regions] = {}

    def liveness(self, name: str) -> tuple[frozenset[int], ...]:
        live = self.live.get(name)
        if live is None:
            live = self.live[name] = _block_liveness(
                self.functions[name].code
            )
        return live

    def regions_of(self, name: str) -> "_Regions":
        regions = self.regions.get(name)
        if regions is None:
            regions = self.regions.setdefault(
                name, _Regions(self.functions[name].code)
            )
        return regions

    def factory(self, name: str, index: int, metrics=None):
        """The factory of block ``index``'s closure in function ``name``."""
        factory = self.factories.get((name, index))
        if factory is None:
            start = time.perf_counter()
            source = _ClosureCodegen(
                name, index, self.functions, self.leaves,
                self.liveness(name), bytes(self.regions_of(name).arms),
            ).generate()
            namespace: dict = {}
            exec(compile(source, "<repro-fast-tier>", "exec"), namespace)
            factory = self.factories[(name, index)] = namespace["_factory"]
            if metrics is not None:
                if index == 0:
                    metrics.inc("vm.codegen.functions")
                metrics.inc("vm.codegen.closures")
                metrics.inc("vm.codegen.lines", source.count("\n") + 1)
                metrics.observe(
                    "vm.codegen_seconds", time.perf_counter() - start
                )
        return factory


# ----------------------------------------------------------------------
# structural fingerprint (cache key)


def _code_fingerprint(compiled: dict) -> tuple:
    """Flatten the linked instruction stream into a hashable key.

    Callables (builtin impls, operator lambdas) are module-level
    singletons, so identity is a stable process-wide token. Marker
    strings can never collide with payload strings (function and
    builtin names are C identifiers).
    """
    parts = []
    for name, function in compiled.items():
        flat: list = [
            name, function.nregs, function.nparams, function.frame_size,
        ]
        append = flat.append
        for ins in function.code:
            append("|")
            for item in ins:
                kind = type(item)
                if kind is int or kind is str or item is None:
                    append(item)
                elif kind is tuple:
                    append("(")
                    for sub in item:
                        if type(sub) is tuple:  # boxed immediate
                            append("#")
                            append(sub[0])
                        else:
                            append(sub)
                    append(")")
                elif kind is dict:
                    append("{")
                    for key in sorted(item):
                        append(key)
                        append(item[key])
                    append("}")
                else:  # callable
                    append(id(item))
        parts.append(tuple(flat))
    return tuple(parts)


# ----------------------------------------------------------------------
# code generation


def _block_starts(code: list) -> list[int]:
    starts = {0, len(code)}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == _OP_JUMP:
            starts.add(ins[1])
            starts.add(pc + 1)
        elif op == _OP_CJUMP:
            starts.add(ins[2])
            starts.add(ins[3])
            starts.add(pc + 1)
        elif op == _OP_SWITCH:
            starts.update(ins[2].values())
            starts.add(ins[3])
            starts.add(pc + 1)
        elif op in (_OP_RET, _OP_CALLU, _OP_ICALL):
            starts.add(pc + 1)
    return sorted(start for start in starts if start <= len(code))


#: Operand fields each opcode reads; a register is an ``int`` operand,
#: an immediate a boxed 1-tuple.
_READS = {
    _OP_MOV: (2,), _OP_BIN: (3, 4), _OP_UN: (3,), _OP_LOAD4: (2,),
    _OP_LOAD1: (2,), _OP_STORE4: (1, 2), _OP_STORE1: (1, 2),
    _OP_ICALL: (2,), _OP_RET: (1,), _OP_CJUMP: (1,), _OP_SWITCH: (1,),
}

#: Opcodes writing the register in field 1 (calls: ``dst``, -1 if none).
_WRITES = {
    _OP_CONST, _OP_MOV, _OP_BIN, _OP_UN, _OP_LOAD4, _OP_LOAD1, _OP_FRAME,
    _OP_CALLU, _OP_CALLB, _OP_ICALL,
}

#: Opcodes whose field 3 is the argument tuple.
_CALLS = {_OP_CALLU, _OP_CALLB, _OP_ICALL}


def _back_edge_targets(code: list) -> set[int]:
    """Pcs a jump or conditional branch reaches backwards: every cycle
    in ``code`` passes through one of them."""
    targets = set()
    for pc, ins in enumerate(code):
        if ins[0] == _OP_JUMP:
            branches = ins[1:2]
        elif ins[0] == _OP_CJUMP:
            branches = ins[2:4]
        else:
            continue
        targets.update(target for target in branches if target <= pc)
    return targets


def _block_successors(code: list, starts: list[int]) -> list[tuple[int, ...]]:
    """Successor block indices of each `_block_starts` block.

    A call's continuation is the next block; the block at ``len(code)``
    (falling off the end) has none.
    """
    block_of = {start: i for i, start in enumerate(starts)}
    successors = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(code)
        targets: tuple = ()
        if start < len(code):
            last = code[end - 1]
            op = last[0]
            if op == _OP_JUMP:
                targets = (last[1],)
            elif op == _OP_CJUMP:
                targets = (last[2], last[3])
            elif op == _OP_SWITCH:
                targets = (*last[2].values(), last[3])
            elif op != _OP_RET:
                targets = (end,)
        successors.append(tuple(block_of[target] for target in targets))
    return successors


def _block_liveness(code: list) -> tuple[frozenset[int], ...]:
    """Registers live on entry to each `_block_starts` block of ``code``.

    A backward dataflow: a register is live at a block when some path
    from its start reads it before writing it.
    """
    starts = _block_starts(code)
    count = len(starts)
    successors = _block_successors(code, starts)
    reads: list[set[int]] = []
    writes: list[set[int]] = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < count else len(code)
        read: set[int] = set()
        written: set[int] = set()
        for ins in reversed(code[start:end]):
            op = ins[0]
            if op in _WRITES and ins[1] >= 0:
                read.discard(ins[1])
                written.add(ins[1])
            operands = [ins[field] for field in _READS.get(op, ())]
            if op in _CALLS:
                operands.extend(ins[3])
            read.update(value for value in operands if type(value) is int)
        reads.append(read)
        writes.append(written)
    live: list[frozenset[int]] = [frozenset()] * count
    changed = True
    while changed:
        changed = False
        for i in reversed(range(count)):
            out = set().union(*(live[s] for s in successors[i]))
            now = frozenset(reads[i] | (out - writes[i]))
            if now != live[i]:
                live[i] = now
                changed = True
    return tuple(live)


def _leaf_expansion_size(function) -> tuple[int, int | None] | None:
    """(expansion size, loop header block) for an inlinable leaf.

    A *leaf* makes no user or indirect calls and has no switch, so its
    whole body can be expanded into a caller with every path ending in
    a return or trap, never needing the caller's driver protocol.
    Builtin calls are fine. Backward branches are allowed when they all
    target one common header that dominates them — the expansion wraps
    that region in a nested ``while`` whose returns ``break`` out, so
    loop-containing string/scan helpers inline too. Returns None when
    the function is not expandable (or too large).
    """
    code = function.code
    header_pc: int | None = None
    for pc, ins in enumerate(code):
        op = ins[0]
        if op in (_OP_CALLU, _OP_ICALL, _OP_SWITCH):
            return None
        targets = ()
        if op == _OP_JUMP:
            targets = (ins[1],)
        elif op == _OP_CJUMP:
            targets = (ins[2], ins[3])
        for target in targets:
            if target <= pc:
                if header_pc is None:
                    header_pc = target
                elif header_pc != target:
                    return None  # two distinct loops: not expandable
    starts = _block_starts(code)
    block_of = {start: i for i, start in enumerate(starts)}
    header = None if header_pc is None else block_of[header_pc]

    if header is not None and header != 0:
        # The generated `continue` is only well-formed if every
        # back-edge source sits inside the header's `while` — i.e. is
        # unreachable without passing through the header. Reject jumps
        # into the middle of the loop.
        successors = _block_successors(code, starts)
        seen = {0}
        work = [0]
        while work:
            for successor in successors[work.pop()]:
                if successor != header and successor not in seen:
                    seen.add(successor)
                    work.append(successor)
        for pc, ins in enumerate(code):
            op = ins[0]
            back = (
                op == _OP_JUMP and ins[1] <= pc
            ) or (op == _OP_CJUMP and (ins[2] <= pc or ins[3] <= pc))
            if back:
                source = block_of[
                    max(s for s in starts if s <= pc and s < len(code))
                ]
                if source in seen:
                    return None

    memo: dict[int, int] = {}
    in_progress: set[int] = set()

    def expansion(index: int) -> int:
        if index in memo:
            return memo[index]
        if index in in_progress:  # back-edge: compiles to `continue`
            return 0
        in_progress.add(index)
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else len(code)
        if start >= len(code):
            in_progress.discard(index)
            return 1
        size = end - start
        terminator = code[end - 1]
        op = terminator[0]
        if op == _OP_JUMP:
            size += expansion(block_of[terminator[1]])
        elif op == _OP_CJUMP:
            size += expansion(block_of[terminator[2]])
            size += expansion(block_of[terminator[3]])
        elif op != _OP_RET:  # fallthrough into the next block
            size += expansion(block_of[end])
        in_progress.discard(index)
        memo[index] = size
        return size

    total = expansion(0)
    return (total, header) if total <= _LEAF_EXPANSION_CAP else None


class _Regions:
    """What tier-0 needs of one function, and what it measured.

    ``starts`` are the function's `_block_starts`. ``gate[pc]`` is the
    block index at each region entry tier-0 can reach by a transfer
    inside one activation (the function entry, back-edge targets and
    switch targets) and None at every other pc, up to ``len(code)``.

    ``heat`` and ``arms`` are measurements shared by every run of the
    module: the IL interpreted from each region entry (by block index),
    and for each ``CJUMP`` (by pc) bit 1 if tier-0 took the branch and
    bit 2 if it fell through. Threads may race on them; a lost update
    only delays a tier-up or turns a taken arm into a side exit.
    """

    __slots__ = ("starts", "gate", "heat", "arms")

    def __init__(self, code: list):
        starts = _block_starts(code)
        block_of = {start: i for i, start in enumerate(starts)}
        gate = [None] * (len(code) + 1)
        entries = {0, *_back_edge_targets(code)}
        for ins in code:
            if ins[0] == _OP_SWITCH:
                entries.update(ins[2].values(), (ins[3],))
        for pc in entries:
            gate[pc] = block_of[pc]
        self.starts = tuple(starts)
        self.gate = tuple(gate)
        self.heat = [0] * len(starts)
        self.arms = bytearray(len(code))


class _Frame:
    """One level of transparent expansion inside a generated closure.

    The root frame is the function the closure belongs to (registers
    ``rN``, frame pointer ``fp``). Each inlined leaf call adds a frame
    with a unique register prefix and a constant frame-pointer offset.
    """

    __slots__ = ("function", "code", "starts", "block_of", "prefix",
                 "fp_off", "depth_off", "frame_size", "retk",
                 "loop_header")

    def __init__(self, function, prefix: str, fp_off: int, depth_off: int):
        self.function = function
        self.code = function.code
        self.starts = _block_starts(function.code)
        self.block_of = {s: i for i, s in enumerate(self.starts)}
        self.prefix = prefix
        self.fp_off = fp_off
        self.depth_off = depth_off
        self.frame_size = function.frame_size
        #: Emission callback replacing RET for inlined frames; carries
        #: the caller's continuation so every return site in the
        #: expansion resumes the caller in place.
        self.retk = None
        #: Block index of the single loop header (inlined frames only).
        self.loop_header: int | None = None

    def fp_expr(self) -> str:
        return "fp" if self.fp_off == 0 else f"fp + {self.fp_off}"


class _ClosureCodegen:
    """Emits the factory source for one block's closure.

    One instance per generated closure: all of its state is private to
    that generation. ``live`` is the function's `_block_liveness`, and
    ``arms`` its `_Regions.arms` when generation starts: a branch whose
    block tier-0 ran but one arm of which it never took gets a side
    exit for that arm instead of a copy of it.
    """

    def __init__(self, name: str, index: int, compiled: dict,
                 leaves: dict[str, tuple[int, int | None]],
                 live: tuple[frozenset[int], ...], arms: bytes):
        self.name = name
        self.index = index
        self.compiled = compiled
        self.leaves = leaves
        self.live = live
        self.arms = arms
        self.root = _Frame(compiled[name], "", 0, 0)
        self.bindings: dict[str, str] = {}  # identifier -> init statement
        self._switch_count = 0
        #: Branch key -> bound alias of its [taken, not-taken] pair.
        #: run_fast pre-seeds every static key, so the binding resolves
        #: at instantiation and each arm is a plain list bump.
        self._branch_aliases: dict = {}
        # Blocks targeted by a backward branch: each gets a nested
        # `while` when reached, so inner loops never bounce through the
        # driver between iterations.
        self.root_loop_headers = {
            self.root.block_of[pc] for pc in _back_edge_targets(self.root.code)
        }
        self.body: list = []
        self.live_in: set[int] = set()
        self.assigned_anywhere: set[int] = set()
        self.has_backedge = False
        self.budget = _INLINE_BUDGET
        self._inline_count = 0
        #: Textually-open nested root loops, innermost last.
        self._loop_stack: list[int] = []

    # -- emission helpers ---------------------------------------------

    def emit(self, indent: int, line: str) -> None:
        self.body.append("    " * indent + line)

    @staticmethod
    def closure(index: int) -> str:
        """Block ``index``'s closure, installed on first use."""
        return f"BT[{index}] or MK({index})"

    def bind(self, identifier: str, init: str) -> str:
        self.bindings.setdefault(identifier, f"    {identifier} = {init}")
        return identifier

    def assign(self, frame: _Frame, assigned: set[str], index: int) -> str:
        """Mark a register as defined on this path; return its local."""
        name = f"{frame.prefix}r{index}"
        assigned.add(name)
        if not frame.prefix:
            self.assigned_anywhere.add(index)
        return name

    def operand(self, frame: _Frame, value, assigned: set[str]) -> str:
        """Expression for one operand.

        Root-frame reads before a path assignment make the register
        live-in (unpacked at closure entry). Inlined-frame reads before
        a path assignment fold to the register's initial value, 0 —
        every emitted location sits on exactly one tail-duplicated path
        from the expansion entry, so "not assigned here" means "still
        holds its initial zero".
        """
        if type(value) is int:
            name = f"{frame.prefix}r{value}"
            if name not in assigned:
                if frame.prefix:
                    return "0"
                self.live_in.add(value)
            return name
        return repr(value[0])

    def _wrap_assign(self, indent: int, target: str, expression: str) -> None:
        """32-bit two's-complement wrap of ``expression`` into ``target``."""
        self.emit(indent, f"t = {expression} & 4294967295")
        self.emit(
            indent, f"{target} = t - 4294967296 if t & 2147483648 else t"
        )

    def _flush(self, indent: int, pil: int, pct: int,
               pca: int = 0, prt: int = 0) -> None:
        """Account deferred il / ct / call / return counts.

        Every flush point dominates the next builtin invocation and
        every closure exit, so the shared counter segment is exact
        whenever foreign code (or the driver) can observe it.
        """
        if pil:
            self.emit(indent, f"st[0] += {pil}")
        if pct:
            self.emit(indent, f"st[1] += {pct}")
        if pca:
            self.emit(indent, f"st[2] += {pca}")
        if prt:
            self.emit(indent, f"st[3] += {prt}")

    def _bump(self, indent: int, counts: str, key) -> None:
        """Exact equivalent of ``d[k] = d.get(k, 0) + 1``, hot-path cheap."""
        self.emit(indent, "try:")
        self.emit(indent, f"    {counts}[{key!r}] += 1")
        self.emit(indent, "except KeyError:")
        self.emit(indent, f"    {counts}[{key!r}] = 1")

    def _writeback(self, indent: int, assigned: set[str],
                   live: frozenset[int]) -> None:
        """Spill modified root-frame locals that are ``live`` at an exit.

        ``live`` holds the registers live where control resumes: the
        bounce target, the call continuation, or every switch arm. Any
        other register is written before it is read again, so its stale
        register-file value is never observed. Emitted as a placeholder
        and expanded once the whole closure is generated: when the
        closure contains a back-edge, locals assigned on *any* path may
        carry state from a previous loop iteration into this exit, so
        the spill covers the closure-wide assigned set (and the entry
        unpacks whatever some exit spills), not just the current
        path's. Inlined-frame registers never spill — they are dead at
        every closure exit.
        """
        roots = frozenset(
            int(name[1:]) for name in assigned if name[0] == "r"
        )
        self.body.append((indent, roots, live))

    # -- per-instruction bodies ---------------------------------------

    def _emit_simple(self, frame: _Frame, ins, indent: int,
                     assigned: set[str]) -> None:
        op = ins[0]
        if op == _OP_CONST:
            self.emit(
                indent, f"{self.assign(frame, assigned, ins[1])} = {ins[2]!r}"
            )
        elif op == _OP_MOV:
            value = self.operand(frame, ins[2], assigned)
            self.emit(
                indent, f"{self.assign(frame, assigned, ins[1])} = {value}"
            )
        elif op == _OP_BIN:
            symbol = _BIN_SYMBOL[ins[2]]
            a = self.operand(frame, ins[3], assigned)
            b = self.operand(frame, ins[4], assigned)
            target = self.assign(frame, assigned, ins[1])
            if symbol in _COMPARISONS:
                self.emit(indent, f"{target} = 1 if {a} {symbol} {b} else 0")
            elif symbol == "/":
                self.emit(indent, f"{target} = c_div({a}, {b})")
            elif symbol == "%":
                self.emit(indent, f"{target} = c_mod({a}, {b})")
            elif symbol == "<<":
                self._wrap_assign(indent, target, f"{a} << ({b} & 31)")
            elif symbol == ">>":
                self._wrap_assign(indent, target, f"{a} >> ({b} & 31)")
            else:
                self._wrap_assign(indent, target, f"{a} {symbol} {b}")
        elif op == _OP_UN:
            symbol = _UN_SYMBOL[ins[2]]
            a = self.operand(frame, ins[3], assigned)
            target = self.assign(frame, assigned, ins[1])
            if symbol == "+":
                self.emit(indent, f"{target} = {a}")
            elif symbol == "!":
                self.emit(indent, f"{target} = 0 if {a} else 1")
            elif symbol == "sxt8":
                self.emit(indent, f"{target} = (({a} & 255) ^ 128) - 128")
            else:  # "-" / "~"
                self._wrap_assign(indent, target, f"{symbol}({a})")
        elif op == _OP_LOAD4:
            address = self.operand(frame, ins[2], assigned)
            self.emit(
                indent, f"if {address} < 16 or {address} + 4 > lm:"
            )
            self.emit(
                indent,
                f"    raise VMTrap(f'load4 from bad address {{{address}}}')",
            )
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" U4(mem, {address})[0]",
            )
        elif op == _OP_LOAD1:
            address = self.operand(frame, ins[2], assigned)
            self.emit(indent, f"if {address} < 16 or {address} >= lm:")
            self.emit(
                indent,
                f"    raise VMTrap(f'load1 from bad address {{{address}}}')",
            )
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" (mem[{address}] ^ 128) - 128",
            )
        elif op == _OP_STORE4:
            address = self.operand(frame, ins[1], assigned)
            self.emit(
                indent, f"if {address} < 16 or {address} + 4 > lm:"
            )
            self.emit(
                indent,
                f"    raise VMTrap(f'store4 to bad address {{{address}}}')",
            )
            value = ins[2]
            if type(value) is not int:
                self.emit(
                    indent,
                    f"P4(mem, {address}, {value[0] & 0xFFFFFFFF})",
                )
            else:
                self.emit(
                    indent,
                    f"P4(mem, {address},"
                    f" {self.operand(frame, value, assigned)} & 4294967295)",
                )
        elif op == _OP_STORE1:
            address = self.operand(frame, ins[1], assigned)
            self.emit(indent, f"if {address} < 16 or {address} >= lm:")
            self.emit(
                indent,
                f"    raise VMTrap(f'store1 to bad address {{{address}}}')",
            )
            value = self.operand(frame, ins[2], assigned)
            self.emit(indent, f"mem[{address}] = {value} & 255")
        elif op == _OP_FRAME:
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" fp + {frame.fp_off + ins[2]}",
            )
        else:  # pragma: no cover - handled by callers
            raise AssertionError(f"not a simple opcode {op}")

    def _emit_callb(self, frame: _Frame, ins, indent: int,
                    assigned: set[str], pil: int, pct: int, pca: int,
                    prt: int) -> tuple[int, int, int, int]:
        """Emit a builtin call; returns the pending counts that follow.

        All deferred counts (including this call) flush before the
        implementation runs — a builtin may raise ExitSignal and the
        counter snapshot must be exact at that point. The matching
        return is deferred into the continuation.
        """
        dst, impl, args, site, name = ins[1], ins[2], ins[3], ins[4], ins[5]
        if impl is None:
            self._flush(indent, pil, pct, pca, prt)
            message = f"call to unavailable external {name!r}"
            self.emit(indent, f"raise VMTrap({message!r})")
            return 0, 0, 0, 0
        self._flush(indent, pil, pct, pca + 1, prt)
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        binding = self.bind(f"B_{name}", f"builtins[{name!r}][1]")
        arguments = "".join(
            f", {self.operand(frame, arg, assigned)}" for arg in args
        )
        self.emit(indent, f"t = {binding}(M{arguments})")
        self.emit(indent, "lm = len(mem)")
        if dst >= 0:
            self.emit(
                indent,
                f"{self.assign(frame, assigned, dst)} = 0 if t is None else t",
            )
        return 0, 0, 0, 1

    def _emit_new_regs(self, callee, values, indent: int) -> None:
        if callee.nregs <= 24:
            cells = values + ["0"] * (callee.nregs - len(values))
            self.emit(indent, f"nr = [{', '.join(cells)}]")
        else:
            self.emit(indent, f"nr = [0] * {callee.nregs}")
            for index, value in enumerate(values):
                self.emit(indent, f"nr[{index}] = {value}")

    def _emit_inline_call(self, frame: _Frame, ins, cont: int, entry: int,
                          path: frozenset, indent: int, assigned: set[str],
                          pil: int, pct: int, pca: int, prt: int) -> None:
        """Expand a leaf callee into the current closure.

        Counting (call, site, function, return) is emitted exactly as
        for a protocol call — the call and its matching return simply
        join the deferred pending counts, since a pure leaf body cannot
        invoke foreign code before the next flush point. The
        stack-overflow probe stays when the callee owns frame memory —
        when its frame size is 0 the probe can never fire (the caller's
        own entry already proved ``fp + fp_off + frame_size`` is within
        the limit) and is elided.
        """
        dst, name, args, site = ins[1], ins[2], ins[3], ins[4]
        callee = self.compiled[name]
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        values = [self.operand(frame, arg, assigned) for arg in args]
        self._inline_count += 1
        inner = _Frame(
            callee,
            f"i{self._inline_count}_",
            frame.fp_off + frame.frame_size,
            frame.depth_off + 1,
        )
        inner.loop_header = self.leaves[name][1]
        for index, value in enumerate(values):
            self.emit(
                indent, f"{self.assign(inner, assigned, index)} = {value}"
            )
        if callee.frame_size > 0:
            self.emit(
                indent,
                f"if {inner.fp_expr()} + {callee.frame_size} > stack_limit:",
            )
            self.emit(
                indent,
                "    raise VMTrap(f'control stack overflow calling"
                f" {name} (depth {{d + {inner.depth_off}}})')",
            )

        def return_to_caller(value_expr: str, ret_assigned: set[str],
                             ret_indent: int, ret_pil: int, ret_pct: int,
                             ret_pca: int, ret_prt: int) -> None:
            if dst >= 0:
                self.emit(
                    ret_indent,
                    f"{self.assign(frame, ret_assigned, dst)} = {value_expr}",
                )
            self._goto(
                frame, cont, entry, path, ret_assigned, ret_indent,
                ret_pil, ret_pct, ret_pca, ret_prt + 1,
            )

        inner.retk = return_to_caller
        self._gen_block(
            inner, 0, entry, path | {(inner.prefix, 0)}, assigned, indent,
            pil, pct, pca + 1, prt,
        )

    def _emit_callu(self, frame: _Frame, ins, cont: int, entry: int,
                    path: frozenset, indent: int, assigned: set[str],
                    pil: int, pct: int, pca: int, prt: int) -> None:
        """Direct call when shallow; trampoline request tuple when deep.

        The shallow arm runs the callee via plain Python recursion and
        falls straight through to the continuation in the same Python
        frame — the caller's promoted registers never touch the
        register file. One Python frame per IL depth level is safe up
        to `_DEPTH_LIMIT`; past that every call site returns a request
        tuple and ``drive`` executes the subtree with an explicit
        stack.
        """
        name = ins[2]
        callee = self.compiled[name]
        leaf = self.leaves.get(name)
        if leaf is not None and leaf[0] <= self.budget:
            self.budget -= leaf[0]
            self._emit_inline_call(
                frame, ins, cont, entry, path, indent, assigned,
                pil, pct, pca, prt,
            )
            return
        dst, args, site = ins[1], ins[3], ins[4]
        self._flush(indent, pil, pct, pca + 1, prt)
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        values = [self.operand(frame, arg, assigned) for arg in args]
        self._emit_new_regs(callee, values, indent)
        binding = self.bind(f"F_{name}", f"FNS[{name!r}]")
        fp_off = frame.fp_off + frame.frame_size
        fp2 = "fp" if fp_off == 0 else f"fp + {fp_off}"
        depth = f"d + {frame.depth_off + 1}"
        self.emit(indent, f"if d < {_DEPTH_LIMIT}:")
        inner = indent + 1
        if callee.frame_size > 0:
            self.emit(
                inner, f"if {fp2} + {callee.frame_size} > stack_limit:"
            )
            self.emit(
                inner,
                "    raise VMTrap(f'control stack overflow calling"
                f" {name} (depth {{{depth}}})')",
            )
        self.emit(inner, f"blk = {binding}.entry")
        self.emit(inner, "if blk is None:")
        self.emit(inner, f"    blk = MAT({binding})")
        self.emit(inner, f"t = blk(nr, {fp2}, {depth})")
        self.emit(inner, "while t.__class__ is not tuple:")
        self.emit(inner, f"    t = t(nr, {fp2}, {depth})")
        self.emit(inner, "if len(t) != 1:")
        self.emit(inner, f"    t = drive(t, nr, {fp2}, {depth})")
        self.emit(inner, "lm = len(mem)")
        shallow = set(assigned)
        if dst >= 0:
            self.emit(inner, f"{self.assign(frame, shallow, dst)} = t[0]")
        self._goto(frame, cont, entry, path, shallow, inner, 0, 0, 0, 1)
        self.emit(indent, "else:")
        self._writeback(indent + 1, assigned, self.live[cont])
        self.emit(
            indent + 1,
            f"return ({binding}, nr, {dst}, {self.closure(cont)}, {fp2})",
        )

    def _emit_icall(self, frame: _Frame, ins, cont: int, entry: int,
                    path: frozenset, indent: int, assigned: set[str],
                    pil: int, pct: int, pca: int, prt: int) -> None:
        dst, pointer, args, site = ins[1], ins[2], ins[3], ins[4]
        self._flush(indent, pil, pct, pca, prt)
        values = ", ".join(
            self.operand(frame, arg, assigned) for arg in args
        )
        values = f"({values},)" if values else "()"
        pointer = self.operand(frame, pointer, assigned)
        fp_off = frame.fp_off + frame.frame_size
        fp2 = "fp" if fp_off == 0 else f"fp + {fp_off}"
        depth = "d" if frame.depth_off == 0 else f"d + {frame.depth_off}"
        self.emit(
            indent, f"t = icall({pointer}, {values}, {site}, {fp2}, {depth})"
        )
        self.emit(indent, "lm = len(mem)")
        self.emit(indent, "if len(t) == 1:")
        inner = indent + 1
        shallow = set(assigned)
        if dst >= 0:
            self.emit(inner, f"{self.assign(frame, shallow, dst)} = t[0]")
        self._goto(frame, cont, entry, path, shallow, inner, 0, 0, 0, 0)
        self.emit(indent, "else:")
        # Deep: only now does the continuation need a closure.
        self._writeback(indent + 1, assigned, self.live[cont])
        self.emit(
            indent + 1,
            f"return (t[0], t[1], {dst}, {self.closure(cont)}, {fp2})",
        )

    # -- control-flow-region emission ---------------------------------

    def _emit_inline_loop(self, frame: _Frame, index: int, entry: int,
                          path: frozenset, assigned: set[str], indent: int,
                          pil: int, pct: int, pca: int, prt: int) -> None:
        """Wrap an inlined leaf's loop region in a nested ``while``.

        Return sites inside the loop stash the value and ``break``; the
        caller's continuation is emitted once after the loop, so a
        ``continue`` emitted there still targets the *enclosing*
        closure loop. The fuel probe at the top of the body keeps this
        cycle checked — it never passes the closure entry.
        """
        self._flush(indent, pil, pct, pca, prt)
        result = f"{frame.prefix}rv"
        outer_retk = frame.retk

        def loop_retk(value_expr: str, ret_assigned: set[str],
                      ret_indent: int, ret_pil: int, ret_pct: int,
                      ret_pca: int, ret_prt: int) -> None:
            self.emit(ret_indent, f"{result} = {value_expr}")
            self._flush(ret_indent, ret_pil, ret_pct, ret_pca, ret_prt)
            self.emit(ret_indent, "break")

        frame.retk = loop_retk
        self.emit(indent, "while 1:")
        self.emit(indent + 1, "if st[0] > fuel:")
        self.emit(
            indent + 1,
            "    raise VMTrap('fuel exhausted after"
            " %d instructions' % st[0])",
        )
        self._gen_block(
            frame, index, entry, path, assigned, indent + 1,
            0, 0, 0, 0, as_loop_body=True,
        )
        frame.retk = outer_retk
        outer_retk(result, assigned, indent, 0, 0, 0, 0)

    def _block_extent(self, frame: _Frame, index: int) -> tuple[int, int]:
        start = frame.starts[index]
        end = (
            frame.starts[index + 1]
            if index + 1 < len(frame.starts)
            else len(frame.code)
        )
        return start, end

    def _goto(self, frame: _Frame, target: int, entry: int, path: frozenset,
              assigned: set[str], indent: int, pil: int, pct: int,
              pca: int = 0, prt: int = 0) -> None:
        """Transfer control to block ``target`` from inside a closure.

        Back-edges to the closure's entry block re-enter its ``while``
        loop; forward targets are inlined (tail-duplicated) while the
        budget lasts; everything else spills locals and bounces through
        the driver via the target's own closure. Inlined leaf frames
        are acyclic and fully pre-budgeted, so their transfers always
        land in the first two cases.
        """
        key = (frame.prefix, target)
        if not frame.prefix:
            if target == entry and not self._loop_stack:
                self.has_backedge = True
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, "continue")
                return
            if (
                self._loop_stack
                and target == self._loop_stack[-1]
                and key in path
            ):
                # Back-edge of the innermost open nested loop.
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, "continue")
                return
            # A `continue` for any other loop level would bind to the
            # wrong `while`; fall through to the bounce path (below),
            # which re-enters via the target block's own closure.
        elif target == frame.loop_header and key in path:
            # Back-edge of an inlined leaf loop: re-enter its `while`.
            self._flush(indent, pil, pct, pca, prt)
            self.emit(indent, "continue")
            return
        start, end = self._block_extent(frame, target)
        size = end - start
        if key not in path and (frame.prefix or size <= self.budget):
            if not frame.prefix:
                self.budget -= size
            self._gen_block(
                frame, target, entry, path | {key}, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        self._exit(target, assigned, indent, pil, pct, pca, prt)

    def _exit(self, target: int, assigned: set[str], indent: int, pil: int,
              pct: int, pca: int = 0, prt: int = 0) -> None:
        """Leave the closure for root block ``target``'s own closure."""
        self._flush(indent, pil, pct, pca, prt)
        self._writeback(indent, assigned, self.live[target])
        self.emit(indent, f"return {self.closure(target)}")

    def _gen_block(self, frame: _Frame, index: int, entry: int,
                   path: frozenset, assigned: set[str], indent: int,
                   pil: int, pct: int, pca: int = 0, prt: int = 0,
                   as_loop_body: bool = False) -> None:
        if (
            frame.prefix
            and index == frame.loop_header
            and not as_loop_body
        ):
            self._emit_inline_loop(
                frame, index, entry, path, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        if (
            not frame.prefix
            and not as_loop_body
            and index != entry
            and index in self.root_loop_headers
        ):
            # Inner loop of this function: give it its own `while` so
            # iterating never leaves the closure. Registers assigned on
            # any path may now carry values across iterations, so exits
            # must spill the closure-wide assigned set (has_backedge).
            self._flush(indent, pil, pct, pca, prt)
            self.has_backedge = True
            self._loop_stack.append(index)
            self.emit(indent, "while 1:")
            self.emit(indent + 1, "if st[0] > fuel:")
            self.emit(
                indent + 1,
                "    raise VMTrap('fuel exhausted after"
                " %d instructions' % st[0])",
            )
            self._gen_block(
                frame, index, entry, path, assigned, indent + 1,
                0, 0, 0, 0, as_loop_body=True,
            )
            self._loop_stack.pop()
            return
        start, end = self._block_extent(frame, index)
        if start >= len(frame.code):
            # Control fell (or jumped) off the end of the function; the
            # reference interpreter raises the same IndexError here.
            self._flush(indent, pil, pct, pca, prt)
            self.emit(indent, "raise IndexError('list index out of range')")
            return
        body = frame.code[start:end]
        terminator = body[-1]
        has_terminator = terminator[0] in _TERMINATORS
        straight = body[:-1] if has_terminator else body
        for ins in straight:
            pil += 1
            if ins[0] == _OP_CALLB:
                pil, pct, pca, prt = self._emit_callb(
                    frame, ins, indent, assigned, pil, pct, pca, prt
                )
            else:
                self._emit_simple(frame, ins, indent, assigned)
        if not has_terminator:
            self._goto(
                frame, frame.block_of[end], entry, path, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        pil += 1
        op = terminator[0]
        if op == _OP_JUMP:
            self._goto(
                frame, frame.block_of[terminator[1]], entry, path, assigned,
                indent, pil, pct + 1, pca, prt,
            )
        elif op == _OP_CJUMP:
            pct += 1
            value = self.operand(frame, terminator[1], assigned)
            taken = frame.block_of[terminator[2]]
            fallthrough = frame.block_of[terminator[3]]
            key = terminator[4]
            # Arms tier-0 saw taken (bit 1: branch, bit 2: fallthrough);
            # 3 copies both, as does a branch tier-0 never ran.
            seen = 3 if frame.prefix else self.arms[end - 1] or 3
            self.emit(indent, f"if {value}:")
            if key is not None:
                alias = self._branch_aliases.get(key)
                if alias is None:
                    alias = f"BR{len(self._branch_aliases)}"
                    self._branch_aliases[key] = alias
                    self.bind(alias, f"branch_counts[{key!r}]")
                self.emit(indent + 1, f"{alias}[0] += 1")
            if seen & 1:
                self._goto(
                    frame, taken, entry, path, set(assigned), indent + 1,
                    pil, pct, pca, prt,
                )
            else:
                self._exit(taken, assigned, indent + 1, pil, pct, pca, prt)
            if key is not None:
                self.emit(indent, f"{alias}[1] += 1")
            if seen & 2:
                self._goto(
                    frame, fallthrough, entry, path, assigned, indent,
                    pil, pct, pca, prt,
                )
            else:
                self._exit(fallthrough, assigned, indent, pil, pct, pca, prt)
        elif op == _OP_SWITCH:
            self._flush(indent, pil, pct + 1, pca, prt)
            arms = {
                value: frame.block_of[target]
                for value, target in terminator[2].items()
            }
            default = frame.block_of[terminator[3]]
            table = self.bind(f"S{self._switch_count}", repr(arms))
            self._switch_count += 1
            value = self.operand(frame, terminator[1], assigned)
            live = self.live[default].union(
                *(self.live[arm] for arm in arms.values())
            )
            self._writeback(indent, assigned, live)
            self.emit(indent, f"t = {table}.get({value}, {default})")
            self.emit(indent, "return BT[t] or MK(t)")
        elif op == _OP_RET:
            # Registers die at return: no spill needed.
            operand = terminator[1]
            value = (
                "0"
                if operand is None
                else self.operand(frame, operand, assigned)
            )
            if frame.retk is None:
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, f"return ({value},)")
            else:
                frame.retk(value, assigned, indent, pil, pct, pca, prt)
        elif op == _OP_CALLU:
            self._emit_callu(
                frame, terminator, frame.block_of[end], entry, path, indent,
                assigned, pil, pct, pca, prt,
            )
        elif op == _OP_ICALL:
            self._emit_icall(
                frame, terminator, frame.block_of[end], entry, path, indent,
                assigned, pil, pct, pca, prt,
            )
        else:  # pragma: no cover
            raise AssertionError(f"unhandled terminator {op}")

    # -- the closure -------------------------------------------------

    def generate(self) -> str:
        """Source of ``_factory``, which binds one run's environment
        (`_ENV`, then ``BT`` and ``MK``) and returns block ``index``'s
        closure."""
        index = self.index
        # The fuel probe sits at the top of every closure (and so on
        # every loop iteration and every call): all executed
        # instructions are flushed at closure exits and back-edges, so
        # st[0] is exact here and no cycle can run unchecked.
        self.emit(3, "if st[0] > fuel:")
        self.emit(
            3,
            "    raise VMTrap('fuel exhausted after"
            " %d instructions' % st[0])",
        )
        self._gen_block(
            self.root, index, index, frozenset((("", index),)), set(), 3,
            0, 0,
        )
        body: list[str] = []
        spilled: set[int] = set()
        for item in self.body:
            if type(item) is str:
                body.append(item)
                continue
            indent, path_assigned, live = item
            spill = live & (
                self.assigned_anywhere if self.has_backedge else path_assigned
            )
            spilled |= spill
            body.extend(
                "    " * indent + f"r[{register}] = r{register}"
                for register in sorted(spill)
            )
        lines = [f"def _factory({', '.join(_ENV)}, BT, MK):"]
        lines.extend(sorted(self.bindings.values()))
        lines.append(f"    def b{index}(r, fp, d):")
        # Localise the memory bound: ``mem`` only grows, and only
        # builtins grow it, so refreshing ``lm`` at entry and after
        # every call keeps the bound exact without a ``len`` per access.
        lines.append("        lm = len(mem)")
        # Unpack live-in registers; a back-edge additionally keeps every
        # assigned register local across iterations, so whatever an
        # exit spills must be defined on every path too.
        unpack = self.live_in | spilled if self.has_backedge else self.live_in
        for register in sorted(unpack):
            lines.append(f"        r{register} = r[{register}]")
        # Every path through the region tree ends in continue / return /
        # raise, so the loop only repeats on back-edges to this entry.
        lines.append("        while 1:")
        lines.extend(body)
        lines.append(f"    return b{index}")
        return "\n".join(lines)


def _factories_for(linked) -> _FactoryTable:
    """The shared factory table for a machine's link result."""
    key = linked.fingerprint
    if key is None:
        key = linked.fingerprint = _code_fingerprint(linked.functions)
    with _FACTORY_LOCK:
        table = _FACTORY_CACHE.get(key)
        if table is None:
            table = _FACTORY_CACHE[key] = _FactoryTable(linked.functions)
        _FACTORY_CACHE.move_to_end(key)
        while len(_FACTORY_CACHE) > _FACTORY_CACHE_LIMIT:
            _FACTORY_CACHE.popitem(last=False)
    return table


# ----------------------------------------------------------------------
# execution


def run_fast(machine, entry_compiled, args: list[int]) -> int:
    """Execute ``machine``'s linked module on the fast tier.

    Mirrors :meth:`~repro.vm.machine.Machine._execute`: same memory,
    same virtual OS, same counter totals and per-site/function/branch
    dicts on every successful run.
    """
    from repro.vm.machine import _c_div, _c_mod

    if sys.getrecursionlimit() < _PY_STACK_NEED:
        sys.setrecursionlimit(_PY_STACK_NEED)

    compiled = machine._compiled
    factories = _factories_for(machine._linked)
    metrics = machine._metrics
    counters = machine.counters
    site_counts = counters.site_counts
    func_counts = counters.func_counts
    function_table = machine._function_table
    stack_limit = machine._stack_limit
    mem = machine._mem
    fuel = machine._fuel

    #: [il, ct, calls, returns, tier-0 il] — flushed on exit.
    st = [0, 0, 0, 0, 0]
    shells = {
        name: _FastFunction(
            name, function.nregs, function.nparams, function.frame_size
        )
        for name, function in compiled.items()
    }
    threshold = _TIER_UP_IL
    #: Every per-function table this run made (see the end).
    tables: list[list] = []

    def materialize(shell):
        """Install a function's block table and entry on its first call.

        ``blocks`` starts empty; generated exits read ``BT[k] or
        MK(k)``, so block ``k`` runs as a tier-0 stub until enough IL
        has been interpreted from it, and only then is its closure
        instantiated (and, the first time in the process, generated).
        """
        name = shell.name
        regions = factories.regions_of(name)
        heat = regions.heat
        blocks = [None] * len(heat)
        stubs = [None] * len(heat)
        # `_Regions.gate`, with each installed closure at its block.
        gate = list(regions.gate)
        tables.extend((blocks, stubs, gate))

        def make(index):
            if heat[index] < threshold:
                stub = stubs[index]
                if stub is None:
                    stub = stubs[index] = tier0(
                        shell, regions, gate, blocks, make, index
                    )
                return stub
            block = factories.factory(name, index, metrics)(
                *env, blocks, make
            )
            blocks[index] = gate[regions.starts[index]] = block
            if index == 0:
                shell.entry = block
            return block

        block = shell.entry = make(0)
        return block

    def tier0(shell, regions, gate, BT, MK, index):
        """Block ``index``'s tier-0 stub: interpret ``shell``'s code.

        The stub speaks the closure protocol, counts exactly as the
        reference interpreter does, and flushes ``st`` wherever
        generated code would. Where it transfers control to a block
        with a closure it hands over; where it reaches a region entry
        whose heat has reached the threshold, it tiers that entry up.
        """
        code = compiled[shell.name].code
        starts = regions.starts
        heat = regions.heat
        arms = regions.arms
        frame_size = shell.frame_size

        def stub(r, fp, d):
            block = BT[index]
            if block is not None:
                return block
            if heat[index] >= threshold:
                return MK(index)
            if st[0] > fuel:
                raise VMTrap("fuel exhausted after %d instructions" % st[0])
            pc = starts[index]
            region = index
            n = mark = sent = ct = 0  # IL run, at region entry, flushed
            while True:
                while True:  # up to the next control transfer
                    ins = code[pc]
                    pc += 1
                    n += 1
                    op = ins[0]
                    if op == _OP_BIN:
                        a = ins[3]
                        b = ins[4]
                        r[ins[1]] = ins[2](
                            r[a] if type(a) is int else a[0],
                            r[b] if type(b) is int else b[0],
                        )
                    elif op == _OP_LOAD4:
                        a = ins[2]
                        address = r[a] if type(a) is int else a[0]
                        if address < 16 or address + 4 > len(mem):
                            raise VMTrap(f"load4 from bad address {address}")
                        r[ins[1]] = _UNPACK4(mem, address)[0]
                    elif op == _OP_CJUMP:
                        a = ins[1]
                        ct += 1
                        if r[a] if type(a) is int else a[0]:
                            arms[pc - 1] |= 1
                            if ins[4] is not None:
                                branch_counts[ins[4]][0] += 1
                            pc = ins[2]
                        else:
                            arms[pc - 1] |= 2
                            if ins[4] is not None:
                                branch_counts[ins[4]][1] += 1
                            pc = ins[3]
                        break
                    elif op == _OP_CONST:
                        r[ins[1]] = ins[2]
                    elif op == _OP_MOV:
                        a = ins[2]
                        r[ins[1]] = r[a] if type(a) is int else a[0]
                    elif op == _OP_STORE4:
                        a = ins[1]
                        address = r[a] if type(a) is int else a[0]
                        b = ins[2]
                        value = r[b] if type(b) is int else b[0]
                        if address < 16 or address + 4 > len(mem):
                            raise VMTrap(f"store4 to bad address {address}")
                        _PACK4(mem, address, value & 0xFFFFFFFF)
                    elif op == _OP_LOAD1:
                        a = ins[2]
                        address = r[a] if type(a) is int else a[0]
                        if address < 16 or address >= len(mem):
                            raise VMTrap(f"load1 from bad address {address}")
                        r[ins[1]] = (mem[address] ^ 0x80) - 0x80
                    elif op == _OP_STORE1:
                        a = ins[1]
                        address = r[a] if type(a) is int else a[0]
                        b = ins[2]
                        value = r[b] if type(b) is int else b[0]
                        if address < 16 or address >= len(mem):
                            raise VMTrap(f"store1 to bad address {address}")
                        mem[address] = value & 0xFF
                    elif op == _OP_FRAME:
                        r[ins[1]] = fp + ins[2]
                    elif op == _OP_JUMP:
                        ct += 1
                        pc = ins[1]
                        break
                    elif op == _OP_UN:
                        a = ins[3]
                        r[ins[1]] = ins[2](r[a] if type(a) is int else a[0])
                    else:
                        # A call, return or switch: flush the counts.
                        st[0] += n - sent
                        st[4] += n - sent
                        sent = n
                        st[1] += ct
                        ct = 0
                        heat[region] += n - mark
                        mark = n
                        if op == _OP_CALLB:
                            name = ins[5]
                            if ins[2] is None:
                                raise VMTrap(
                                    f"call to unavailable external {name!r}"
                                )
                            st[2] += 1
                            site = ins[4]
                            site_counts[site] = site_counts.get(site, 0) + 1
                            func_counts[name] = func_counts.get(name, 0) + 1
                            result = ins[2](machine, *[
                                r[a] if type(a) is int else a[0]
                                for a in ins[3]
                            ])
                            st[3] += 1
                            if ins[1] >= 0:
                                r[ins[1]] = 0 if result is None else result
                            continue
                        if op == _OP_RET:
                            a = ins[1]
                            if a is None:
                                return (0,)
                            return (r[a] if type(a) is int else a[0],)
                        if op == _OP_SWITCH:
                            a = ins[1]
                            st[1] += 1
                            pc = ins[2].get(
                                r[a] if type(a) is int else a[0], ins[3]
                            )
                            break
                        dst = ins[1]
                        fp2 = fp + frame_size
                        if op == _OP_ICALL:
                            a = ins[2]
                            t = icall(
                                r[a] if type(a) is int else a[0],
                                [r[x] if type(x) is int else x[0]
                                 for x in ins[3]],
                                ins[4], fp2, d,
                            )
                        else:  # _OP_CALLU
                            name = ins[2]
                            callee = shells[name]
                            st[2] += 1
                            site = ins[4]
                            site_counts[site] = site_counts.get(site, 0) + 1
                            func_counts[name] = func_counts.get(name, 0) + 1
                            nr = [0] * callee.nregs
                            for k, a in enumerate(ins[3]):
                                nr[k] = r[a] if type(a) is int else a[0]
                            t = enter(callee, nr, fp2, d)
                        if len(t) != 1:
                            return (t[0], t[1], dst, continuation(pc), fp2)
                        if dst >= 0:
                            r[dst] = t[0]
                        break
                # Control moved to the block at ``pc``.
                block = gate[pc]
                if block is None:
                    continue
                if block.__class__ is int:  # a region entry
                    heat[region] += n - mark
                    mark = n
                    region = block
                    if heat[block] < threshold:
                        if st[0] + n - sent > fuel:
                            raise VMTrap(
                                "fuel exhausted after %d instructions"
                                % (st[0] + n - sent)
                            )
                        continue
                    block = MK(block)
                heat[region] += n - mark
                st[0] += n - sent
                st[4] += n - sent
                st[1] += ct
                return block

        def continuation(pc):
            """The callable resuming a deep call at ``pc``."""
            k = bisect.bisect_left(starts, pc)
            return BT[k] or MK(k)

        return stub

    def drive(request, regs, fp, d):
        """Explicit-stack trampoline for calls past `_DEPTH_LIMIT`.

        ``request`` is the call tuple a closure running frame
        ``(regs, fp)`` at IL depth ``d`` returned instead of recursing.
        Executes that call and everything after it in the issuing frame
        until the frame itself returns; its return tuple flows back to
        the Python-recursive call site that entered the trampoline.
        """
        stack: list[tuple] = []
        while True:
            if request.__class__ is tuple:
                if len(request) == 1:
                    if not stack:
                        return request
                    st[3] += 1
                    value = request[0]
                    regs, fp, dst, block, d = stack.pop()
                    if dst >= 0:
                        regs[dst] = value
                else:
                    callee, new_regs, dst, cont, fp2 = request
                    stack.append((regs, fp, dst, cont, d))
                    regs = new_regs
                    fp = fp2
                    d += 1
                    if fp + callee.frame_size > stack_limit:
                        raise VMTrap(
                            f"control stack overflow calling {callee.name}"
                            f" (depth {d})"
                        )
                    block = callee.entry
                    if block is None:
                        block = materialize(callee)
            else:
                block = request
            request = block(regs, fp, d)

    def icall(pointer, values, site, fp2, d):
        """Indirect-call resolution (the reference's _OP_ICALL arm).

        Returns a 1-tuple holding the produced value, or — for a user
        call past the depth limit — ``(callee, registers)``, from which
        the calling closure builds the trampoline request.
        """
        if pointer >= 0:
            raise VMTrap(f"indirect call through bad pointer {pointer}")
        index = -1 - pointer
        if index >= len(function_table):
            raise VMTrap(f"indirect call through bad pointer {pointer}")
        kind, name = function_table[index]
        st[2] += 1
        site_counts[site] = site_counts.get(site, 0) + 1
        func_counts[name] = func_counts.get(name, 0) + 1
        if kind == "b":
            entry = BUILTINS.get(name)
            if entry is None:
                raise VMTrap(f"indirect call to unavailable {name!r}")
            result = entry[1](machine, *values)
            st[3] += 1
            return (result if result is not None else 0,)
        callee = shells[name]
        if len(values) != callee.nparams:
            raise VMTrap(
                f"indirect call to {name} with {len(values)} args,"
                f" expected {callee.nparams}"
            )
        new_regs = [0] * callee.nregs
        new_regs[: len(values)] = values
        return enter(callee, new_regs, fp2, d)

    def enter(callee, regs, fp2, d):
        """Call user function ``callee`` from IL depth ``d`` on register
        file ``regs`` and frame ``fp2``, the call already counted.

        Returns a 1-tuple holding its return value, with the return
        counted, or, past `_DEPTH_LIMIT`, ``(callee, regs)``, from which
        the calling block builds the trampoline request.
        """
        if d >= _DEPTH_LIMIT:
            return (callee, regs)
        if fp2 + callee.frame_size > stack_limit:
            raise VMTrap(
                f"control stack overflow calling {callee.name}"
                f" (depth {d + 1})"
            )
        result = (callee.entry or materialize(callee))(regs, fp2, d + 1)
        while result.__class__ is not tuple:
            result = result(regs, fp2, d + 1)
        if len(result) != 1:
            result = drive(result, regs, fp2, d + 1)
        st[3] += 1
        return result

    environment = {
        "st": st,
        "mem": mem,
        "fuel": fuel,
        "site_counts": site_counts,
        "func_counts": func_counts,
        "branch_counts": counters.branch_counts,
        "M": machine,
        "icall": icall,
        "drive": drive,
        "MAT": materialize,
        "stack_limit": stack_limit,
        "builtins": BUILTINS,
        "U4": _UNPACK4,
        "P4": _PACK4,
        "c_div": _c_div,
        "c_mod": _c_mod,
        "VMTrap": VMTrap,
        "FNS": shells,
    }
    env = tuple(environment[name] for name in _ENV)

    # Pre-seed every static branch key so factories can bind the
    # [taken, not-taken] pair once at instantiation instead of paying
    # a dict probe per executed branch. Keys a run never touches are
    # pruned on exit — the reference interpreter only creates entries
    # for executed branches.
    branch_counts = counters.branch_counts
    if machine._collect_branches:
        for function in compiled.values():
            for ins in function.code:
                if ins[0] == _OP_CJUMP and ins[4] is not None:
                    branch_counts.setdefault(ins[4], [0, 0])

    entry = shells[entry_compiled.name]
    regs = [0] * entry.nregs
    regs[: len(args)] = args
    fp = machine._sp
    sp = fp + entry.frame_size
    if sp > stack_limit:
        raise VMTrap("control stack overflow at entry")
    func_counts[entry.name] = func_counts.get(entry.name, 0) + 1
    block = materialize(entry)

    try:
        result = block(regs, fp, 0)
        while result.__class__ is not tuple:
            result = result(regs, fp, 0)
        if len(result) != 1:  # pragma: no cover - needs _DEPTH_LIMIT == 0
            result = drive(result, regs, fp, 0)
        # The entry frame's return has no matching call instruction, so
        # it is not a counted dynamic return.
        return result[0]
    finally:
        counters.il += st[0]
        counters.ct += st[1]
        counters.calls += st[2]
        counters.returns += st[3]
        if metrics is not None:
            metrics.inc("vm.tier0.instructions", st[4])
        # Closures, stubs and shells refer to one another and to the
        # machine's memory. Breaking those cycles here frees the memory
        # with the machine instead of at the next full collection.
        for table in tables:
            table.clear()
        shells.clear()
        env = None
        if machine._collect_branches:
            for key in [k for k, v in branch_counts.items() if v == [0, 0]]:
                del branch_counts[key]
