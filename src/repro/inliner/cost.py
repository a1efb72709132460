"""The cost function of §2.3.3.

::

    cost(G, arc Ai) =
        if (callee is recursive) and (control_stack_usage(Ai) > BOUND):
            INFINITY
        elif weight(Ai) < T:
            INFINITY
        elif code_size(callee) + code_size(program) > limit:
            INFINITY
        else:
            code_size(callee)   # benefit term dropped: call costs are
                                # roughly equal for all sites

The model tracks *current* sizes and frame usage: both are re-evaluated
as expansions are accepted, per §3.4 ("the code size of each function
body must be re-evaluated as new function calls are considered") and §5.

Size bookkeeping is reconciled against physical expansion exactly:
:meth:`CostModel.splice_delta` computes the same real-instruction delta
:func:`repro.inliner.expand.expand_call_site` produces (parameter-buffer
moves, one jump per ``RET``, and a result move per ``RET`` *only when
the call site consumes a value* — the spliced ``…/return`` label is a
pseudo-instruction and never counts toward code size). Because the
selector accepts arcs in weight order while physical expansion runs in
linear order, :meth:`CostModel.commit` replays the committed set in
linear order, so
``program_size``/``sizes`` always equal what expansion will physically
produce. :class:`~repro.inliner.manager.InlineExpander` asserts this
reconciliation after every run. For the same reason the size clause
charges an arc the growth of replaying the committed set plus that arc,
not its splice alone: an arc whose caller an earlier commit copies
elsewhere grows every copy too, and the cap counts each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.callgraph.graph import Arc, ArcKind, CallGraph
from repro.il.function import CALL_OVERHEAD_BYTES, PARAM_WORD_BYTES
from repro.il.module import ILModule
from repro.inliner.params import InlineParameters
from repro.observability.audit import DecisionReason

INFINITY = float("inf")


@dataclass(frozen=True)
class CostDecision:
    """One cost-function verdict: the cost, why, and what it examined."""

    cost: float
    reason: DecisionReason
    #: Values the reached clauses examined (weight, threshold, sizes,
    #: limits, stack usage) — the audit log's cost inputs.
    inputs: dict


@dataclass
class CostModel:
    """Evaluates arc costs against evolving program state."""

    module: ILModule
    params: InlineParameters
    recursive: set[str]
    #: Current estimated code size per function (IL instructions).
    sizes: dict[str, int] = field(default_factory=dict)
    #: Current estimated frame size per function (bytes).
    frames: dict[str, int] = field(default_factory=dict)
    #: RET count per function. Each RET of an inlined body becomes a
    #: jump plus (for value-consuming call sites) a result move, so it
    #: contributes to the splice size. Inlining *into* a function never
    #: changes its own RET count, so this is a constant per function.
    rets: dict[str, int] = field(default_factory=dict)
    #: Valueless-RET count per function: a callee with one can never be
    #: expanded into a value-consuming call site (RETURN_MISMATCH).
    void_rets: dict[str, int] = field(default_factory=dict)
    #: The linear expansion sequence (§3.3), which :meth:`commit` needs:
    #: commits replay in this order so sizes match physical expansion
    #: exactly even though the selector commits in weight order. A model
    #: that only evaluates costs can do without it.
    sequence: list[str] | None = None
    program_size: int = 0
    original_size: int = 0

    def __post_init__(self) -> None:
        from repro.il.instructions import Opcode

        for name, function in self.module.functions.items():
            self.sizes[name] = function.code_size()
            self.frames[name] = function.layout_frame()
            self.rets[name] = sum(
                1 for instr in function.body if instr.op is Opcode.RET
            )
            self.void_rets[name] = sum(
                1
                for instr in function.body
                if instr.op is Opcode.RET and instr.a is None
            )
        #: Whether each call site's instruction consumes the result —
        #: exactly when expansion emits a result move per callee RET.
        self._site_consumes_value: dict[int, bool] = {}
        for function in self.module.functions.values():
            for instr in function.body:
                if instr.op is Opcode.CALL:
                    self._site_consumes_value[instr.site] = instr.dst is not None
        self.program_size = sum(self.sizes.values())
        self.original_size = self.program_size
        self._initial_sizes = dict(self.sizes)
        self._initial_frames = dict(self.frames)
        #: Arcs accepted so far, in acceptance (weight) order.
        self.committed: list[Arc] = []

    # ------------------------------------------------------------------

    def control_stack_usage(self, arc: Arc) -> int:
        """Control-stack bytes one activation of the callee adds at this
        site (§2.3.2: parameters, saved registers, locals, return value)."""
        callee = self.module.functions[arc.callee]
        return (
            CALL_OVERHEAD_BYTES
            + self.frames[arc.callee]
            + PARAM_WORD_BYTES * len(callee.params)
        )

    def site_consumes_value(self, site: int) -> bool:
        """Whether the call instruction at ``site`` has a destination."""
        return self._site_consumes_value.get(site, False)

    def splice_delta(self, arc: Arc, sizes: dict[str, int] | None = None) -> int:
        """Real-instruction growth :func:`expand_call_site` causes for
        ``arc``, given the callee sizes in ``sizes`` (default: current).

        Mirrors the splice exactly: the caller gains the callee's body
        (each ``RET`` replaced one-for-one by a jump), one
        parameter-buffer move per formal, and one result move per RET
        *only when the call consumes a value*, while the call itself
        disappears. The appended ``…/return`` label is a
        pseudo-instruction and contributes nothing to code size.
        """
        callee = self.module.functions[arc.callee]
        current = (sizes if sizes is not None else self.sizes)[arc.callee]
        result_moves = self.rets[arc.callee] if self.site_consumes_value(arc.site) else 0
        return current + len(callee.params) + result_moves - 1

    def evaluate(self, arc: Arc) -> CostDecision:
        """§2.3.3's cost plus the clause that fired and its inputs."""
        inputs: dict = {"weight": arc.weight}
        if arc.kind is not ArcKind.DIRECT:
            inputs["kind"] = arc.kind.value
            return CostDecision(INFINITY, DecisionReason.NOT_DIRECT, inputs)
        if arc.caller == arc.callee:
            # Simple recursion is out of scope (§2.3): the recursive
            # call must target the original copy anyway.
            return CostDecision(INFINITY, DecisionReason.SELF_RECURSIVE, inputs)
        if self.site_consumes_value(arc.site) and self.void_rets.get(arc.callee, 0):
            # Expansion would leave the call's destination register
            # unwritten on the valueless-return path.
            inputs["callee_void_rets"] = self.void_rets[arc.callee]
            inputs["call_consumes_value"] = True
            return CostDecision(INFINITY, DecisionReason.RETURN_MISMATCH, inputs)
        # Control-stack hazard (§2.3.2): expanding a call with high
        # stack usage *into a recursion* explodes the stack. The paper's
        # m(x)/n(x) example makes the caller's recursion the danger, its
        # cost function names the callee's; guard both.
        stack_usage = self.control_stack_usage(arc)
        inputs["stack_usage"] = stack_usage
        inputs["stack_bound"] = self.params.stack_bound
        inputs["callee_recursive"] = arc.callee in self.recursive
        inputs["caller_recursive"] = arc.caller in self.recursive
        if (
            arc.callee in self.recursive or arc.caller in self.recursive
        ) and stack_usage > self.params.stack_bound:
            return CostDecision(INFINITY, DecisionReason.RECURSIVE_LIMIT, inputs)
        inputs["weight_threshold"] = self.params.weight_threshold
        if arc.weight < self.params.weight_threshold:
            return CostDecision(INFINITY, DecisionReason.BELOW_THRESHOLD, inputs)
        # Every copy of the caller that earlier commits made grows too.
        sizes, _frames = self._replayed(self.committed + [arc])
        added = sum(sizes.values()) - self.program_size
        inputs["callee_size"] = self.sizes[arc.callee]
        inputs["size_delta"] = added
        inputs["program_size"] = self.program_size
        inputs["size_limit"] = self.params.size_limit(self.original_size)
        if self.program_size + added > self.params.size_limit(self.original_size):
            return CostDecision(INFINITY, DecisionReason.SIZE_LIMIT, inputs)
        return CostDecision(
            float(self.sizes[arc.callee]), DecisionReason.ACCEPTED, inputs
        )

    def commit(self, arc: Arc) -> None:
        """Account for an accepted expansion.

        Matches :func:`repro.inliner.expand.expand_call_site` exactly
        (see :meth:`splice_delta`): the whole committed set is replayed
        in the linear ``sequence`` — the order physical expansion uses —
        so nested expansions are sized correctly no matter what order
        the selector accepts them in.
        """
        assert self.sequence is not None
        self.committed.append(arc)
        self.sizes, self.frames = self._replayed(self.committed)
        self.program_size = sum(self.sizes.values())

    def _replayed(self, arcs: list[Arc]) -> tuple[dict[str, int], dict[str, int]]:
        """Sizes and frames after expanding ``arcs`` in linear order.

        Physical expansion finishes every expansion *into* a function
        before that function is copied anywhere (§2.7), so the arcs
        grouped by caller and walked in sequence order reproduce the
        exact post-expansion sizes. A model without a sequence only
        evaluates, so ``arcs`` is the one arc under evaluation.
        """
        sizes = dict(self._initial_sizes)
        frames = dict(self._initial_frames)
        by_caller: dict[str, list[Arc]] = {}
        for arc in arcs:
            by_caller.setdefault(arc.caller, []).append(arc)
        for name in by_caller if self.sequence is None else self.sequence:
            for arc in by_caller.get(name, ()):
                sizes[arc.caller] += self.splice_delta(arc, sizes)
                frames[arc.caller] += frames[arc.callee]
        return sizes, frames


def make_cost_model(
    module: ILModule,
    graph: CallGraph,
    params: InlineParameters,
    sequence: list[str] | None = None,
) -> CostModel:
    from repro.callgraph.cycles import recursive_functions

    return CostModel(
        module, params, recursive_functions(graph), sequence=sequence
    )
