"""Tests for the differential-correctness harness.

Covers the three reconciliation bug fixes (cost-model vs. physical
expansion accounting, the void-return-into-value-call hazard, the
callee-unavailable audit distinction), the hardened IL verifier, the
differential oracle, and a seeded fuzz corpus replay.
"""

from __future__ import annotations

import copy
import hashlib
import random
import re

import pytest

from repro.callgraph.build import build_call_graph
from repro.callgraph.graph import CallGraph
from repro.compiler import compile_program
from repro.errors import ILError, InlineError
from repro.il.function import ILFunction
from repro.il.instructions import Instr, Opcode
from repro.il.module import ILModule
from repro.il.verifier import (
    verify_function,
    verify_function_local,
    verify_module,
)
from repro.inliner.cost import INFINITY, make_cost_model
from repro.inliner.expand import expand_call_site
from repro.inliner.linearize import linearize
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.inliner.select import select_sites
from repro.observability.audit import DecisionReason
from repro.opt import optimize_module
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import RunSpec, profile_module, run_once
from repro.verify import (
    generate_program,
    run_fuzz,
    verify_benchmark,
    verify_inlining,
    verify_suite,
)
from repro.vm.machine import Machine
from repro.workloads.suite import benchmark_by_name, benchmark_suite

LOW_THRESHOLD = InlineParameters(weight_threshold=4.0, size_limit_factor=3.0)

#: main -> outer is the heavier arc (committed first by the selector)
#: but outer -> inner expands first in linear order — the shape where
#: incremental weight-order accounting drifts from physical expansion.
NESTED = """
#include <sys.h>
int inner(int x) { return x * 2 + 1; }
int outer(int x) {
    int r = x;
    if (x % 2 == 0)
        r = r + inner(x);
    return r + 1;
}
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 30; i++)
        s += outer(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""

VOID_HOT = """
#include <sys.h>
int total = 0;
void bump(int x) { total = total + x; }
int main(void) {
    int i;
    for (i = 0; i < 40; i++)
        bump(i);
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


def inlined(source, params=LOW_THRESHOLD):
    module = compile_program(source)
    profile = profile_module(module, [RunSpec()], check_exit=False)
    return inline_module(module, profile, params)


def void_ret_into_value_call_module():
    """Hand-built IL: a valueless return inlined into t0 = v()."""
    module = ILModule("main")
    callee = ILFunction("v", [], False)
    callee.body.append(Instr(Opcode.RET))
    module.add_function(callee)
    main = ILFunction("main", [], True)
    main.body.append(Instr(Opcode.CALL, dst="t0", name="v", args=[], site=1))
    main.body.append(Instr(Opcode.RET, a="t0"))
    module.add_function(main)
    return module


class TestSizeReconciliation:
    """Satellite 1: committed deltas match physical expansion exactly."""

    def test_nested_weight_skewed_program_reconciles(self):
        result = inlined(NESTED)
        # Both arcs clear the threshold, so this really is the nested
        # case: inner is inside outer's body when outer splices into main.
        assert len(result.records) == 2
        assert result.selection.projected_size == result.pre_cleanup_size

    def test_void_callee_reconciles(self):
        result = inlined(VOID_HOT)
        assert result.records, "hot void call should be expanded"
        assert result.selection.projected_size == result.pre_cleanup_size

    def test_whole_suite_benchmark_reconciles(self):
        benchmark = benchmark_by_name("cmp")
        module = benchmark.compile()
        profile = profile_module(module, benchmark.make_runs("small"))
        result = inline_module(module, profile)
        assert result.selection.projected_size == result.pre_cleanup_size

    def test_record_delta_matches_measured_size(self):
        module = compile_program(NESTED)
        before = module.total_code_size()
        graph = build_call_graph(
            module, profile_module(module, [RunSpec()], check_exit=False)
        )
        [arc] = graph.arcs_between("outer", "inner")
        record = expand_call_site(module, "outer", arc.site)
        assert module.total_code_size() - before == record.added_instructions

    def test_void_record_delta_matches_measured_size(self):
        # The old formula charged one result move per callee RET even
        # when the call discards the result; the record must not.
        module = compile_program(VOID_HOT)
        graph = build_call_graph(
            module, profile_module(module, [RunSpec()], check_exit=False)
        )
        [arc] = graph.arcs_between("main", "bump")
        before = module.total_code_size()
        record = expand_call_site(module, "main", arc.site)
        assert module.total_code_size() - before == record.added_instructions


class TestVoidReturnGuard:
    """Satellite 2: valueless RET into a value-consuming call."""

    def test_expand_refuses_void_ret_into_value_call(self):
        module = void_ret_into_value_call_module()
        with pytest.raises(InlineError, match="unwritten"):
            expand_call_site(module, "main", 1)

    def test_guard_fires_before_any_mutation(self):
        module = void_ret_into_value_call_module()
        main = module.functions["main"]
        body_len = len(main.body)
        with pytest.raises(InlineError):
            expand_call_site(module, "main", 1)
        assert len(main.body) == body_len
        assert not main.slots

    def test_cost_model_rejects_return_mismatch(self):
        module = void_ret_into_value_call_module()
        graph = CallGraph()
        graph.add_node("main", 1.0)
        graph.add_node("v", 100.0)
        arc = graph.add_arc(1, "main", "v", weight=100.0)
        model = make_cost_model(module, graph, InlineParameters())
        decision = model.evaluate(arc)
        assert decision.cost == INFINITY
        assert decision.reason is DecisionReason.RETURN_MISMATCH

    def test_selector_never_selects_mismatched_site(self):
        module = void_ret_into_value_call_module()
        graph = CallGraph()
        graph.add_node("main", 1.0)
        graph.add_node("v", 100.0)
        graph.add_arc(1, "main", "v", weight=100.0)
        selection = select_sites(module, graph, None, ["v", "main"])
        assert not selection.selected
        [decision] = [
            d for d in selection.decisions
            if d.reason is DecisionReason.RETURN_MISMATCH
        ]
        assert decision.site == 1

    def test_verifier_catches_unwritten_destination(self):
        # The pattern a buggy expansion would have produced: the call's
        # destination register is read but no spliced return wrote it.
        module = ILModule("main")
        main = ILFunction("main", [], True)
        main.body.append(Instr(Opcode.JUMP, label="v@1/return"))
        main.body.append(Instr(Opcode.LABEL, label="v@1/return"))
        main.body.append(Instr(Opcode.RET, a="t0"))
        module.add_function(main)
        with pytest.raises(ILError, match="read before written"):
            verify_module(module)


class TestCalleeUnavailable:
    """Satellite 3: no-body / no-position arcs are not order violations."""

    def _graph(self):
        module = compile_program(NESTED)
        profile = profile_module(module, [RunSpec()], check_exit=False)
        return module, profile, build_call_graph(module, profile)

    def test_missing_sequence_position_is_unavailable(self):
        module, profile, graph = self._graph()
        sequence = [name for name in linearize(module, profile) if name != "inner"]
        selection = select_sites(module, graph, profile, sequence)
        [arc] = graph.arcs_between("outer", "inner")
        [decision] = [d for d in selection.decisions if d.site == arc.site]
        assert decision.reason is DecisionReason.CALLEE_UNAVAILABLE
        assert decision.inputs["callee_defined"] is True

    def test_undefined_callee_is_unavailable(self):
        module = void_ret_into_value_call_module()
        del module.functions["v"]
        module.externals.add("v")
        graph = CallGraph()
        graph.add_node("main", 1.0)
        graph.add_node("v", 100.0)
        graph.add_arc(1, "main", "v", weight=100.0)
        selection = select_sites(module, graph, None, ["v", "main"])
        [decision] = selection.decisions
        assert decision.reason is DecisionReason.CALLEE_UNAVAILABLE
        assert decision.inputs["callee_defined"] is False

    def test_true_order_violation_still_reported(self):
        module, profile, graph = self._graph()
        selection = select_sites(
            module, graph, profile, ["main", "outer", "inner"]
        )
        [arc] = graph.arcs_between("main", "outer")
        [decision] = [d for d in selection.decisions if d.site == arc.site]
        assert decision.reason is DecisionReason.ORDER_VIOLATION


class TestHardenedVerifier:
    def _function(self, body, params=(), returns=True, name="f"):
        fn = ILFunction(name, list(params), returns)
        fn.body.extend(body)
        module = ILModule("main")
        module.add_function(fn)
        main = ILFunction("main", [], True)
        main.body.append(Instr(Opcode.RET, a=0))
        if name != "main":
            module.add_function(main)
        return module, fn

    def test_never_written_register_rejected(self):
        module, fn = self._function([Instr(Opcode.RET, a="ghost")])
        with pytest.raises(ILError, match="read before written"):
            verify_function(module, fn)

    def test_straight_line_read_before_later_write_rejected(self):
        module, fn = self._function(
            [
                Instr(Opcode.MOV, dst="a", a="b"),
                Instr(Opcode.CONST, dst="b", a=1),
                Instr(Opcode.RET, a="a"),
            ]
        )
        with pytest.raises(ILError, match="read before written"):
            verify_function(module, fn)

    def test_conditionally_initialized_register_accepted(self):
        # Written on one branch only: defined behavior (the VM
        # zero-initializes), so the verifier must not flag it.
        module, fn = self._function(
            [
                Instr(Opcode.CONST, dst="c", a=1),
                Instr(Opcode.CJUMP, a="c", label="then", label2="join"),
                Instr(Opcode.LABEL, label="then"),
                Instr(Opcode.CONST, dst="x", a=5),
                Instr(Opcode.JUMP, label="join"),
                Instr(Opcode.LABEL, label="join"),
                Instr(Opcode.RET, a="x"),
            ]
        )
        verify_function(module, fn)

    def test_unwritten_on_every_path_rejected(self):
        module, fn = self._function(
            [
                Instr(Opcode.CONST, dst="c", a=1),
                Instr(Opcode.CJUMP, a="c", label="then", label2="join"),
                Instr(Opcode.LABEL, label="then"),
                Instr(Opcode.JUMP, label="join"),
                Instr(Opcode.LABEL, label="join"),
                Instr(Opcode.RET, a="x"),
            ]
        )
        with pytest.raises(ILError, match="read before written"):
            verify_function(module, fn)

    def test_loop_carried_register_accepted(self):
        # x is written inside the loop and read at the top of the next
        # iteration: the back-edge makes it only *maybe* unassigned.
        module, fn = self._function(
            [
                Instr(Opcode.CONST, dst="i", a=0),
                Instr(Opcode.LABEL, label="head"),
                Instr(Opcode.CJUMP, a="i", label="body", label2="exit"),
                Instr(Opcode.LABEL, label="body"),
                Instr(Opcode.BIN, dst="x", op2="+", a="i", b=1),
                Instr(Opcode.MOV, dst="i", a="x"),
                Instr(Opcode.JUMP, label="head"),
                Instr(Opcode.LABEL, label="exit"),
                Instr(Opcode.RET, a="i"),
            ]
        )
        verify_function(module, fn)

    def test_valueless_return_in_value_function_rejected(self):
        module, fn = self._function([Instr(Opcode.RET)], returns=True)
        with pytest.raises(ILError, match="valueless return"):
            verify_function(module, fn)

    def test_valued_return_in_void_function_rejected(self):
        module, fn = self._function([Instr(Opcode.RET, a=3)], returns=False)
        with pytest.raises(ILError, match="void function"):
            verify_function(module, fn)

    def test_duplicate_label_rejected(self):
        module, fn = self._function(
            [
                Instr(Opcode.LABEL, label="L"),
                Instr(Opcode.LABEL, label="L"),
                Instr(Opcode.RET, a=0),
            ]
        )
        with pytest.raises(ILError, match="duplicate label"):
            verify_function(module, fn)

    def test_unlaid_out_frame_slot_rejected(self):
        module, fn = self._function([Instr(Opcode.RET, a=0)])
        fn.add_slot("buf", 8)  # offset stays -1: layout_frame never ran
        with pytest.raises(ILError, match="no offset"):
            verify_function(module, fn)

    def test_overlapping_frame_slots_rejected(self):
        module, fn = self._function([Instr(Opcode.RET, a=0)])
        first = fn.add_slot("a", 8)
        second = fn.add_slot("b", 4)
        fn.frame_size = 12
        first.offset = 0
        second.offset = 4  # inside [0, 8)
        with pytest.raises(ILError, match="overlaps"):
            verify_function(module, fn)

    def test_slots_past_frame_size_rejected(self):
        module, fn = self._function([Instr(Opcode.RET, a=0)])
        slot = fn.add_slot("a", 8)
        slot.offset = 0
        fn.frame_size = 4
        with pytest.raises(ILError, match="frame_size"):
            verify_function(module, fn)

    def test_frontend_output_passes(self):
        verify_module(compile_program(NESTED))

    def test_post_inline_output_passes(self):
        verify_module(inlined(NESTED).module)


#: One sha256 over the outcome of every mutation in the verdict corpus,
#: recorded when the def-before-use dataflow ran over sets of register
#: names: for a function mutation, what ``verify_function_local`` and
#: ``verify_function`` say; for a module mutation, what
#: ``verify_module`` says ("ok", or the ``ILError`` message).
VERDICT_DIGEST = "03c551535b352233fcd4db4c15e75cb1d66a0b2e845ff3e554a03af8770c67ce"

#: Every message the verifier raises, one pattern each.
VERIFIER_MESSAGES = (
    r"duplicate label '[^']*' in .+",
    r".+: jump to unknown label '[^']*'",
    r".+: valueless return in a value-returning function",
    r".+: value returned from a void function",
    r".+: frame slot '[^']*' has size -?\d+",
    r".+: frame slot '[^']*' has no offset \(layout_frame never ran\)",
    r".+: frame slot '[^']*' at offset \d+ violates alignment \d+",
    r".+: frame slot '[^']*' at offset \d+ overlaps the previous slot"
    r" \(ends at \d+\)",
    r".+: frame slots end at \d+ but frame_size is -?\d+",
    r".+: register '[^']*' read before written \(never assigned anywhere\)",
    r".+: register '[^']*' read before written",
    r".+: function may fall off the end",
    r".+: FRAME references unknown slot '[^']*'",
    r".+: GADDR references unknown global '[^']*'",
    r".+: FADDR references unknown function '[^']*'",
    r".+: call to unknown function '[^']*'",
    r".+: call to \S+ with \d+ args, expected \d+",
    r".+: call without a site id",
    r".+: indirect call without a site id",
    r"duplicate call-site id -?\d+ \(in .+\)",
    r"entry function '[^']*' is not defined",
    r"address-taken function '[^']*' does not exist",
)

#: The mutation kinds, applied in turn; the last four change what only
#: ``verify_module`` checks.
MUTATIONS = (
    "delete", "duplicate", "swap", "dst", "source", "label", "label2",
    "ret", "arg", "callee", "global", "slot", "faddr", "frame",
    "call_site", "icall_site", "entry", "address_taken",
)


def _applies(kind: str, instr: Instr) -> bool:
    """Whether mutation ``kind`` can change ``instr``."""
    op = instr.op
    if kind in ("delete", "duplicate", "swap"):
        return True
    if kind == "dst":
        return instr.dst is not None
    if kind == "source":
        return bool(instr.source_regs())
    if kind == "label":
        return bool(instr.labels_used())
    if kind == "label2":
        return op is Opcode.CJUMP and instr.label2 is not None
    if kind == "arg":
        return op in (Opcode.CALL, Opcode.ICALL) and bool(instr.args)
    return op is {
        "ret": Opcode.RET,
        "callee": Opcode.CALL,
        "global": Opcode.GADDR,
        "slot": Opcode.FRAME,
        "faddr": Opcode.FADDR,
        "call_site": Opcode.CALL,
        "icall_site": Opcode.ICALL,
    }.get(kind)


def _candidates(modules: list[ILModule]) -> dict[str, list[tuple]]:
    """Per kind, every (module index, function name, instruction index)
    it can change; the index is ``None`` for a whole-function or
    whole-module kind."""
    found: dict[str, list[tuple]] = {kind: [] for kind in MUTATIONS}
    for m, module in enumerate(modules):
        found["entry"].append((m, None, None))
        found["address_taken"].append((m, None, None))
        for function in module.functions.values():
            if function.slots:
                found["frame"].append((m, function.name, None))
            for index, instr in enumerate(function.body):
                for kind in MUTATIONS:
                    if _applies(kind, instr):
                        found[kind].append((m, function.name, index))
    return found


def _mutate(rng: random.Random, kind: str, module: ILModule, function, index):
    """Apply one ``kind`` mutation to a view of ``module``.

    Returns the view and the mutated clone of ``function`` (``None``
    for a mutation of the module itself). ``module`` is left as it was.
    """
    view = copy.copy(module)
    view.functions = dict(module.functions)
    view.address_taken = set(module.address_taken)
    if kind == "entry":
        del view.functions[view.entry]
        return view, None
    if kind == "address_taken":
        view.address_taken.add(
            rng.choice(["no_such_fn", rng.choice(sorted(module.functions))])
        )
        return view, None
    clone = function.clone()
    view.functions[clone.name] = clone
    body = clone.body
    instr = body[index] if index is not None else None
    registers = sorted(
        set(clone.params) | {i.dst for i in body if i.dst is not None}
    ) or ["ghost"]
    if kind == "delete":
        del body[index]
    elif kind == "duplicate":
        body.insert(index + 1, instr.copy())
    elif kind == "swap":
        other = rng.randrange(len(body))
        body[index], body[other] = body[other], body[index]
    elif kind == "dst":
        instr.dst = rng.choice(["ghost", rng.choice(registers)])
    elif kind == "source":
        fields = [f for f in ("a", "b") if isinstance(getattr(instr, f), str)]
        fields += [k for k, arg in enumerate(instr.args) if isinstance(arg, str)]
        field = rng.choice(fields)
        new = rng.choice(["ghost", rng.choice(registers)])
        if isinstance(field, int):
            instr.args[field] = new
        else:
            setattr(instr, field, new)
    elif kind == "label":
        fields = [f for f in ("label", "label2") if getattr(instr, f) is not None]
        setattr(instr, rng.choice(fields), "no_such_label")
    elif kind == "label2":
        instr.label2 = None
    elif kind == "ret":
        instr.a = rng.choice([0, rng.choice(registers)]) if instr.a is None else None
    elif kind == "arg":
        del instr.args[rng.randrange(len(instr.args))]
    elif kind == "callee":
        instr.name = rng.choice(
            ["no_such_fn", rng.choice(sorted(module.functions)),
             rng.choice(sorted(module.externals))]
        )
    elif kind == "global":
        instr.name = rng.choice(["no_such_global", rng.choice(sorted(module.globals))])
    elif kind == "slot":
        instr.name = rng.choice(["no_such_slot", rng.choice(sorted(clone.slots))])
    elif kind == "faddr":
        instr.name = rng.choice(["no_such_fn", rng.choice(sorted(module.functions))])
    elif kind == "frame":
        slots = list(clone.slots.values())
        slot = rng.choice(slots)
        change = rng.randrange(6)
        if change == 0:
            slot.size = rng.choice([0, -4])
        elif change == 1:
            slot.offset = -1
        elif change == 2:
            slot.offset += rng.choice([1, 2, 4])
        elif change == 3:
            slot.align, slot.offset = 4, slot.offset + 2
        elif change == 4:
            slot.offset = rng.choice(slots).offset
        else:
            clone.frame_size -= rng.choice([1, 4, clone.frame_size])
    elif kind in ("call_site", "icall_site"):
        sites = sorted(i.site for _, i in module.call_sites())
        instr.site = rng.choice([-1, rng.choice(sites)])
        return view, None
    return view, clone


def _outcome(check, *args) -> str:
    try:
        check(*args)
    except ILError as error:
        return str(error)
    return "ok"


@pytest.fixture(scope="module")
def verdict_inputs() -> list[ILModule]:
    """The twelve programs lowered and pre-optimized, then wc, cmp and
    tee inlined over their small-scale profiles."""
    modules = []
    for benchmark in benchmark_suite():
        lowered = benchmark.compile()
        optimized = lowered.clone()
        optimize_module(optimized, pass_spec=DEFAULT_OPT_SPEC)
        modules += [lowered, optimized]
    for name in ("wc", "cmp", "tee"):
        benchmark = benchmark_by_name(name)
        module = benchmark.compile(pass_spec=DEFAULT_OPT_SPEC)
        profile = profile_module(module, benchmark.make_runs("small"))
        modules.append(inline_module(module, profile).module)
    return modules


class TestVerdictCorpus:
    """Seeded single mutations of real IL: every verdict and message
    the verifier gives them is pinned."""

    COUNT = 2160

    def test_verdicts_are_pinned(self, verdict_inputs):
        rng = random.Random(20261018)
        candidates = _candidates(verdict_inputs)
        digest = hashlib.sha256()
        messages = []
        for number in range(self.COUNT):
            kind = MUTATIONS[number % len(MUTATIONS)]
            m, name, index = rng.choice(candidates[kind])
            module = verdict_inputs[m]
            function = module.functions.get(name)
            view, clone = _mutate(rng, kind, module, function, index)
            if clone is None:
                outcomes = [_outcome(verify_module, view)]
            else:
                outcomes = [
                    _outcome(verify_function_local, clone),
                    _outcome(verify_function, view, clone),
                ]
            for outcome in outcomes:
                digest.update(f"{number} {kind}: {outcome}\n".encode())
                if outcome != "ok":
                    messages.append(outcome)
        matched = set()
        for message in messages:
            kinds = [p for p in VERIFIER_MESSAGES if re.fullmatch(p, message)]
            assert len(kinds) == 1, message
            matched.update(kinds)
        assert [p for p in VERIFIER_MESSAGES if p not in matched] == []
        assert digest.hexdigest() == VERDICT_DIGEST


class TestDifferentialOracle:
    def test_benchmark_oracle_passes(self):
        report = verify_benchmark(benchmark_by_name("cmp"))
        assert report.ok, report.summary()
        assert report.expansions > 0
        assert report.eliminated_floor > 0
        assert report.calls_eliminated >= report.eliminated_floor
        assert report.projected_size == report.measured_size

    def test_oracle_reports_broken_calls_floor(self):
        # Select under a profile measured on a long input, then verify
        # on a short one: the floor (from the selecting profile) exceeds
        # what the short input can eliminate, so the invariant must
        # report — without any behavioral divergence.
        source = """
        #include <sys.h>
        int total = 0;
        void bump(int x) { total = total + x; }
        int main(void) {
            int c = getchar();
            while (c != EOF) { bump(c); c = getchar(); }
            print_int(total);
            putchar('\\n');
            return 0;
        }
        """
        module = compile_program(source)
        selecting = profile_module(module, [RunSpec(stdin=b"x" * 200)])
        report = verify_inlining(
            module,
            [RunSpec(stdin=b"hi")],
            LOW_THRESHOLD,
            profile=selecting,
        )
        assert not report.divergences
        assert report.invariant_failures
        assert report.eliminated_floor > report.calls_eliminated

    def test_self_profiled_oracle_runs_each_module_once(self, monkeypatch):
        module = compile_program(NESTED)
        specs = [RunSpec(), RunSpec(stdin=b"x")]
        supplied = verify_inlining(
            module, specs, LOW_THRESHOLD, profile=profile_module(module, specs)
        )
        runs = []
        original_run = Machine.run

        def counting_run(self):
            runs.append(self)
            return original_run(self)

        monkeypatch.setattr(Machine, "run", counting_run)
        report = verify_inlining(module, specs, LOW_THRESHOLD)
        assert len(runs) == 2 * len(specs)
        assert report.calls_before == supplied.calls_before
        assert report.summary() == supplied.summary()

    def test_planted_divergence_reported_alike(self, monkeypatch):
        # Swap the inliner's output for a program printing something
        # else: the self-profiled oracle must report exactly what the
        # oracle running both modules on every input reports.
        module = compile_program(NESTED)
        wrong = compile_program(NESTED.replace("s += outer(i);", "s += i;"))
        specs = [RunSpec(label="probe")]

        def planted(*args, **kwargs):
            result = inline_module(*args, **kwargs)
            result.module = wrong
            return result

        monkeypatch.setattr("repro.verify.differential.inline_module", planted)
        supplied = verify_inlining(
            module, specs, LOW_THRESHOLD, profile=profile_module(module, specs)
        )
        report = verify_inlining(module, specs, LOW_THRESHOLD)
        assert supplied.divergences
        assert report.divergences == supplied.divergences
        assert report.calls_before == supplied.calls_before

    def test_planted_stderr_divergence_reported(self, monkeypatch):
        # An inlined program that differs from the original only in
        # what it writes to stderr is still a divergence.
        source = (
            "#include <sys.h>\n"
            "int main(void) { eputc('a'); putchar('x'); return 0; }"
        )
        module = compile_program(source)
        wrong = compile_program(source.replace("eputc('a')", "eputc('b')"))
        specs = [RunSpec(label="probe")]

        def planted(*args, **kwargs):
            result = inline_module(*args, **kwargs)
            result.module = wrong
            return result

        monkeypatch.setattr("repro.verify.differential.inline_module", planted)
        supplied = verify_inlining(
            module, specs, LOW_THRESHOLD, profile=profile_module(module, specs)
        )
        report = verify_inlining(module, specs, LOW_THRESHOLD)
        expected = ["probe: stderr differs at byte 0 (lengths 1 vs 1)"]
        assert report.divergences == supplied.divergences == expected
        assert not report.ok

    def test_unknown_benchmark_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            verify_suite(names=["nope"])

    def test_summary_names_program(self):
        report = verify_inlining(
            compile_program(NESTED), [RunSpec()], LOW_THRESHOLD, name="nested"
        )
        assert report.summary().startswith("nested: ok")


class TestFuzz:
    def test_generator_is_deterministic(self):
        assert generate_program(7) == generate_program(7)
        assert generate_program(7) != generate_program(8)

    def test_generated_programs_compile_and_run(self):
        source = generate_program(0)
        module = compile_program(source)
        verify_module(module)

    def test_programs_write_stderr_from_an_inlined_callee(self):
        # A dropped or reordered stderr write can only diverge when the
        # programs write stderr from code the inliner expands.
        module = compile_program(generate_program(2))
        run = run_once(module, RunSpec())
        assert run.os.stderr
        result = inline_module(
            module, profile_module(module, [RunSpec()]), LOW_THRESHOLD
        )
        assert "note" in {record.callee for record in result.records}

    def test_fuzz_corpus_replays_clean(self):
        # The regression corpus: 50 seeded programs through compile →
        # optimize → inline → optimize with differential execution at
        # every stage. Any divergence or broken invariant fails here.
        report = run_fuzz(50, seed=20260806)
        details = "\n".join(
            f"{f.stage}: {f.detail}\n{f.source}" for f in report.failures
        )
        assert report.ok, details
        assert report.expansions > 0
