"""The fast execution tier: engine equivalence and trap parity.

The fast engine's admissibility contract is total observational
equivalence with the reference counting interpreter: identical exit
code, stdout, written files, and the exact same integer counters —
``il``/``ct``/``calls``/``returns`` plus the per-site, per-function,
and per-branch dictionaries — on every successful run, and a trap in
the same situations on aborted runs.
"""

import math
import sys
import threading
from collections import OrderedDict

import pytest

from repro.compiler import compile_program
from repro.errors import ILError, VMTrap
from repro.observability import Observability
from repro.profiler.profile import RunSpec, run_once
from repro.vm import fast
from repro.vm.machine import ENGINES, Machine
from repro.vm.os import VirtualOS
from repro.workloads.suite import benchmark_by_name, benchmark_suite

from helpers import c_main


def _counter_state(counters) -> dict:
    return {
        "il": counters.il,
        "ct": counters.ct,
        "calls": counters.calls,
        "returns": counters.returns,
        "site_counts": dict(counters.site_counts),
        "func_counts": dict(counters.func_counts),
        "branch_counts": dict(counters.branch_counts),
    }


def _run_engine(module, engine, *, stdin=b"", files=None, argv=None, **kwargs):
    os = VirtualOS(stdin=stdin, files=dict(files or {}), argv=list(argv or []))
    kwargs.setdefault("fuel", 50_000_000)
    kwargs.setdefault("collect_branches", True)
    return Machine(module, os, engine=engine, **kwargs).run()


def _assert_same_run(reference, fast, label=None):
    assert fast.exit_code == reference.exit_code, label
    assert bytes(fast.os.stdout) == bytes(reference.os.stdout), label
    assert bytes(fast.os.stderr) == bytes(reference.os.stderr), label
    assert fast.os.written_files == reference.os.written_files, label
    assert _counter_state(fast.counters) == _counter_state(
        reference.counters
    ), label


def assert_engines_agree(source, **run_kwargs):
    module = compile_program(source)
    reference = _run_engine(module, "counting", **run_kwargs)
    _assert_same_run(reference, _run_engine(module, "fast", **run_kwargs))
    return reference


#: The tier-up thresholds the equivalence, trap and link-knob tests run
#: the fast engine at: 0 compiles every block control enters on first
#: entry, 1 compiles a block once tier-0 has run it, and infinity
#: leaves all of it to tier-0.
THRESHOLDS = (0, 1, fast._TIER_UP_IL, math.inf)


class _Thresholds:
    """Iterating yields each of `THRESHOLDS` with the fast tier set to
    it, from an empty process-wide factory cache."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def __iter__(self):
        for threshold in THRESHOLDS:
            self.monkeypatch.setattr(fast, "_TIER_UP_IL", threshold)
            self.monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
            yield threshold


@pytest.fixture
def thresholds(monkeypatch):
    return _Thresholds(monkeypatch)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        module = compile_program(c_main("putchar('x');"))
        with pytest.raises(ILError, match="unknown engine"):
            Machine(module, engine="warp")

    def test_engines_constant_lists_both(self):
        assert ENGINES == ("counting", "fast")

    def test_fast_rejects_icache(self):
        from repro.icache import InstructionCache

        module = compile_program(c_main("putchar('x');"))
        cache = InstructionCache(64, 16, 1)
        with pytest.raises(ILError, match="icache"):
            Machine(module, icache=cache, engine="fast")

    def test_run_once_threads_engine(self):
        module = compile_program(c_main("print_int(6 * 7);"))
        result = run_once(module, RunSpec(), engine="fast")
        assert result.stdout == "42"


class TestEngineEquivalence:
    def test_straight_line_output_and_counters(self, thresholds):
        source = c_main("print_int(strlen(\"abcd\")); putchar(10);")
        for _ in thresholds:
            assert_engines_agree(source)

    def test_loops_and_branch_profile(self, thresholds):
        source = c_main(
            "int i; int odd = 0;"
            " for (i = 0; i < 50; i++) if (i % 2) odd++;"
            " print_int(odd);"
        )
        for _ in thresholds:
            reference = assert_engines_agree(source)
        assert reference.counters.branch_counts  # mode actually profiled

    def test_recursion(self, thresholds):
        source = c_main(
            "print_int(fib(15));",
            prelude="int fib(int n) { if (n < 2) return n;"
            " return fib(n - 1) + fib(n - 2); }",
        )
        for _ in thresholds:
            assert_engines_agree(source)

    def test_deep_recursion_past_python_depth_limit(self, thresholds):
        # 2000 frames exceeds the fast tier's direct-call depth budget
        # (_DEPTH_LIMIT), forcing it through the explicit trampoline;
        # counters must still match the interpreter exactly.
        depth = 2 * fast._DEPTH_LIMIT + 100
        source = c_main(
            f"print_int(down({depth}));",
            prelude="int down(int n) { if (n == 0) return 0;"
            " return down(n - 1) + 1; }",
        )
        for _ in thresholds:
            assert_engines_agree(source)

    def test_function_pointers_and_files(self, thresholds):
        source = c_main(
            'int (*emit)(int c, int fd) = fputc;'
            ' int fd = open("out.txt", O_WRITE);'
            " emit('h', fd); emit('i', fd); close(fd);"
            ' int rd = open("in.txt", O_READ);'
            " print_int(fgetc(rd)); close(rd);"
        )
        for _ in thresholds:
            assert_engines_agree(source, files={"in.txt": b"Z"})

    def test_stdin_and_argv(self, thresholds):
        source = """
        #include <sys.h>
        int main(int argc, char **argv) {
            int c = getchar();
            while (c != EOF) { putchar(c); c = getchar(); }
            print_int(argc);
            print_str(argv[1]);
            return 0;
        }
        """
        for _ in thresholds:
            assert_engines_agree(source, stdin=b"stream", argv=["alpha"])

    def test_exit_mid_program(self, thresholds):
        source = c_main("putchar('a'); exit(7); putchar('b');")
        for _ in thresholds:
            assert_engines_agree(source)

    def test_suite_benchmarks_identical(self, thresholds):
        # Every small input of every suite program, on its original
        # module and on the module the inliner expands from its profile.
        from repro.inliner.manager import inline_module
        from repro.profiler.profile import profile_module

        cases = []
        for benchmark in benchmark_suite():
            module = benchmark.compile()
            specs = benchmark.make_runs("small")
            inlined = inline_module(module, profile_module(module, specs)).module
            for kind, candidate in (("original", module), ("inlined", inlined)):
                for spec in specs:
                    reference = run_once(
                        candidate, spec, collect_branches=True,
                        engine="counting",
                    )
                    label = f"{benchmark.name}/{kind}/{spec.label}"
                    cases.append((label, candidate, spec, reference))
        for threshold in thresholds:
            for label, module, spec, reference in cases:
                fast = run_once(
                    module, spec, collect_branches=True, engine="fast"
                )
                _assert_same_run(reference, fast, f"{label} at {threshold}")

    def test_fuzz_corpus_replays_identically(self, thresholds):
        from repro.verify import replay_fuzz_corpus

        for _ in thresholds:
            reports = replay_fuzz_corpus(8, seed=0)
            assert reports, "corpus generated no runnable programs"
            assert all(report.ok for report in reports), [
                report.summary() for report in reports if not report.ok
            ]

    def test_inlined_modules_agree(self, thresholds):
        # The fast tier must stay sound on post-expansion shapes too
        # (spliced bodies, renamed temporaries, copied call sites).
        from repro.inliner.manager import inline_module
        from repro.inliner.params import InlineParameters
        from repro.profiler.profile import profile_module

        source = c_main(
            "int i; int s = 0;"
            " for (i = 0; i < 40; i++) s += bump(i);"
            " print_int(s);",
            prelude="int bump(int v) { return v + 1; }",
        )
        module = compile_program(source)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(
            module, profile, InlineParameters(weight_threshold=1.0)
        )
        assert result.records, "expected at least one expansion"
        reference = run_once(
            result.module, RunSpec(), collect_branches=True, engine="counting"
        )
        for _ in thresholds:
            fast = run_once(
                result.module, RunSpec(), collect_branches=True, engine="fast"
            )
            assert fast.stdout == reference.stdout
            assert _counter_state(fast.counters) == _counter_state(
                reference.counters
            )

    def test_oracle_reports_a_counters_only_difference(self, monkeypatch):
        # Identical outputs are not enough: a fast tier that miscounts
        # must fail the engine oracle, channel by channel.
        from repro.verify import engines

        original = engines.run_once

        def miscounting(*args, **kwargs):
            result = original(*args, **kwargs)
            if kwargs["engine"] == "fast":
                result.counters.il += 1
                result.counters.func_counts["main"] += 1
            return result

        monkeypatch.setattr(engines, "run_once", miscounting)
        module = compile_program(c_main("print_int(7);"))
        report = engines.diff_engines(module, [RunSpec(label="probe")])
        (divergence,) = report.divergences
        il = report.il
        assert divergence == (
            f"probe (counting vs fast): il {il} != {il + 1};"
            " func_counts differ at main"
        )


class TestFastTrapParity:
    def _both_trap(self, thresholds, source, match, link_libc=True, **kwargs):
        """Both engines trap on ``source``, the fast one at every
        tier-up threshold."""
        module = compile_program(source, link_libc=link_libc)
        with pytest.raises(VMTrap, match=match):
            _run_engine(module, "counting", **kwargs)
        for _ in thresholds:
            with pytest.raises(VMTrap, match=match):
                _run_engine(module, "fast", **kwargs)

    def test_fuel_exhaustion(self, thresholds):
        self._both_trap(
            thresholds, c_main("while (1) ;"), "fuel", fuel=10_000
        )

    def test_control_stack_overflow(self, thresholds):
        # Non-tail recursion with a real frame: the local array keeps
        # the frontend from looping the self-call and makes each frame
        # consume control-stack bytes, so sp actually overflows. The
        # smaller stack overflows at a direct call, below _DEPTH_LIMIT;
        # the larger one just past it, in the trampoline.
        source = c_main(
            "print_int(spin(0));",
            prelude="int spin(int n) { int pad[32]; pad[0] = n;"
            " return spin(n + 1) + pad[0]; }",
        )
        for stack_size in (1 << 15, 1 << 16):
            self._both_trap(
                thresholds, source, "stack overflow", stack_size=stack_size
            )

    def test_icall_arity_mismatch(self, thresholds):
        self._both_trap(
            thresholds,
            """
            #include <sys.h>
            int two(int a, int b) { return a + b; }
            int main(void) {
                int (*p)(int v) = (int (*)(int v))two;
                return p(1);
            }
            """,
            "args",
        )

    def test_icall_bad_pointer(self, thresholds):
        self._both_trap(
            thresholds,
            c_main("int (*p)(int v) = (int (*)(int v))12345; p(1);"),
            "bad pointer",
        )

    def test_unavailable_external(self, thresholds):
        self._both_trap(
            thresholds,
            "int mystery(int x);\nint main(void) { return mystery(1); }",
            "unavailable external",
            link_libc=False,
        )

    def test_out_of_range_store(self, thresholds):
        self._both_trap(
            thresholds,
            c_main("int *p = (int *)99999999; *p = 1;"),
            "bad address",
        )

    def test_heap_exhaustion(self, thresholds):
        self._both_trap(
            thresholds,
            c_main("while (1) malloc(1 << 16);"),
            "out of heap",
            heap_limit=1 << 20,
        )


class TestLinkKnobs:
    def test_stack_size_change_never_runs_stale_code(self, thresholds):
        # Globals are placed after the stack region, so linked code
        # bakes in addresses that move with stack_size. Either order of
        # two fast runs must match the interpreter.
        module = compile_program(
            c_main(
                "int i; int s = 0; for (i = 0; i < a; i++) s += b;"
                " print_int(a); putchar(' '); print_int(b);"
                " putchar(' '); print_int(s);",
                prelude="int a = 17; int b = 10;",
            )
        )
        for threshold in thresholds:
            for sizes in ((1 << 16, 1 << 20), (1 << 18, 1 << 17)):
                for stack_size in sizes:
                    reference = _run_engine(
                        module, "counting", stack_size=stack_size
                    )
                    result = _run_engine(
                        module, "fast", stack_size=stack_size
                    )
                    label = (threshold, stack_size)
                    assert reference.stdout == "17 10 170"
                    assert result.stdout == reference.stdout, label
                    assert _counter_state(result.counters) == _counter_state(
                        reference.counters
                    ), label


@pytest.fixture
def recorded(monkeypatch):
    """(function, block, source) of every closure the fast tier generates
    from here on, starting from an empty process-wide factory cache."""
    sources = []
    generate = fast._ClosureCodegen.generate

    def recording_generate(codegen):
        source = generate(codegen)
        sources.append((codegen.name, codegen.index, source))
        return source

    monkeypatch.setattr(fast._ClosureCodegen, "generate", recording_generate)
    monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
    return sources


@pytest.fixture
def generated(recorded, monkeypatch):
    """`recorded`, with the tier-up threshold pinned to 0: every block
    control enters is compiled on first entry, with no tier-0 and so no
    side exits."""
    monkeypatch.setattr(fast, "_TIER_UP_IL", 0)
    return recorded


def _diamonds(count: int) -> str:
    """``count`` if/else statements in a row: tail duplication doubles
    the code of a loop body per diamond, so it outgrows one closure."""
    return " ".join(
        f"if ((i >> {k % 5}) & 1) a = a * 3 + b; else b = b + a + {k};"
        for k in range(count)
    )


class TestSpillRule:
    """A closure exit spills only the registers live where control
    resumes. Each program sets a value before one kind of exit and reads
    it after control re-enters generated code, and must match the
    interpreter exactly at every threshold. At threshold 0, where every
    block it enters is compiled, its function must leave its entry
    closure."""

    def _agree_across_closures(
        self, recorded, thresholds, source, function="main"
    ):
        for threshold in thresholds:
            recorded.clear()
            assert_engines_agree(source)
            if threshold == 0:
                blocks = {
                    index for name, index, _ in recorded if name == function
                }
                assert len(blocks) > 1, (
                    f"{function} never left its entry closure"
                )

    def test_budget_bounce_out_of_a_branchy_loop(self, recorded, thresholds):
        self._agree_across_closures(
            recorded,
            thresholds,
            c_main(
                "int i; int a = 1; int b = 2; int c = 0; int seen = 0;"
                " for (i = 0; i < 60; i++) {"
                " c = c + seen; seen = a & 255; "
                + _diamonds(10)
                + " a = a & 65535; b = b & 65535; }"
                " print_int(a); putchar(' '); print_int(b);"
                " putchar(' '); print_int(c);"
            ),
        )

    def test_switch_inside_a_loop(self, recorded, thresholds):
        # `v` is live only at case 1 and `w` only at the default: the
        # spill must cover the union of every arm and the default.
        self._agree_across_closures(
            recorded,
            thresholds,
            c_main(
                "int i; int acc = 0; int last = 7; int k = 3; int v; int w;"
                " for (i = 0; i < 40; i++) {"
                " k = (k * 5 + i) & 7; v = acc * 3 + i; w = i + 1;"
                " switch (k) {"
                " case 0: acc = acc + last; last = i; break;"
                " case 1: acc = acc - v; break;"
                " case 2: last = acc & 15; break;"
                " case 5: acc = acc + k * last; break;"
                " default: acc = acc + w; } }"
                " print_int(acc); putchar(' '); print_int(last);"
            ),
        )

    def test_call_past_the_depth_limit(self, recorded, thresholds):
        # `s` is set (in a loop, so the closure has a back-edge) before
        # the recursive call and read in its continuation.
        depth = 2 * fast._DEPTH_LIMIT + 100
        self._agree_across_closures(
            recorded,
            thresholds,
            c_main(
                f"print_int(down({depth}));",
                prelude="int down(int n) { int k = 0; int s = n;"
                " while (k < 3) { s = s * 7 + k; k++; }"
                " if (n == 0) return s & 255;"
                " return (down(n - 1) + s) & 65535; }",
            ),
            function="down",
        )

    def test_indirect_call_past_the_depth_limit(self, recorded, thresholds):
        depth = 2 * fast._DEPTH_LIMIT + 100
        self._agree_across_closures(
            recorded,
            thresholds,
            c_main(
                f"print_int(down({depth}));",
                prelude="int down(int n) { int (*self)(int v) = down;"
                " int s = n * 5 + 3; if (n == 0) return s;"
                " return (self(n - 1) + s) & 65535; }",
            ),
            function="down",
        )

    def test_local_read_before_any_assignment(self, recorded, thresholds):
        # `x` holds its initial 0 on the first iteration and is carried
        # around the loop through budget bounces afterwards.
        self._agree_across_closures(
            recorded,
            thresholds,
            c_main(
                "int i; int x; int a = 5; int b = 9; int s = 0;"
                " for (i = 0; i < 30; i++) { s = s + x; "
                + _diamonds(9)
                + " x = i * 3 + (a & 7); }"
                " print_int(s);"
            ),
        )


class TestTierUp:
    def test_infinity_generates_nothing_and_counts_exactly(
        self, recorded, monkeypatch
    ):
        from repro.verify import diff_engines_benchmark

        monkeypatch.setattr(fast, "_TIER_UP_IL", math.inf)
        obs = Observability.create()
        for name in ("wc", "cmp", "tee"):
            report = diff_engines_benchmark(benchmark_by_name(name), obs=obs)
            assert report.ok, report.summary()
        counters = obs.metrics.counters
        assert not recorded
        assert not [name for name in counters if name.startswith("vm.codegen")]
        assert obs.metrics.histogram("vm.codegen_seconds") is None
        # Only the fast runs count tier-0 IL, and tier-0 ran all of them.
        assert 2 * counters["vm.tier0.instructions"] == counters[
            "vm.instructions_retired"
        ]

    def test_a_second_machine_tiers_up_what_the_first_heated(
        self, recorded, monkeypatch
    ):
        # One run interprets about 700 IL in the loop: under the
        # threshold alone, over it once a second machine adds its own.
        monkeypatch.setattr(fast, "_TIER_UP_IL", 1000)
        loop = "int i; int s = 0; for (i = 0; i < 100; i++) s = s + (i ^ {});"
        source = c_main(loop.format(5) + " print_int(s);")
        assert_engines_agree(source)
        assert not recorded
        assert_engines_agree(source)
        assert [name for name, _, _ in recorded] == ["main"]
        recorded.clear()
        assert_engines_agree(c_main(loop.format(6) + " print_int(s);"))
        assert not recorded

    def test_a_side_exit_is_taken_and_its_target_tiers_up(
        self, recorded, monkeypatch
    ):
        # The loop tiers up while `i < 200` has only gone one way, so
        # its closure leaves the other arm as a side exit. The arm is
        # taken from then on, and its block tiers up in turn.
        monkeypatch.setattr(fast, "_TIER_UP_IL", 100)
        assert_engines_agree(
            c_main(
                "int i; int a = 0; int b = 0;"
                " for (i = 0; i < 400; i++) {"
                " if (i < 200) a = a + i; else b = b + i * 3; }"
                " print_int(a); putchar(' '); print_int(b);"
            )
        )
        (loop, loop_source), *later = [
            (index, source) for name, index, source in recorded
            if name == "main"
        ]
        assert any(
            f"return BT[{index}] or MK({index})" in loop_source
            for index, _ in later
        ), "no later closure is the target of a side exit"

    def test_threads_sharing_heat_and_arms_count_exactly(self, monkeypatch):
        # Machines in several threads add to one module's heat and arms
        # without a lock. A lost update may only delay a tier-up or
        # turn a taken arm into a side exit; every count stays exact.
        monkeypatch.setattr(fast, "_TIER_UP_IL", 50)
        monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
        benchmark = benchmark_by_name("cmp")
        module = benchmark.compile()
        specs = benchmark.make_runs("small")
        expected = [
            _counter_state(run_once(module, spec).counters) for spec in specs
        ]
        results = {}

        def work(worker):
            results[worker] = [
                _counter_state(run_once(module, spec, engine="fast").counters)
                for spec in specs * 3
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(worker,))
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {worker: expected * 3 for worker in range(4)}

    def test_a_deep_continuation_tiers_up_while_frames_wait(
        self, monkeypatch
    ):
        # Past _DEPTH_LIMIT each frame waits on the trampoline holding
        # its continuation's stub; the continuation heats up as frames
        # return, and one of those stubs tiers it up.
        monkeypatch.setattr(fast, "_TIER_UP_IL", 200)
        monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
        generations = []
        generate = fast._ClosureCodegen.generate

        def tracking_generate(codegen):
            frame, callers = sys._getframe(), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            generations.append((codegen.name, codegen.index, "drive" in callers))
            return generate(codegen)

        monkeypatch.setattr(fast._ClosureCodegen, "generate", tracking_generate)
        assert_engines_agree(
            c_main(
                f"print_int(down({2 * fast._DEPTH_LIMIT + 100}));",
                prelude="int down(int n) { int s; if (n == 0) return 0;"
                " s = down(n - 1); return (s * 3 + n) & 65535; }",
            )
        )
        assert ("down", 0, False) in generations
        assert any(
            name == "down" and index > 0 and in_drive
            for name, index, in_drive in generations
        ), generations


def _run_small_inputs(names, obs=None):
    for name in names:
        benchmark = benchmark_by_name(name)
        module = benchmark.compile()
        for spec in benchmark.make_runs("small"):
            run_once(module, spec, engine="fast", obs=obs)


class TestCodegenOnDemand:
    def test_generates_only_called_functions(self, generated):
        benchmark = benchmark_by_name("wc")
        module = benchmark.compile()
        spec = benchmark.make_runs("small")[0]
        result = run_once(module, spec, engine="fast")
        blocks = [(name, index) for name, index, _ in generated]
        assert ("main", 0) in blocks
        assert len(blocks) == len(set(blocks))
        called = set(result.counters.func_counts) & set(module.functions)
        assert {name for name, _ in blocks} <= called

    def test_every_generated_closure_is_entered(self, generated, monkeypatch):
        entered = set()
        factory = fast._FactoryTable.factory

        def recording_factory(table, name, index, metrics=None):
            make = factory(table, name, index, metrics)

            def instantiate(*env):
                block = make(*env)

                def enter(r, fp, d):
                    entered.add((name, index))
                    return block(r, fp, d)

                return enter

            return instantiate

        monkeypatch.setattr(fast._FactoryTable, "factory", recording_factory)
        _run_small_inputs(["wc", "cmp", "tee"])
        blocks = {(name, index) for name, index, _ in generated}
        assert any(index for _, index in blocks)
        assert blocks <= entered

    def test_threshold_zero_generates_todays_code(self, generated):
        # Every closure and line the tier generated before it had a
        # tier-0: at threshold 0 nothing is interpreted, so nothing is
        # measured and no arm becomes a side exit.
        _run_small_inputs(["wc", "cmp", "tee"])
        assert len(generated) == 16
        assert sum(source.count("\n") + 1 for _, _, source in generated) == 10_103

    def test_generated_lines_stay_under_ceiling(self, generated):
        # Tail duplication multiplies generated code, and a timing gate
        # cannot see a blow-up through CI noise; this count can. The
        # ceiling is the measured total, 10,103 lines, plus 10%.
        _run_small_inputs(["wc", "cmp", "tee"])
        lines = sum(source.count("\n") + 1 for _, _, source in generated)
        assert lines <= 11_113

    def test_codegen_metrics(self, generated, monkeypatch):
        obs = Observability.create()
        _run_small_inputs(["tee"], obs=obs)
        counters = obs.metrics.counters
        assert counters["vm.codegen.closures"] == len(generated)
        assert counters["vm.codegen.functions"] == sum(
            1 for _, index, _ in generated if index == 0
        )
        assert counters["vm.codegen.functions"] < len(generated)
        assert counters["vm.tier0.instructions"] == 0
        assert counters["vm.codegen.lines"] == sum(
            source.count("\n") + 1 for _, _, source in generated
        )
        seconds = obs.metrics.histogram("vm.codegen_seconds")
        assert seconds["count"] == len(generated) and seconds["total"] > 0
        # Warm: factories are cached, so a rerun generates nothing.
        again = Observability.create()
        _run_small_inputs(["tee"], obs=again)
        assert not any(
            name.startswith("vm.codegen") for name in again.metrics.counters
        )
        assert again.metrics.histogram("vm.codegen_seconds") is None
        assert again.metrics.counters["vm.runs"] > 0
        # At infinity nothing tiers up: tier-0 retires every instruction.
        monkeypatch.setattr(fast, "_TIER_UP_IL", math.inf)
        monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
        cold = Observability.create()
        _run_small_inputs(["tee"], obs=cold)
        counters = cold.metrics.counters
        assert counters["vm.tier0.instructions"] == counters[
            "vm.instructions_retired"
        ] > 0

    def test_threads_racing_to_generate_run_correct_code(
        self, generated, monkeypatch
    ):
        # Machines in several threads share one factory table. A barrier
        # holds each thread's first generation, main's entry closure,
        # until all of them are generating it at once; the rest of cmp's
        # closures then race under a tiny switch interval. Shared or
        # torn codegen state would show up as a wrong count.
        benchmark = benchmark_by_name("cmp")
        module = benchmark.compile()
        specs = benchmark.make_runs("small")
        expected = [
            _counter_state(run_once(module, spec).counters) for spec in specs
        ]
        workers = 4
        barrier = threading.Barrier(workers, timeout=60)
        started = threading.local()
        generators = set()
        generate = fast._ClosureCodegen.generate

        def racing_generate(codegen):
            if not getattr(started, "flag", False):
                started.flag = True
                barrier.wait()
            if (codegen.name, codegen.index) == ("main", 0):
                generators.add(threading.get_ident())
            return generate(codegen)

        monkeypatch.setattr(fast._ClosureCodegen, "generate", racing_generate)
        results = {}

        def work(worker):
            results[worker] = [
                _counter_state(run_once(module, spec, engine="fast").counters)
                for spec in specs
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(generators) == workers
        assert results == {worker: expected for worker in range(workers)}
