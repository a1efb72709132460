"""The fast execution tier: engine equivalence and trap parity.

The fast engine's admissibility contract is total observational
equivalence with the reference counting interpreter: identical exit
code, stdout, written files, and the exact same integer counters —
``il``/``ct``/``calls``/``returns`` plus the per-site, per-function,
and per-branch dictionaries — on every successful run, and a trap in
the same situations on aborted runs.
"""

import re
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
from repro.workloads.suite import benchmark_by_name

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


def assert_engines_agree(source, **run_kwargs):
    module = compile_program(source)
    reference = _run_engine(module, "counting", **run_kwargs)
    fast = _run_engine(module, "fast", **run_kwargs)
    assert fast.exit_code == reference.exit_code
    assert bytes(fast.os.stdout) == bytes(reference.os.stdout)
    assert bytes(fast.os.stderr) == bytes(reference.os.stderr)
    assert fast.os.written_files == reference.os.written_files
    assert _counter_state(fast.counters) == _counter_state(reference.counters)
    return reference


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
    def test_straight_line_output_and_counters(self):
        assert_engines_agree(c_main("print_int(strlen(\"abcd\")); putchar(10);"))

    def test_loops_and_branch_profile(self):
        source = c_main(
            "int i; int odd = 0;"
            " for (i = 0; i < 50; i++) if (i % 2) odd++;"
            " print_int(odd);"
        )
        reference = assert_engines_agree(source)
        assert reference.counters.branch_counts  # mode actually profiled

    def test_recursion(self):
        source = c_main(
            "print_int(fib(15));",
            prelude="int fib(int n) { if (n < 2) return n;"
            " return fib(n - 1) + fib(n - 2); }",
        )
        assert_engines_agree(source)

    def test_deep_recursion_past_python_depth_limit(self):
        # 2000 frames exceeds the fast tier's direct-call depth budget
        # (_DEPTH_LIMIT), forcing it through the explicit trampoline;
        # counters must still match the interpreter exactly.
        from repro.vm.fast import _DEPTH_LIMIT

        depth = 2 * _DEPTH_LIMIT + 100
        source = c_main(
            f"print_int(down({depth}));",
            prelude="int down(int n) { if (n == 0) return 0;"
            " return down(n - 1) + 1; }",
        )
        assert_engines_agree(source)

    def test_function_pointers_and_files(self):
        source = c_main(
            'int (*emit)(int c, int fd) = fputc;'
            ' int fd = open("out.txt", O_WRITE);'
            " emit('h', fd); emit('i', fd); close(fd);"
            ' int rd = open("in.txt", O_READ);'
            " print_int(fgetc(rd)); close(rd);"
        )
        assert_engines_agree(source, files={"in.txt": b"Z"})

    def test_stdin_and_argv(self):
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
        assert_engines_agree(source, stdin=b"stream", argv=["alpha"])

    def test_exit_mid_program(self):
        assert_engines_agree(c_main("putchar('a'); exit(7); putchar('b');"))

    def test_suite_benchmarks_identical(self):
        from repro.workloads.suite import benchmark_suite

        for benchmark in benchmark_suite():
            module = benchmark.compile()
            for spec in benchmark.make_runs("small"):
                reference = run_once(
                    module, spec, collect_branches=True, engine="counting"
                )
                fast = run_once(
                    module, spec, collect_branches=True, engine="fast"
                )
                label = f"{benchmark.name}/{spec.label}"
                assert fast.exit_code == reference.exit_code, label
                assert bytes(fast.os.stdout) == bytes(reference.os.stdout), label
                assert fast.os.written_files == reference.os.written_files, label
                assert _counter_state(fast.counters) == _counter_state(
                    reference.counters
                ), label

    def test_fuzz_corpus_replays_identically(self):
        from repro.verify import replay_fuzz_corpus

        reports = replay_fuzz_corpus(8, seed=0)
        assert reports, "corpus generated no runnable programs"
        assert all(report.ok for report in reports), [
            report.summary() for report in reports if not report.ok
        ]

    def test_inlined_modules_agree(self):
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
        fast = run_once(
            result.module, RunSpec(), collect_branches=True, engine="fast"
        )
        assert fast.stdout == reference.stdout
        assert _counter_state(fast.counters) == _counter_state(
            reference.counters
        )


class TestFastTrapParity:
    def _both_trap(self, source, match, **kwargs):
        module = compile_program(source)
        for engine in ENGINES:
            with pytest.raises(VMTrap, match=match):
                _run_engine(module, engine, **kwargs)

    def test_fuel_exhaustion(self):
        self._both_trap(c_main("while (1) ;"), "fuel", fuel=10_000)

    def test_control_stack_overflow(self):
        # Non-tail recursion with a real frame: the local array keeps
        # the frontend from looping the self-call and makes each frame
        # consume control-stack bytes, so sp actually overflows.
        self._both_trap(
            c_main(
                "print_int(spin(0));",
                prelude="int spin(int n) { int pad[32]; pad[0] = n;"
                " return spin(n + 1) + pad[0]; }",
            ),
            "stack overflow",
            stack_size=1 << 16,
        )

    def test_icall_arity_mismatch(self):
        self._both_trap(
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

    def test_icall_bad_pointer(self):
        self._both_trap(
            c_main("int (*p)(int v) = (int (*)(int v))12345; p(1);"),
            "bad pointer",
        )

    def test_unavailable_external(self):
        module = compile_program(
            "int mystery(int x);\nint main(void) { return mystery(1); }",
            link_libc=False,
        )
        for engine in ENGINES:
            with pytest.raises(VMTrap, match="unavailable external"):
                Machine(module, VirtualOS(), engine=engine).run()

    def test_out_of_range_store(self):
        self._both_trap(
            c_main("int *p = (int *)99999999; *p = 1;"), "bad address"
        )

    def test_heap_exhaustion(self):
        module = compile_program(c_main("while (1) malloc(1 << 16);"))
        for engine in ENGINES:
            with pytest.raises(VMTrap, match="out of heap"):
                Machine(
                    module, VirtualOS(), engine=engine, heap_limit=1 << 20
                ).run()


class TestLinkKnobs:
    def test_stack_size_change_never_runs_stale_code(self):
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
        for sizes in ((1 << 16, 1 << 20), (1 << 18, 1 << 17)):
            for stack_size in sizes:
                reference = _run_engine(
                    module, "counting", stack_size=stack_size
                )
                result = _run_engine(module, "fast", stack_size=stack_size)
                assert reference.stdout == "17 10 170"
                assert result.stdout == reference.stdout, stack_size
                assert _counter_state(result.counters) == _counter_state(
                    reference.counters
                ), stack_size


@pytest.fixture
def generated(monkeypatch):
    """(name, source) of every factory the fast tier generates from
    here on, starting from an empty process-wide factory cache."""
    sources = []
    generate = fast._FunctionCodegen.generate

    def recording_generate(codegen):
        source = generate(codegen)
        sources.append((codegen.name, source))
        return source

    monkeypatch.setattr(fast._FunctionCodegen, "generate", recording_generate)
    monkeypatch.setattr(fast, "_FACTORY_CACHE", OrderedDict())
    return sources


def _run_small_inputs(names, obs=None):
    for name in names:
        benchmark = benchmark_by_name(name)
        module = benchmark.compile()
        for spec in benchmark.make_runs("small"):
            run_once(module, spec, engine="fast", obs=obs)


_CLOSURE_DEF = re.compile(r"    def b(\d+)\(")
_CLOSURE_REF = re.compile(r"\bb(\d+)\b")


def _closure_references(source: str) -> tuple[set, set]:
    """(defined block closures, (referencing closure, block) pairs).

    Factory-level lines (switch tables) reference from closure None.
    """
    defined: set[int] = set()
    references: set[tuple] = set()
    owner = None
    for line in source.splitlines():
        match = _CLOSURE_DEF.match(line)
        if match:
            owner = int(match.group(1))
            defined.add(owner)
            continue
        if not line.startswith("        "):
            owner = None
        for ref in _CLOSURE_REF.findall(line):
            references.add((owner, int(ref)))
    return defined, references


class TestCodegenOnDemand:
    def test_generates_only_called_functions(self, generated):
        benchmark = benchmark_by_name("wc")
        module = benchmark.compile()
        spec = benchmark.make_runs("small")[0]
        result = run_once(module, spec, engine="fast")
        names = [name for name, _ in generated]
        assert "main" in names
        assert len(names) == len(set(names))
        called = set(result.counters.func_counts) & set(module.functions)
        assert set(names) <= called

    def test_every_closure_but_the_entry_is_named_elsewhere(self, generated):
        _run_small_inputs(["wc", "cmp", "tee"])
        assert generated
        for name, source in generated:
            defined, references = _closure_references(source)
            assert 0 in defined, name
            for block in defined - {0}:
                assert any(
                    owner != block
                    for owner, target in references
                    if target == block
                ), f"{name}: b{block} is generated but never entered"

    def test_generated_lines_stay_under_ceiling(self, generated):
        # Tail duplication multiplies generated code, and a timing gate
        # cannot see a blow-up through CI noise; this count can. The
        # ceiling is the measured total, 33,279 lines, plus 10%.
        _run_small_inputs(["wc", "cmp", "tee"])
        lines = sum(source.count("\n") + 1 for _, source in generated)
        assert lines <= 36_607

    def test_codegen_metrics(self, generated):
        obs = Observability.create()
        _run_small_inputs(["tee"], obs=obs)
        counters = obs.metrics.counters
        assert counters["vm.codegen.functions"] == len(generated)
        assert counters["vm.codegen.lines"] == sum(
            source.count("\n") + 1 for _, source in generated
        )
        assert counters["vm.codegen.closures"] == sum(
            len(_closure_references(source)[0]) for _, source in generated
        )
        seconds = obs.metrics.histogram("vm.codegen_seconds")
        assert seconds["count"] == len(generated) and seconds["total"] > 0
        # Warm: factories are cached, so a rerun generates nothing.
        again = Observability.create()
        _run_small_inputs(["tee"], obs=again)
        assert "vm.codegen.functions" not in again.metrics.counters
        assert again.metrics.counters["vm.runs"] > 0

    def test_threads_racing_to_generate_run_correct_code(self, generated):
        # Machines in several threads share one factory table and may
        # generate the same function at once; a lost or torn factory
        # would show up as a wrong count.
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
                for spec in specs
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
        assert results == {worker: expected for worker in range(4)}
        assert "main" in {name for name, _ in generated}
