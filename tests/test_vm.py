"""Unit tests for the VM: counters, memory, traps, OS, builtins."""

import hashlib
import json

import pytest

from repro.errors import ILError, VMTrap
from repro.compiler import compile_program
from repro.profiler.profile import RunSpec, profile_module, run_once
from repro.vm.counters import Counters
from repro.vm.machine import Machine
from repro.vm.os import VirtualOS

from helpers import c_main, c_output, run_c


class TestCounters:
    def test_il_counts_real_instructions(self):
        result = run_c(c_main("print_int(1);"))
        assert result.counters.il > 0

    def test_ct_excludes_calls(self):
        # A straight-line program: the only CTs come from libc bodies
        # that never run, so zero control transfers in main itself.
        source = (
            "#include <sys.h>\n"
            "int main(void) { putchar('a'); return 0; }"
        )
        result = run_c(source, link_libc=False)
        assert result.counters.ct == 0
        assert result.counters.calls == 1

    def test_loop_counts_cts(self):
        source = (
            "#include <sys.h>\n"
            "int main(void) { int i; for (i = 0; i < 10; i++) ; return 0; }"
        )
        result = run_c(source, link_libc=False)
        # One cjump per iteration check (11 checks) + one jump per
        # iteration (10).
        assert result.counters.ct == 21

    def test_calls_and_returns_balance(self):
        result = run_c(c_main("print_int(strlen(\"abcd\"));"))
        assert result.counters.calls == result.counters.returns

    def test_site_counts_sum_to_calls(self):
        result = run_c(c_main("print_int(strlen(\"abcd\") + strlen(\"x\"));"))
        assert sum(result.counters.site_counts.values()) == result.counters.calls

    def test_func_counts_track_entries(self):
        source = c_main(
            "int i; for (i = 0; i < 7; i++) helper();",
            prelude="int calls = 0; void helper(void) { calls++; }",
        )
        result = run_c(source)
        assert result.counters.func_counts["helper"] == 7
        assert result.counters.func_counts["main"] == 1

    def test_branch_profiling_optional(self):
        module = compile_program(c_main("int i; for (i = 0; i < 3; i++) ;"))
        plain = Machine(module, VirtualOS()).run()
        assert plain.counters.branch_counts == {}
        profiled = Machine(module, VirtualOS(), collect_branches=True).run()
        assert profiled.counters.branch_counts
        taken = sum(pair[0] + pair[1] for pair in profiled.counters.branch_counts.values())
        assert taken > 0

    def test_merge_accumulates(self):
        a = Counters(il=10, ct=2, calls=1, site_counts={0: 1}, func_counts={"f": 1})
        b = Counters(il=5, ct=1, calls=2, site_counts={0: 2, 1: 1})
        a.merge(b)
        assert a.il == 15 and a.site_counts == {0: 3, 1: 1}
        assert a.func_counts == {"f": 1}

    def test_merge_all_fields(self):
        a = Counters(
            il=10,
            ct=2,
            calls=1,
            returns=1,
            func_counts={"f": 1},
            branch_counts={("f", 3): [2, 1]},
        )
        b = Counters(
            il=5,
            ct=1,
            calls=2,
            returns=2,
            func_counts={"f": 2, "g": 1},
            branch_counts={("f", 3): [1, 1], ("g", 0): [4, 0]},
        )
        a.merge(b)
        assert a.returns == 3
        assert a.func_counts == {"f": 3, "g": 1}
        assert a.branch_counts == {("f", 3): [3, 2], ("g", 0): [4, 0]}

    def test_merge_empty_is_identity(self):
        a = Counters(il=7, ct=3, calls=2, returns=2, site_counts={4: 9})
        before = (a.il, a.ct, a.calls, a.returns, dict(a.site_counts))
        a.merge(Counters())
        assert (a.il, a.ct, a.calls, a.returns, dict(a.site_counts)) == before

    def test_to_summary_round_trips_scalars(self):
        counters = Counters(il=9, ct=4, calls=3, returns=2)
        summary = counters.to_summary()
        assert summary == {"il": 9, "ct": 4, "calls": 3, "returns": 2}
        import json

        assert json.loads(json.dumps(summary)) == summary


class TestMemory:
    def test_malloc_returns_distinct_regions(self):
        source = c_main(
            "char *a = malloc(10); char *b = malloc(10);"
            " a[0] = 'x'; b[0] = 'y'; print_int(a[0] != b[0]);"
            " print_int(a != b);"
        )
        assert c_output(source) == "11"

    def test_malloc_zeroed(self):
        assert c_output(c_main(
            "int *p = (int *)malloc(8); print_int(p[0] + p[1]);"
        )) == "0"

    def test_word_round_trip_negative(self):
        assert c_output(c_main(
            "int *p = (int *)malloc(4); *p = -123456; print_int(*p);"
        )) == "-123456"

    def test_byte_store_truncates(self):
        assert c_output(c_main(
            "char *p = malloc(1); *p = 0x141; print_int(*p);"
        )) == "65"

    def test_function_pointer_survives_memory(self):
        source = c_main(
            "int (**slot)(int v) = (int (**)(int v))malloc(4);"
            " *slot = bump; print_int((*slot)(4));",
            prelude="int bump(int v) { return v + 1; }",
        )
        assert c_output(source) == "5"

    def test_out_of_range_load_traps(self):
        with pytest.raises(VMTrap):
            run_c(c_main("int *p = (int *)99999999; print_int(*p);"))

    def test_fuel_limit_stops_infinite_loop(self):
        module = compile_program(c_main("while (1) ;"))
        with pytest.raises(VMTrap, match="fuel"):
            Machine(module, VirtualOS(), fuel=10_000).run()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("int *p = (int *)99999999; print_int(*p);",
             "load4 from bad address 99999999"),
            ("char *p = (char *)99999999; print_int(*p);",
             "load1 from bad address 99999999"),
            ("int *p = (int *)99999999; *p = 1;",
             "store4 to bad address 99999999"),
            ("char *p = (char *)99999999; *p = 1;",
             "store1 to bad address 99999999"),
            ("int *p = (int *)12; print_int(*p);", "load4 from bad address 12"),
            ("char *p = (char *)-3; *p = 1;", "store1 to bad address -3"),
        ],
    )
    def test_bad_access_trap_messages(self, body, message):
        with pytest.raises(VMTrap) as trap:
            run_c(c_main(body))
        assert str(trap.value) == message


class _Recorder:
    """An instruction-cache stand-in that keeps every address fed to it."""

    def __init__(self):
        self.addresses: list[int] = []

    def access(self, address: int) -> None:
        self.addresses.append(address)


class TestBlockGranularity:
    """The reference counts once per basic block. Each pinned count and
    address here was taken from the interpreter that counted one
    instruction at a time, with `compile_program` and ``fuel=10_000``."""

    @staticmethod
    def _trapped(source: str) -> tuple[str, Counters]:
        machine = Machine(compile_program(source), fuel=10_000)
        with pytest.raises(VMTrap) as trap:
            machine.run()
        return str(trap.value), machine.counters

    def test_trap_mid_block_counts_what_ran(self):
        message, counters = self._trapped(
            c_main("int a = 3; int *p = (int *)99999999; a = a * 7; *p = a;")
        )
        assert message == "store4 to bad address 99999999"
        assert counters.il == 7

    def test_trap_in_callee(self):
        message, counters = self._trapped(
            c_main(
                "int i; int s = 0; for (i = 0; i < 10; i++) s += f(i);"
                " print_int(s);",
                prelude="int f(int x) { int y = x - 5; return 100 / y; }",
            )
        )
        assert message == "integer division by zero"
        assert (counters.il, counters.ct, counters.calls, counters.returns) == (
            75, 11, 6, 5,
        )

    def test_exit_mid_stack_and_mid_block(self):
        result = run_c(
            c_main(
                "int i; for (i = 0; i < 10; i++) if (i == 2) g(i + 1);",
                prelude="int g(int x) { print_int(x); exit(0); return x; }",
            ),
            fuel=10_000,
        )
        assert (result.exit_code, result.stdout) == (0, "3")
        counters = result.counters
        assert (counters.il, counters.ct, counters.calls, counters.returns) == (
            26, 8, 3, 1,
        )

    _SUM_TO_30 = c_main(
        "int i; int s = 0; for (i = 0; i < 30; i++) s += i; print_int(s);"
    )

    def test_fuel_allows_exactly_the_instructions_it_names(self):
        needed = run_c(self._SUM_TO_30).counters.il
        assert run_c(self._SUM_TO_30, fuel=needed).stdout == "435"
        machine = Machine(compile_program(self._SUM_TO_30), fuel=needed - 1)
        with pytest.raises(VMTrap) as trap:
            machine.run()
        assert str(trap.value) == (
            f"fuel exhausted after {machine.counters.il} instructions"
        )

    def test_fuel_trap_counts_only_what_ran(self):
        # The trap fires before the block that would pass the fuel, so
        # none of that block's instructions is counted.
        needed = run_c(self._SUM_TO_30).counters.il
        machine = Machine(compile_program(self._SUM_TO_30), fuel=needed - 1)
        with pytest.raises(VMTrap, match="fuel exhausted"):
            machine.run()
        assert machine.counters.il < needed

    @pytest.mark.parametrize(
        "layout, digest",
        [
            ("sequential",
             "d28a4d22fdb6e01026d772a5d24a0cdb97958f7632ff600fda71b16c1f9267ca"),
            ("scattered",
             "eb8ae5527a74ea9f0c8ffa6f0348ea641048b3c932fb414711520f352bc2f021"),
        ],
    )
    def test_icache_sees_every_address_in_order(self, layout, digest):
        from repro.workloads.suite import benchmark_by_name

        benchmark = benchmark_by_name("cmp")
        spec = benchmark.make_runs("small")[0]
        module = benchmark.compile()
        # The same module laid out the other way first: each layout
        # keeps its own addresses.
        other = "scattered" if layout == "sequential" else "sequential"
        Machine(
            module, spec.make_os(), icache=_Recorder(), code_layout=other
        ).run()
        recorder = _Recorder()
        Machine(
            module, spec.make_os(), icache=recorder, code_layout=layout
        ).run()
        assert len(recorder.addresses) == 13_409
        assert hashlib.sha256(
            repr(recorder.addresses).encode()
        ).hexdigest() == digest

    def test_icache_stops_at_exit_mid_block(self):
        # twice: 3 instructions at 0; main at 16: call twice, mov,
        # call putchar, sub, call exit, then three that never run.
        source = (
            "#include <sys.h>\n"
            "int twice(int x) { return x + x; }\n"
            "int main(void) { int y = twice(33); putchar(y);"
            " exit(y - 63); y = y * 2; return y; }\n"
        )
        recorder = _Recorder()
        result = Machine(
            compile_program(source, link_libc=False), icache=recorder
        ).run()
        assert (result.exit_code, result.stdout) == (3, "B")
        assert recorder.addresses == [16, 0, 4, 20, 24, 28, 32]
        assert result.counters.il == 7


#: Each program's ``(il, ct, calls, returns)`` summed over its small
#: inputs: (original, inlined under the default parameters).
SUITE_COUNTS = {
    "cccp": ((415951, 98979, 16792, 16792), (424890, 112677, 3094, 3094)),
    "cmp": ((40236, 10355, 5981, 5981), (40236, 13287, 3049, 3049)),
    "compress": ((397790, 54115, 16810, 16810), (410363, 69467, 1458, 1458)),
    "eqn": ((281575, 58068, 13249, 13249), (288167, 66423, 4894, 4894)),
    "espresso": ((283488, 57068, 11327, 11327), (302400, 67118, 1277, 1277)),
    "grep": ((465157, 98051, 20941, 20941), (486525, 117384, 1608, 1608)),
    "lex": ((648089, 177240, 46780, 46780), (678792, 205418, 18602, 18602)),
    "make": ((144683, 30983, 3833, 3833), (148497, 33988, 828, 828)),
    "tar": ((68412, 8274, 8901, 8901), (68412, 11352, 5823, 5823)),
    "tee": ((50535, 10337, 6052, 6052), (50535, 10337, 6052, 6052)),
    "wc": ((75834, 30038, 3359, 3359), (75834, 30038, 3359, 3359)),
    "yacc": ((566634, 108518, 20694, 20694), (580356, 126126, 3086, 3086)),
}

#: The `_counter_digest` of the same sums, taken with
#: ``collect_branches=True``: (original, inlined).
SUITE_DIGESTS = {
    "cccp": (
        "d8aee5272cdf98d2a02cea9be2d1a0716d0fad2e24e99a7d707131ec48422573",
        "68814f8ffdeddcbb020fee976f9d7fff7f5b17de9161625f139b2e21e6aeeadc",
    ),
    "cmp": (
        "589f453fb27119ef868b9e61768c717e664997f580248acb342f6a0ec354da4a",
        "789651505540bf536d4f43298872c838a177b260f56e18db0df1f09623501573",
    ),
    "compress": (
        "6bc02a4b6c5f2f7ab6b78c80a4eb9753c325b1a9b973d3a54730eb53fb549523",
        "53e9c33f225df02873b6d2a3b20f2eba30133f9ecb266657897ba8ddddb481ce",
    ),
    "eqn": (
        "c531e2436c11d89d7d1feecbf61a9377b0b8e9688cbfa5906aad42ef8859447b",
        "9aecdfaef4fc61f9f958dfe656e762f94ac5094bb95aee4923344b1fa7a928b8",
    ),
    "espresso": (
        "bee0c19ec80f62e30e513c7f48d63601b689157d841366e4be9a6aad257082c6",
        "eb46d838878222af104cd6d4fcfdf76a58c0a80a560ebd52c13970221998f12c",
    ),
    "grep": (
        "3a1bbba2fc012d5453b710e1469c010170c4cd2c952e8e5f11edecac02e03cc2",
        "93ef23b94e73ea9f3fbbcec96f1e3a88c85ba465f6032e93eccba69f15b48f4d",
    ),
    "lex": (
        "d334fcca896ccf0b760c8690c1051696b5f2637ea885a1b6d9a6c73fa5a270ac",
        "00bd9d8aa6bd0758edd0e2f701c3c56d28ccfb46900fed7aad2fad1c742b4e90",
    ),
    "make": (
        "eba532eb494bff7831d304ee25c9ce74100e3c596ace50b23b84a9535ee1737a",
        "de4543dc076361b538ccc19a5d79e9ce4eb07e0e25bc7f1af19b923cd400f979",
    ),
    "tar": (
        "3b78d86fdef3fc4da7a2727cd5a0863539a0d4cecd347f2b381a3ed3ae131d55",
        "9579ee2b4ace40b68764b55b592e8e637fc19ff92a4fe76d2b1b5fb9ea47251d",
    ),
    "tee": (
        "79bc1d507ecee4a6e307cd1daf1fd21f223382a52d362973aa3118ac9a8e9602",
        "79bc1d507ecee4a6e307cd1daf1fd21f223382a52d362973aa3118ac9a8e9602",
    ),
    "wc": (
        "9f7b5386073c7dbb56e79147ce7700e674df628cee6af09756a337b90090ad42",
        "9f7b5386073c7dbb56e79147ce7700e674df628cee6af09756a337b90090ad42",
    ),
    "yacc": (
        "77a800a73d154206b2bd0290108a053af935180dc4f8c9ba9a84b035c48a7aac",
        "1498582c0085bf61225a22313a0738ad811e9afb5b90cfd7e0fcd20a7def6279",
    ),
}


def _counter_state(counters: Counters) -> tuple:
    """Every counter channel, with each dict as its sorted items."""
    return (
        counters.il, counters.ct, counters.calls, counters.returns,
        sorted(counters.site_counts.items()),
        sorted(counters.func_counts.items()),
        sorted(counters.branch_counts.items()),
    )


def _counter_digest(counters: Counters) -> str:
    """The sha256 of the whole counter state."""
    state = json.dumps(_counter_state(counters)).encode()
    return hashlib.sha256(state).hexdigest()


class TestSuiteCounters:
    """Every counter channel of every suite program, pinned. The values
    were taken when a second, independently written engine produced
    the same counters on every one of these runs."""

    def test_suite_counters_are_pinned(self):
        from repro.inliner.manager import inline_module
        from repro.workloads.suite import benchmark_suite

        counts = {}
        digests = {}
        for benchmark in benchmark_suite():
            module = benchmark.compile()
            specs = benchmark.make_runs("small")
            inlined = inline_module(module, profile_module(module, specs)).module
            totals = []
            for candidate in (module, inlined):
                total = Counters()
                for spec in specs:
                    total.merge(
                        run_once(candidate, spec, collect_branches=True).counters
                    )
                totals.append(total)
            counts[benchmark.name] = tuple(
                (t.il, t.ct, t.calls, t.returns) for t in totals
            )
            digests[benchmark.name] = tuple(_counter_digest(t) for t in totals)
        assert counts == SUITE_COUNTS
        assert digests == SUITE_DIGESTS


class TestLinkKnobs:
    def test_stack_size_change_never_runs_stale_code(self):
        # Globals are placed after the stack region, so linked code
        # bakes in addresses that move with stack_size. Runs of one
        # module at two stack sizes, in either order, must each match
        # a freshly compiled module run at that size.
        source = c_main(
            "int i; int s = 0; for (i = 0; i < a; i++) s += b;"
            " print_int(a); putchar(' '); print_int(b);"
            " putchar(' '); print_int(s);",
            prelude="int a = 17; int b = 10;",
        )
        module = compile_program(source)
        for sizes in ((1 << 16, 1 << 20), (1 << 18, 1 << 17)):
            for stack_size in sizes:
                fresh = Machine(
                    compile_program(source), stack_size=stack_size,
                    collect_branches=True,
                ).run()
                result = Machine(
                    module, stack_size=stack_size, collect_branches=True
                ).run()
                assert fresh.stdout == "17 10 170"
                assert result.stdout == fresh.stdout, stack_size
                assert _counter_state(result.counters) == _counter_state(
                    fresh.counters
                ), stack_size

    def test_in_place_body_edits_never_run_stale_code(self):
        from repro.il.instructions import Opcode

        module = compile_program(c_main("print_int(7);"))
        assert Machine(module).run().stdout == "7"
        main = module.functions["main"]
        main.body = compile_program(c_main("print_int(42);")).functions["main"].body
        assert Machine(module).run().stdout == "42"
        (call,) = [
            index for index, instr in enumerate(main.body)
            if instr.op is Opcode.CALL and instr.name == "print_int"
        ]
        del main.body[call]
        assert Machine(module).run().stdout == ""

    def test_in_place_global_edits_never_run_stale_code(self):
        from repro.il.module import GlobalData, InitItem

        module = compile_program(c_main("print_int(a);", prelude="int a = 17;"))
        assert Machine(module).run().stdout == "17"
        # A global placed in front of `a` moves the address main's GADDR
        # was linked with.
        pad = GlobalData("pad", 16, 4, [InitItem(0, "int", 5, 4)])
        module.globals = {"pad": pad, **module.globals}
        assert Machine(module, stack_size=1 << 19).run().stdout == "17"
        assert Machine(module).run().stdout == "17"


class TestArgv:
    def test_argc_argv(self):
        source = """
        #include <sys.h>
        #include <string.h>
        int main(int argc, char **argv) {
            print_int(argc);
            putchar(' ');
            print_str(argv[1]);
            return 0;
        }
        """
        assert c_output(source, argv=["hello", "world"]) == "3 hello"

    def test_argv0_is_program_name(self):
        source = """
        #include <sys.h>
        int main(int argc, char **argv) { print_str(argv[0]); return 0; }
        """
        assert c_output(source) == "main"

    def test_wrong_main_arity_rejected(self):
        module = compile_program("int main(int only) { return only; }")
        with pytest.raises(ILError, match="parameters"):
            Machine(module).run()


class TestVirtualOS:
    def test_stdin_eof(self):
        source = c_main("print_int(getchar()); print_int(getchar());")
        assert c_output(source, stdin=b"A") == "65-1"

    def test_stdout_capture(self):
        result = run_c(c_main("putchar('h'); putchar('i');"))
        assert bytes(result.os.stdout) == b"hi"

    def test_stderr_separate(self):
        result = run_c(c_main("eputc('e'); putchar('o');"))
        assert result.os.stderr_text() == "e"
        assert result.stdout == "o"

    def test_file_read(self):
        source = c_main(
            'int fd = open("in.txt", O_READ);'
            " print_int(fgetc(fd)); print_int(fsize(fd)); close(fd);"
        )
        assert c_output(source, files={"in.txt": b"XY"}) == "882"

    def test_file_write_visible_after_close(self):
        source = c_main(
            'int fd = open("out.txt", O_WRITE);'
            " fputc('o', fd); fputc('k', fd); close(fd);"
        )
        result = run_c(source)
        assert result.os.written_files["out.txt"] == b"ok"

    def test_open_missing_file_returns_eof(self):
        assert c_output(c_main(
            'print_int(open("ghost", O_READ));'
        )) == "-1"

    def test_rewind(self):
        source = c_main(
            'int fd = open("f", O_READ);'
            " fgetc(fd); fgetc(fd); rewindf(fd); print_int(fgetc(fd));"
        )
        assert c_output(source, files={"f": b"AB"}) == "65"

    def test_fputc_to_stdout_fd(self):
        assert c_output(c_main("fputc('z', 1);")) == "z"

    def test_bad_fd_traps(self):
        with pytest.raises(VMTrap):
            run_c(c_main("fgetc(42);"))

    def test_exit_builtin(self):
        result = run_c(c_main("putchar('a'); exit(3); putchar('b');"))
        assert result.exit_code == 3
        assert result.stdout == "a"

    def test_abort_traps(self):
        with pytest.raises(VMTrap, match="abort"):
            run_c(c_main("abort();"))


class TestBlockIO:
    def test_read_stdin_block(self):
        source = c_main(
            "char buf[8]; int n = read_stdin(buf, 8);"
            " print_int(n); putchar(' ');"
            " { int i; for (i = 0; i < n; i++) putchar(buf[i]); }"
        )
        assert c_output(source, stdin=b"abc") == "3 abc"

    def test_write_stdout_block(self):
        source = c_main(
            'char buf[4]; buf[0] = \'h\'; buf[1] = \'i\'; write_stdout(buf, 2);'
        )
        assert c_output(source) == "hi"

    def test_buffered_reader_matches_getchar(self):
        data = bytes(range(1, 200)) * 3
        direct = run_c(c_main(
            "int c = getchar(); int s = 0;"
            " while (c != EOF) { s += c; c = getchar(); } print_int(s);"
        ), stdin=data)
        buffered = run_c(
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) { int c = bgetchar(); int s = 0;"
            " while (c != EOF) { s += c; c = bgetchar(); }"
            " print_int(s); return 0; }",
            stdin=data,
        )
        assert direct.stdout == buffered.stdout
        # Buffered I/O issues far fewer external read calls.
        direct_ext = direct.counters.func_counts.get("getchar", 0)
        buffered_ext = buffered.counters.func_counts.get("read_stdin", 0)
        assert buffered_ext * 10 < direct_ext

    def test_buffered_file_reader(self):
        source = (
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) {"
            ' int fd = open("f", O_READ); int c = bfgetc(fd); int n = 0;'
            " while (c != EOF) { n++; c = bfgetc(fd); }"
            " print_int(n); return 0; }"
        )
        assert c_output(source, files={"f": b"x" * 500}) == "500"

    def test_buffered_output_flushes(self):
        source = (
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) { int i;"
            " for (i = 0; i < 300; i++) bputchar('a' + i % 26);"
            " bflush(); return 0; }"
        )
        out = c_output(source)
        assert len(out) == 300 and out.startswith("abc")


class TestExternalsWithoutLibc:
    def test_unlinked_libc_calls_are_external(self):
        module = compile_program(
            "#include <string.h>\n#include <sys.h>\n"
            "int main(void) { return 0; }",
            link_libc=False,
        )
        assert "strlen" in module.externals

    def test_calling_unimplemented_external_traps(self):
        module = compile_program(
            "int mystery(int x);\n"
            "int main(void) { return mystery(1); }",
            link_libc=False,
        )
        with pytest.raises(VMTrap, match="unavailable external"):
            Machine(module).run()


class TestSoundnessFixes:
    """Regression tests for the VM soundness bugfix batch."""

    def test_direct_call_arity_mismatch_rejected_at_link(self):
        # A direct CALL with the wrong argument count is a malformed
        # module; it must be rejected when the Machine links it, not
        # silently overwrite callee temporaries at run time.
        from repro.il.instructions import Opcode

        module = compile_program(c_main(
            "print_int(one(1));",
            prelude="int one(int a) { return a; }",
        ))
        for instr in module.functions["main"].body:
            if instr.op is Opcode.CALL and instr.name == "one":
                instr.args.append(7)
        with pytest.raises(ILError, match="expected 1"):
            Machine(module)

    def test_jump_to_a_missing_label_rejected_at_link(self):
        from repro.il.instructions import Opcode

        module = compile_program(
            c_main("int i; for (i = 0; i < 3; i++) print_int(i);")
        )
        jumps = [
            instr for instr in module.functions["main"].body
            if instr.op is Opcode.JUMP
        ]
        jumps[-1].label = "nowhere"
        with pytest.raises(ILError, match="main: jump to 'nowhere'"):
            Machine(module)

    def test_write_stdout_negative_length_reports_zero(self):
        source = c_main("char b[4]; print_int(write_stdout(b, -5));")
        result = run_c(source)
        assert result.stdout == "0"

    def test_write_block_negative_length_reports_zero(self):
        source = c_main("char b[4]; print_int(write_block(1, b, -3));")
        result = run_c(source)
        assert result.stdout == "0"

    def test_read_stdin_negative_maximum_reads_nothing(self):
        source = c_main(
            "char b[4]; print_int(read_stdin(b, -2));"
            " print_int(getchar());"
        )
        # The clamp must not consume input: the next getchar still
        # sees the first stdin byte.
        assert c_output(source, stdin=b"A") == "065"

    def test_read_block_negative_maximum_reads_nothing(self):
        source = c_main(
            'int fd = open("f", O_READ);'
            " print_int(read_block(fd, (char *)0, -1));"
            " print_int(fgetc(fd));"
        )
        assert c_output(source, files={"f": b"B"}) == "066"

    def test_machine_is_single_shot(self):
        module = compile_program(c_main("putchar('x');"))
        machine = Machine(module, VirtualOS())
        machine.run()
        with pytest.raises(ILError, match="single-shot"):
            machine.run()

    def test_heap_limit_traps(self):
        module = compile_program(c_main("while (1) malloc(4096);"))
        with pytest.raises(VMTrap, match="out of heap memory"):
            Machine(module, VirtualOS(), heap_limit=1 << 16).run()

    def test_default_heap_limit_allows_normal_allocation(self):
        assert c_output(c_main(
            "char *p = malloc(1 << 20); p[0] = 'y'; putchar(p[0]);"
        )) == "y"


class TestIndirectCallCorners:
    def test_function_pointer_to_external(self):
        # Taking the address of an external (body-less) function and
        # calling through it must dispatch to the builtin.
        source = c_main(
            "int (*emit)(int c) = putchar; emit('o'); emit('k');"
        )
        assert c_output(source) == "ok"

    def test_icall_arity_mismatch_traps(self):
        source = """
        #include <sys.h>
        int two(int a, int b) { return a + b; }
        int main(void) {
            int (*p)(int v) = (int (*)(int v))two;  /* wrong arity */
            return p(1);
        }
        """
        with pytest.raises(VMTrap, match="args"):
            run_c(source)

    def test_icall_through_garbage_traps(self):
        source = c_main("int (*p)(int v) = (int (*)(int v))12345; p(1);")
        with pytest.raises(VMTrap, match="bad pointer"):
            run_c(source)

    def test_function_pointer_equality(self):
        source = c_main(
            "int (*p)(int c) = putchar; int (*q)(int c) = putchar;"
            " print_int(p == q);"
        )
        assert c_output(source) == "1"

    def test_function_pointer_in_struct(self):
        source = c_main(
            "struct op row; row.apply = dbl; print_int(row.apply(21));",
            prelude=(
                "int dbl(int x) { return 2 * x; }"
                "struct op { int (*apply)(int x); };"
            ),
        )
        assert c_output(source) == "42"
