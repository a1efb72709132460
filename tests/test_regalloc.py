"""Tests for the register allocator (interference, coloring, pressure)."""

from repro.compiler import compile_program
from repro.experiments.extensions import measure_extension
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import RunSpec, profile_module
from repro.regalloc import (
    allocate_function,
    allocate_module,
    build_interference,
    pressure_experiment,
)
from repro.regalloc.pressure import measure_pressure


def fn_of(source, name="main"):
    return compile_program(source, link_libc=False).functions[name]


class TestInterference:
    def test_simultaneously_live_registers_interfere(self):
        function = fn_of(
            "#include <sys.h>\n"
            "int main(void) { int a = getchar(); int b = getchar();"
            " print_int(a + b); print_int(a - b); return 0; }"
        )
        graph = build_interference(function)
        a_regs = [r for r in graph.nodes if r.startswith("v.a")]
        b_regs = [r for r in graph.nodes if r.startswith("v.b")]
        assert a_regs and b_regs
        assert b_regs[0] in graph.neighbors(a_regs[0])

    def test_disjoint_lifetimes_do_not_interfere(self):
        function = fn_of(
            "#include <sys.h>\n"
            "int main(void) { int a = getchar(); print_int(a);"
            " { int b = getchar(); print_int(b); } return 0; }"
        )
        graph = build_interference(function)
        a_regs = [r for r in graph.nodes if r.startswith("v.a")]
        b_regs = [r for r in graph.nodes if r.startswith("v.b")]
        assert b_regs[0] not in graph.neighbors(a_regs[0])

    def test_move_pairs_recorded(self):
        function = fn_of(
            "#include <sys.h>\n"
            "int main(void) { int a = getchar(); int b = a;"
            " print_int(b); return 0; }"
        )
        graph = build_interference(function)
        assert graph.move_pairs

    def test_use_counts_positive_for_used_registers(self):
        function = fn_of("int main(void) { int a = 1; return a + a; }")
        graph = build_interference(function)
        assert all(count > 0 for count in graph.use_counts.values())


class TestColoring:
    def test_valid_coloring_on_every_benchmark_function(self):
        from repro.workloads import benchmark_by_name

        module = benchmark_by_name("eqn").compile()
        for name, allocation in allocate_module(module, 12).items():
            assert allocation.verify(), name

    def test_small_function_needs_few_registers(self):
        function = fn_of("int main(void) { int a = 1; return a + 1; }")
        allocation = allocate_function(function, 16)
        assert allocation.spill_count == 0
        assert allocation.registers_used <= 3

    def test_single_register_machine_spills(self):
        function = fn_of(
            "#include <sys.h>\n"
            "int main(void) { int a = getchar(); int b = getchar();"
            " int c = getchar(); print_int(a + b + c);"
            " print_int(a * b * c); return 0; }"
        )
        allocation = allocate_function(function, 1)
        assert allocation.spill_count > 0
        assert allocation.verify()

    def test_more_registers_fewer_spills(self):
        function = fn_of(
            "#include <sys.h>\n"
            "int main(void) { int a = getchar(); int b = getchar();"
            " int c = getchar(); int d = getchar();"
            " print_int(a + b + c + d); print_int(a * b * c * d);"
            " return 0; }"
        )
        spills = [allocate_function(function, k).spill_count for k in (1, 2, 8)]
        assert spills[0] >= spills[1] >= spills[2]
        assert spills[2] == 0

    def test_params_participate(self):
        function = fn_of(
            "int f(int x, int y) { return x * y + x; }"
            "int main(void) { return f(1, 2); }",
            name="f",
        )
        allocation = allocate_function(function, 8)
        colored = set(allocation.assignment) | allocation.spilled
        assert any(reg.startswith("p.x") for reg in colored)


class TestPressure:
    def test_report_fields(self):
        module = compile_program(
            "#include <sys.h>\n"
            "int f(int x) { return x + 1; }\n"
            "int main(void) { int i; int s = 0;"
            " for (i = 0; i < 50; i++) s += f(i);"
            " print_int(s); return 0; }"
        )
        profile = profile_module(module, [RunSpec()])
        report = measure_pressure(module, profile, 8)
        assert report.save_restore_events > 0
        assert report.total_memory_events >= report.spill_events

    def test_inlining_reduces_boundary_traffic(self):
        module = compile_program(
            "#include <sys.h>\n"
            "int f(int x) { return x * 2 + 1; }\n"
            "int main(void) { int i; int s = 0;"
            " for (i = 0; i < 200; i++) s += f(i);"
            " print_int(s); return 0; }",
            pass_spec=DEFAULT_OPT_SPEC,
        )
        measured = measure_extension(module, [RunSpec()], name="f")
        results = pressure_experiment(module, measured, ks=(8,))
        [(k, before, after)] = results
        assert after.save_restore_events < before.save_restore_events
        assert after.total_memory_events < before.total_memory_events
