"""Unit tests for the inline expander: classification, linearization,
cost function, selection, and physical expansion."""

import pytest

from repro.callgraph.build import build_call_graph
from repro.callgraph.graph import ArcStatus
from repro.compiler import compile_program
from repro.errors import InlineError
from repro.il.verifier import verify_module
from repro.inliner.classify import SiteClass, classify_sites
from repro.inliner.cost import INFINITY, make_cost_model
from repro.inliner.expand import expand_call_site
from repro.inliner.linearize import linearize, order_index
from repro.inliner.manager import InlineExpander, inline_module
from repro.inliner.params import InlineParameters
from repro.inliner.select import select_sites
from repro.profiler.profile import RunSpec, profile_module, run_once

HOT_COLD = """
#include <sys.h>
int hot(int x) { return x * 3 + 1; }
int cold(int x) { return x - 1; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 100; i++)
        s += hot(i);
    s += cold(s);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


def prepared(source, specs=None):
    module = compile_program(source)
    profile = profile_module(module, specs or [RunSpec()], check_exit=False)
    graph = build_call_graph(module, profile)
    return module, profile, graph


class TestClassification:
    def test_classes_partition_all_sites(self):
        module, profile, graph = prepared(HOT_COLD)
        classified = classify_sites(module, graph, profile)
        assert classified.total_static == len(graph.call_site_arcs())

    def test_hot_call_is_safe(self):
        module, profile, graph = prepared(HOT_COLD)
        classified = classify_sites(module, graph, profile)
        [arc] = graph.arcs_between("main", "hot")
        assert classified.by_site[arc.site] is SiteClass.SAFE

    def test_cold_call_is_unsafe(self):
        module, profile, graph = prepared(HOT_COLD)
        classified = classify_sites(module, graph, profile)
        [arc] = graph.arcs_between("main", "cold")
        assert classified.by_site[arc.site] is SiteClass.UNSAFE

    def test_external_call_classified(self):
        module, profile, graph = prepared(HOT_COLD)
        classified = classify_sites(module, graph, profile)
        external = [
            site
            for site, cls in classified.by_site.items()
            if cls is SiteClass.EXTERNAL
        ]
        assert external  # putchar / print_int sites

    def test_pointer_call_classified(self):
        source = """
        int f(int x) { return x; }
        int main(void) { int (*p)(int v) = f; int i; int s = 0;
            for (i = 0; i < 50; i++) s += p(i); return s ? 0 : 1; }
        """
        module, profile, graph = prepared(source)
        classified = classify_sites(module, graph, profile)
        assert classified.dynamic[SiteClass.POINTER] == 50

    def test_self_recursive_call_unsafe(self):
        source = """
        int f(int n) { return n <= 0 ? 0 : n + f(n - 1); }
        int main(void) { return f(50) ? 0 : 1; }
        """
        module, profile, graph = prepared(source)
        classified = classify_sites(module, graph, profile)
        [self_arc] = graph.arcs_between("f", "f")
        assert classified.by_site[self_arc.site] is SiteClass.UNSAFE

    def test_big_frame_recursive_callee_unsafe(self):
        source = """
        int g(int n);
        int f(int n) { char buf[8192]; buf[0] = n;
            return n <= 0 ? buf[0] : g(n - 1); }
        int g(int n) { return f(n - 1); }
        int main(void) { int i; int s = 0;
            for (i = 0; i < 40; i++) s += f(2); return s ? 0 : 1; }
        """
        module, profile, graph = prepared(source)
        params = InlineParameters(stack_bound=4096)
        classified = classify_sites(module, graph, profile, params)
        [arc] = graph.arcs_between("g", "f")
        assert classified.by_site[arc.site] is SiteClass.UNSAFE

    def test_dynamic_fractions_sum_to_one(self):
        module, profile, graph = prepared(HOT_COLD)
        classified = classify_sites(module, graph, profile)
        total = sum(classified.dynamic_fraction(cls) for cls in SiteClass)
        assert total == pytest.approx(1.0)


class TestLinearization:
    def test_weight_order_hot_first(self):
        module, profile, _ = prepared(HOT_COLD)
        sequence = linearize(module, profile, method="weight")
        assert sequence.index("hot") < sequence.index("main")

    def test_hybrid_order_callee_before_caller(self):
        module, profile, _ = prepared(HOT_COLD)
        sequence = linearize(module, profile, method="hybrid")
        assert sequence.index("hot") < sequence.index("main")
        assert sequence.index("cold") < sequence.index("main")

    def test_deterministic_given_seed(self):
        module, profile, _ = prepared(HOT_COLD)
        assert linearize(module, profile, seed=1) == linearize(
            module, profile, seed=1
        )

    def test_unknown_method_raises(self):
        module, profile, _ = prepared(HOT_COLD)
        with pytest.raises(ValueError):
            linearize(module, profile, method="nope")

    def test_order_index(self):
        assert order_index(["a", "b"]) == {"a": 0, "b": 1}

    def test_all_functions_present(self):
        module, profile, _ = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        assert set(sequence) == set(module.functions)


class TestCostModel:
    def test_cheap_hot_arc_finite(self):
        module, profile, graph = prepared(HOT_COLD)
        model = make_cost_model(module, graph, InlineParameters())
        [arc] = graph.arcs_between("main", "hot")
        assert model.evaluate(arc).cost < INFINITY

    def test_below_threshold_infinite(self):
        module, profile, graph = prepared(HOT_COLD)
        model = make_cost_model(module, graph, InlineParameters())
        [arc] = graph.arcs_between("main", "cold")
        arc.weight = 1
        assert model.evaluate(arc).cost == INFINITY

    def test_size_limit_infinite(self):
        module, profile, graph = prepared(HOT_COLD)
        params = InlineParameters(size_limit_fixed=1)
        model = make_cost_model(module, graph, params)
        [arc] = graph.arcs_between("main", "hot")
        assert model.evaluate(arc).cost == INFINITY

    def test_commit_grows_sizes(self):
        module, profile, graph = prepared(HOT_COLD)
        model = make_cost_model(
            module, graph, InlineParameters(), linearize(module, profile)
        )
        [arc] = graph.arcs_between("main", "hot")
        before = model.sizes["main"]
        program_before = model.program_size
        model.commit(arc)
        assert model.sizes["main"] > before
        assert model.program_size > program_before

    def test_commit_accumulates_frames(self):
        module, profile, graph = prepared(HOT_COLD)
        model = make_cost_model(
            module, graph, InlineParameters(), linearize(module, profile)
        )
        [arc] = graph.arcs_between("main", "hot")
        frame_before = model.frames["main"]
        model.commit(arc)
        assert model.frames["main"] >= frame_before

    def test_self_arc_infinite(self):
        source = "int f(int n) { return n ? f(n - 1) : 0; } int main(void) { return f(100) ? 0 : 1; }"
        module, profile, graph = prepared(source)
        model = make_cost_model(module, graph, InlineParameters(weight_threshold=1))
        [arc] = graph.arcs_between("f", "f")
        assert model.evaluate(arc).cost == INFINITY


class TestSelection:
    def test_hot_arc_selected(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        selection = select_sites(module, profile and graph, profile, sequence)
        selected_pairs = {(a.caller, a.callee) for a in selection.selected}
        assert ("main", "hot") in selected_pairs

    def test_cold_arc_rejected(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        select_sites(module, graph, profile, sequence)
        [arc] = graph.arcs_between("main", "cold")
        assert arc.status is ArcStatus.REJECTED

    def test_statuses_assigned(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        select_sites(module, graph, profile, sequence)
        statuses = {arc.status for arc in graph.call_site_arcs()}
        assert ArcStatus.EXPANDABLE not in statuses  # all decided

    def test_special_arcs_not_expandable(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        select_sites(module, graph, profile, sequence)
        for arc in graph.call_site_arcs():
            if arc.status is ArcStatus.NOT_EXPANDABLE:
                assert arc.callee in ("$$$", "###") or arc.caller in ("$$$", "###")

    def test_expected_calls_eliminated(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        selection = select_sites(module, graph, profile, sequence)
        assert selection.expected_calls_eliminated >= 100

    def test_max_expansions_cap(self):
        module, profile, graph = prepared(HOT_COLD)
        sequence = linearize(module, profile)
        params = InlineParameters(max_expansions=0)
        selection = select_sites(module, graph, profile, sequence, params)
        assert selection.selected == []


class TestPhysicalExpansion:
    def test_expansion_preserves_output(self):
        module, profile, graph = prepared(HOT_COLD)
        [arc] = graph.arcs_between("main", "hot")
        before = run_once(module).stdout
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert run_once(working).stdout == before

    def test_expansion_removes_call(self):
        module, profile, graph = prepared(HOT_COLD)
        [arc] = graph.arcs_between("main", "hot")
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        remaining = [
            instr
            for caller, instr in working.call_sites()
            if caller == "main" and instr.name == "hot"
        ]
        assert remaining == []

    def test_copied_sites_get_fresh_ids(self):
        source = """
        int inner(int x) { return x + 1; }
        int outer(int x) { return inner(x) * 2; }
        int main(void) { int i; int s = 0;
            for (i = 0; i < 50; i++) s += outer(i);
            return s ? 0 : 1; }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "outer")
        working = module.clone()
        record = expand_call_site(working, "main", arc.site)
        assert record.copied_sites  # the inner() call was duplicated
        verify_module(working)  # fresh ids keep site uniqueness

    def test_frame_slots_merged(self):
        source = """
        int sum3(int *p) { return p[0] + p[1] + p[2]; }
        int fill(void) { int buf[3]; buf[0] = 1; buf[1] = 2; buf[2] = 3;
            return sum3(buf); }
        int main(void) { int i; int s = 0;
            for (i = 0; i < 30; i++) s += fill(); return s == 180 ? 0 : 1; }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "fill")
        working = module.clone()
        before_slots = len(working.functions["main"].slots)
        expand_call_site(working, "main", arc.site)
        assert len(working.functions["main"].slots) > before_slots
        assert run_once(working).exit_code == 0

    def test_void_callee(self):
        source = """
        #include <sys.h>
        int n = 0;
        void tick(void) { n++; }
        int main(void) { int i; for (i = 0; i < 20; i++) tick();
            print_int(n); return 0; }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "tick")
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        assert run_once(working).stdout == "20"

    def test_multiple_returns_in_callee(self):
        source = """
        #include <sys.h>
        int sign(int x) { if (x > 0) return 1; if (x < 0) return -1; return 0; }
        int main(void) { print_int(sign(5)); print_int(sign(-5));
            print_int(sign(0)); return 0; }
        """
        module, profile, graph = prepared(source)
        working = module.clone()
        for arc in graph.arcs_between("main", "sign"):
            expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert run_once(working).stdout == "1-10"

    def test_unknown_site_raises(self):
        module, profile, graph = prepared(HOT_COLD)
        with pytest.raises(InlineError):
            expand_call_site(module.clone(), "main", 424242)

    def test_self_call_raises(self):
        source = "int f(int n) { return n ? f(n - 1) : 0; } int main(void) { return f(1); }"
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("f", "f")
        with pytest.raises(InlineError, match="self-recursive"):
            expand_call_site(module.clone(), "f", arc.site)

    def test_indirect_site_raises(self):
        source = """
        int f(int x) { return x; }
        int main(void) { int (*p)(int v) = f; return p(0); }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "###")
        with pytest.raises(InlineError, match="indirect"):
            expand_call_site(module.clone(), "main", arc.site)


class TestManager:
    def test_inline_module_end_to_end(self):
        module = compile_program(HOT_COLD)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        assert result.records
        after = run_once(result.module)
        assert after.stdout == run_once(module).stdout
        assert after.counters.calls < run_once(module).counters.calls

    def test_input_module_untouched(self):
        module = compile_program(HOT_COLD)
        profile = profile_module(module, [RunSpec()])
        size_before = module.total_code_size()
        inline_module(module, profile)
        assert module.total_code_size() == size_before

    def test_code_increase_reported(self):
        module = compile_program(HOT_COLD)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        assert result.final_size > result.original_size
        assert result.code_increase == pytest.approx(
            (result.final_size - result.original_size) / result.original_size
        )

    def test_expanded_arcs_marked(self):
        module = compile_program(HOT_COLD)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        for arc in result.selection.selected:
            assert arc.status is ArcStatus.EXPANDED

    def test_transitive_chain_inlined_via_linear_order(self):
        source = """
        #include <sys.h>
        int a(int x) { return x + 1; }
        int b(int x) { return a(x) * 2; }
        int c(int x) { return b(x) + 3; }
        int main(void) { int i; int s = 0;
            for (i = 0; i < 200; i++) s += c(i);
            print_int(s); return 0; }
        """
        module = compile_program(source)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        after = run_once(result.module)
        assert after.stdout == run_once(module).stdout
        # All user-level calls on the hot path disappear.
        user_calls = sum(
            count
            for name, count in after.counters.func_counts.items()
            if name in ("a", "b", "c")
        )
        assert user_calls == 0

    def test_zero_weight_profile_inlines_nothing(self):
        module = compile_program(HOT_COLD)
        empty_profile = profile_module(
            compile_program("int main(void) { return 0; }"), [RunSpec()]
        )
        result = InlineExpander(module, empty_profile).run()
        assert result.records == []

    def test_stack_hazard_blocks_recursive_expansion(self):
        source = """
        #include <sys.h>
        int helper(int n) { char big[4096]; big[0] = n; return big[0] + 1; }
        int walk(int n) { if (n <= 0) return 0;
            return helper(n) + walk(n - 1); }
        int main(void) { print_int(walk(60)); return 0; }
        """
        module = compile_program(source)
        profile = profile_module(module, [RunSpec()])
        params = InlineParameters(stack_bound=2048, weight_threshold=5)
        result = inline_module(module, profile, params)
        callees = {record.callee for record in result.records}
        assert "helper" not in callees  # would explode walk's frames
        assert run_once(result.module).stdout == run_once(module).stdout


class TestExpansionEdgeCases:
    def test_callee_with_indirect_call_inlined(self):
        source = """
        #include <sys.h>
        int add(int a, int b) { return a + b; }
        int apply(int (*f)(int a, int b), int x) { return f(x, 10); }
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 60; i++)
                s += apply(add, i);
            print_int(s);
            return 0;
        }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "apply")
        working = module.clone()
        record = expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert record.copied_sites  # the inner icall got a fresh site id
        assert run_once(working).stdout == run_once(module).stdout

    def test_callee_with_switch_inlined(self):
        source = """
        #include <sys.h>
        int kind(int c) {
            switch (c) {
            case 0: return 10;
            case 1: return 20;
            default: return 30;
            }
        }
        int main(void) {
            int i;
            for (i = 0; i < 40; i++)
                print_int(kind(i % 3));
            return 0;
        }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "kind")
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert run_once(working).stdout == run_once(module).stdout

    def test_two_sites_same_callee_in_one_caller(self):
        source = """
        #include <sys.h>
        int peak(int a, int b) { return a > b ? a : b; }
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 30; i++)
                s += peak(i, 7) + peak(9, i);
            print_int(s);
            return 0;
        }
        """
        module, profile, graph = prepared(source)
        working = module.clone()
        for arc in graph.arcs_between("main", "peak"):
            expand_call_site(working, "main", arc.site)
        verify_module(working)
        # Path-qualified names kept the two copies' slots/regs disjoint.
        assert run_once(working).stdout == run_once(module).stdout

    def test_inlined_copy_reuses_callers_string_globals(self):
        source = """
        #include <sys.h>
        void tag(void) { print_str("tag"); }
        int main(void) {
            int i;
            for (i = 0; i < 20; i++)
                tag();
            return 0;
        }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "tag")
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert run_once(working).stdout == "tag" * 20

    def test_address_taken_param_in_callee(self):
        source = """
        #include <sys.h>
        int via_pointer(int x) { int *p = &x; *p = *p + 5; return x; }
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 50; i++)
                s += via_pointer(i);
            print_int(s);
            return 0;
        }
        """
        module, profile, graph = prepared(source)
        [arc] = graph.arcs_between("main", "via_pointer")
        working = module.clone()
        expand_call_site(working, "main", arc.site)
        verify_module(working)
        assert run_once(working).stdout == run_once(module).stdout
