"""Unit tests for the weighted call graph."""

import pytest

from repro.callgraph.build import build_call_graph
from repro.callgraph.cycles import find_sccs, recursive_functions
from repro.callgraph.graph import (
    EXTERNAL_NODE,
    POINTER_NODE,
    ArcKind,
    CallGraph,
)
from repro.callgraph.reachability import (
    eliminate_unreachable,
    reachable_functions,
)
from repro.compiler import compile_program
from repro.profiler.profile import RunSpec, profile_module


def graph_for(source, profile=False, specs=None, link_libc=False):
    module = compile_program(source, link_libc=link_libc)
    data = None
    if profile:
        data = profile_module(module, specs or [RunSpec()], check_exit=False)
    return module, build_call_graph(module, data)


PLAIN = """
int helper(int x) { return x + 1; }
int middle(int x) { return helper(x) + helper(x + 1); }
int main(void) { return middle(3); }
"""


class TestConstruction:
    def test_nodes_for_every_function(self):
        _, graph = graph_for(PLAIN)
        assert {"helper", "middle", "main"} <= set(graph.nodes)

    def test_one_arc_per_call_site(self):
        _, graph = graph_for(PLAIN)
        arcs = graph.arcs_between("middle", "helper")
        assert len(arcs) == 2
        assert arcs[0].site != arcs[1].site

    def test_arc_weights_from_profile(self):
        source = """
        int f(int x) { return x; }
        int main(void) { int i; int s = 0;
            for (i = 0; i < 10; i++) s += f(i); return 0; }
        """
        _, graph = graph_for(source, profile=True)
        [arc] = graph.arcs_between("main", "f")
        assert arc.weight == 10

    def test_node_weights_from_profile(self):
        _, graph = graph_for(PLAIN, profile=True)
        assert graph.node("helper").weight == 2
        assert graph.node("main").weight == 1

    def test_no_special_arcs_for_pure_program(self):
        _, graph = graph_for(PLAIN)
        assert graph.node(EXTERNAL_NODE).out_arcs == []
        assert graph.node(POINTER_NODE).out_arcs == []

    def test_external_call_routes_to_dollar_node(self):
        source = """
        #include <sys.h>
        int main(void) { return putchar('x') == 'x' ? 0 : 1; }
        """
        _, graph = graph_for(source)
        arcs = graph.arcs_between("main", EXTERNAL_NODE)
        assert len(arcs) == 1
        assert arcs[0].kind is ArcKind.EXTERNAL

    def test_external_node_reaches_every_function(self):
        source = """
        #include <sys.h>
        int quiet(int x) { return x; }
        int main(void) { putchar('x'); return quiet(0); }
        """
        _, graph = graph_for(source)
        succ = graph.successors(EXTERNAL_NODE)
        assert {"quiet", "main"} <= succ

    def test_pointer_call_routes_to_hash_node(self):
        source = """
        int f(int x) { return x; }
        int main(void) { int (*p)(int v) = f; return p(1); }
        """
        _, graph = graph_for(source)
        arcs = graph.arcs_between("main", POINTER_NODE)
        assert len(arcs) == 1
        assert arcs[0].kind is ArcKind.POINTER

    def test_pointer_node_targets_address_taken_only_without_externals(self):
        source = """
        int taken(int x) { return x; }
        int nottaken(int x) { return x; }
        int main(void) { int (*p)(int v) = taken;
            return p(1) + nottaken(2); }
        """
        _, graph = graph_for(source)
        succ = graph.successors(POINTER_NODE)
        assert "taken" in succ
        assert "nottaken" not in succ

    def test_pointer_node_targets_everything_with_externals(self):
        source = """
        #include <sys.h>
        int taken(int x) { return x; }
        int nottaken(int x) { return x; }
        int main(void) { int (*p)(int v) = taken;
            putchar('x'); return p(1) + nottaken(2); }
        """
        _, graph = graph_for(source)
        assert "nottaken" in graph.successors(POINTER_NODE)

    def test_call_site_arcs_excludes_synthetic(self):
        source = """
        #include <sys.h>
        int main(void) { putchar('x'); return 0; }
        """
        _, graph = graph_for(source)
        for arc in graph.call_site_arcs():
            assert arc.kind is not ArcKind.SYNTHETIC
            assert arc.site >= 0

    def test_duplicate_arc_id_rejected(self):
        graph = CallGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_arc(1, "a", "b")
        with pytest.raises(ValueError):
            graph.add_arc(1, "a", "b")


class TestCycles:
    def test_acyclic_graph_has_no_recursion(self):
        _, graph = graph_for(PLAIN)
        assert recursive_functions(graph) == set()

    def test_self_recursion_detected(self):
        source = "int f(int n) { return n ? f(n - 1) : 0; } int main(void) { return f(3); }"
        _, graph = graph_for(source)
        assert "f" in recursive_functions(graph)
        assert graph.self_recursive("f")

    def test_mutual_recursion_detected(self):
        source = """
        int odd(int n);
        int even(int n) { return n == 0 ? 1 : odd(n - 1); }
        int odd(int n) { return n == 0 ? 0 : even(n - 1); }
        int main(void) { return even(4); }
        """
        _, graph = graph_for(source)
        recursive = recursive_functions(graph)
        assert {"even", "odd"} <= recursive
        assert "main" not in recursive

    def test_external_closure_creates_conservative_cycles(self):
        source = """
        #include <sys.h>
        int noisy(int x) { putchar(x); return x; }
        int main(void) { return noisy('a'); }
        """
        _, graph = graph_for(source)
        # noisy -> $$$ -> noisy is a conservative cycle (the paper's
        # worst-case assumption about externals).
        assert "noisy" in recursive_functions(graph)

    def test_sccs_callee_first(self):
        _, graph = graph_for(PLAIN)
        order = [name for scc in find_sccs(graph) for name in scc]
        assert order.index("helper") < order.index("middle") < order.index("main")

    def test_scc_groups_cycle(self):
        source = """
        int b(int n);
        int a(int n) { return n ? b(n - 1) : 0; }
        int b(int n) { return n ? a(n - 1) : 1; }
        int main(void) { return a(5); }
        """
        _, graph = graph_for(source)
        components = [set(c) for c in find_sccs(graph)]
        assert {"a", "b"} in components


class TestReachability:
    def test_all_reachable_in_connected_graph(self):
        _, graph = graph_for(PLAIN)
        assert {"main", "middle", "helper"} <= reachable_functions(graph)

    def test_unreachable_function_found(self):
        source = PLAIN + "\nint orphan(void) { return 9; }"
        _, graph = graph_for(source)
        assert "orphan" not in reachable_functions(graph)

    def test_eliminate_removes_orphan(self):
        source = PLAIN + "\nint orphan(void) { return 9; }"
        module, graph = graph_for(source)
        removed = eliminate_unreachable(module, graph)
        assert removed == ["orphan"]
        assert "orphan" not in module.functions

    def test_eliminate_conservative_with_externals(self):
        source = """
        #include <sys.h>
        int orphan(void) { return 9; }
        int main(void) { putchar('x'); return 0; }
        """
        module, graph = graph_for(source)
        removed = eliminate_unreachable(module, graph)
        assert removed == []
        assert "orphan" in module.functions

    def test_address_taken_survives_aggressive_mode(self):
        source = """
        int used_via_pointer(int x) { return x; }
        int (*table[1])(int x) = {used_via_pointer};
        int main(void) { return table[0](1); }
        """
        module, graph = graph_for(source)
        removed = eliminate_unreachable(module, graph)
        assert "used_via_pointer" not in removed


class TestDotExport:
    def test_dot_structure(self):
        from repro.callgraph.dot import to_dot

        module, graph = graph_for(PLAIN)
        dot = to_dot(graph)
        assert dot.startswith("digraph callgraph {")
        assert '"main"' in dot and '"helper"' in dot
        assert '"middle" -> "helper"' in dot

    def test_synthetic_arcs_hidden_by_default(self):
        from repro.callgraph.dot import to_dot

        source = (
            "#include <sys.h>\n"
            "int main(void) { putchar('x'); return 0; }"
        )
        module, graph = graph_for(source)
        plain = to_dot(graph)
        full = to_dot(graph, include_synthetic=True)
        assert plain.count("->") < full.count("->")

    def test_min_weight_filters(self):
        from repro.callgraph.dot import to_dot

        _, graph = graph_for(PLAIN, profile=True)
        filtered = to_dot(graph, min_weight=10.0)
        assert '"middle" -> "helper"' not in filtered
