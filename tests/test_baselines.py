"""Unit tests for the no-profile baseline heuristics: each one's arc
weights, selected under and expanded by the profile-guided expander."""

from repro.baselines import (
    hint_weights,
    leaf_weights,
    loop_weights,
    size_weights,
    static_heuristics,
)
from repro.compiler import compile_program
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.profiler.profile import RunSpec, run_once

SOURCE = """
#include <sys.h>
inline int hinted(int x) { return x + 1; }
int leaf(int x) { return x * 2; }
int nonleaf(int x) { return leaf(x) + 1; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 10; i++)
        s += nonleaf(i) + hinted(i);
    s += leaf(s);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""

HEURISTICS = (leaf_weights, loop_weights, size_weights, hint_weights)


def compiled():
    return compile_program(SOURCE)


def inlined(weights, module=None, params=None):
    """``module`` (default: SOURCE's) inlined under ``weights``."""
    module = module or compiled()
    return inline_module(module, weights(module), params)


def expanded_callees(result):
    return {record.callee for record in result.records}


class TestLeafInline:
    def test_expands_leaf_calls(self):
        assert "leaf" in expanded_callees(inlined(leaf_weights))

    def test_preserves_output(self):
        module = compiled()
        result = inlined(leaf_weights, module)
        assert run_once(result.module).stdout == run_once(module).stdout

    def test_original_untouched(self):
        module = compiled()
        before = module.total_code_size()
        inlined(leaf_weights, module)
        assert module.total_code_size() == before

    def test_transitive_leaves(self):
        # The leaf set is the original module's: nonleaf calls leaf, so
        # its call sites weigh nothing even once leaf is inlined into it.
        result = inlined(leaf_weights)
        assert "nonleaf" not in expanded_callees(result)
        assert result.final_size >= result.original_size


class TestLoopInline:
    def test_expands_loop_sites(self):
        callees = expanded_callees(inlined(loop_weights))
        assert "nonleaf" in callees or "hinted" in callees

    def test_preserves_output(self):
        module = compiled()
        result = inlined(loop_weights, module)
        assert run_once(result.module).stdout == run_once(module).stdout


class TestSizeThreshold:
    def test_small_functions_inlined(self):
        assert {"leaf", "nonleaf", "hinted"} <= expanded_callees(
            inlined(size_weights)
        )

    def test_zero_threshold_inlines_nothing(self, monkeypatch):
        monkeypatch.setattr(static_heuristics, "MAX_CALLEE_SIZE", 0)
        assert inlined(size_weights).records == []

    def test_preserves_output(self):
        module = compiled()
        result = inlined(size_weights, module)
        assert run_once(result.module).stdout == run_once(module).stdout


class TestHintInline:
    def test_only_hinted_functions(self):
        assert expanded_callees(inlined(hint_weights)) == {"hinted"}

    def test_preserves_output(self):
        module = compiled()
        result = inlined(hint_weights, module)
        assert run_once(result.module).stdout == run_once(module).stdout


class TestSizeCap:
    def test_cap_respected(self):
        # The expander's own size identity holds for every heuristic
        # (it raises otherwise), so the cap bounds the physical size.
        params = InlineParameters(size_limit_factor=1.01)
        for weights in HEURISTICS:
            result = inlined(weights, params=params)
            assert result.pre_cleanup_size <= params.size_limit(
                result.original_size
            ), weights.__name__


class TestRecursionSafety:
    def test_recursive_calls_never_expanded(self):
        source = """
        int f(int n) { return n <= 0 ? 0 : f(n - 1) + 1; }
        int main(void) { return f(5) == 5 ? 0 : 1; }
        """
        module = compile_program(source)
        for weights in HEURISTICS:
            result = inlined(weights, module)
            assert all(record.callee != "f" or record.caller != "f"
                       for record in result.records)
            assert run_once(result.module, RunSpec()).exit_code == 0
