"""Property-based tests (hypothesis).

The central property is differential: for randomly generated programs,
every transformation in the system — optimization, profile-guided
inlining, static-heuristic inlining — must preserve observable output.
A second family cross-validates the VM's 32-bit arithmetic against the
independent constant-expression evaluator, and the C-subset libc
against Python's semantics.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.baselines import hint_weights, leaf_weights, loop_weights, size_weights
from repro.compiler import compile_program
from repro.frontend.constexpr import apply_binary, apply_unary, wrap32
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.profiler.profile import RunSpec, profile_module, run_once

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# expression generator: (C text, python value with C semantics)

_SAFE_BINOPS = ("+", "-", "*", "&", "|", "^", "<", "<=", "==", "!=", ">", ">=")


@st.composite
def c_expression(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        value = draw(st.integers(min_value=-120, max_value=120))
        return f"({value})", wrap32(value)
    kind = draw(st.sampled_from(("bin", "div", "shift", "un")))
    if kind == "un":
        op = draw(st.sampled_from(("-", "~", "!")))
        text, value = draw(c_expression(depth=depth - 1))
        return f"({op}{text})", apply_unary(op, value)
    left_text, left = draw(c_expression(depth=depth - 1))
    right_text, right = draw(c_expression(depth=depth - 1))
    if kind == "bin":
        op = draw(st.sampled_from(_SAFE_BINOPS))
        return f"({left_text} {op} {right_text})", apply_binary(op, left, right)
    if kind == "div":
        op = draw(st.sampled_from(("/", "%")))
        denominator_text = f"(({right_text}) | 1)"
        denominator = apply_binary("|", right, 1)
        return (
            f"({left_text} {op} {denominator_text})",
            apply_binary(op, left, denominator),
        )
    op = draw(st.sampled_from(("<<", ">>")))
    amount_text = f"(({right_text}) & 15)"
    amount = apply_binary("&", right, 15)
    return f"({left_text} {op} {amount_text})", apply_binary(op, left, amount)


class TestArithmeticAgreement:
    @_SETTINGS
    @given(c_expression())
    def test_vm_matches_reference(self, pair):
        text, expected = pair
        source = (
            "#include <sys.h>\n"
            f"int main(void) {{ print_int({text}); return 0; }}"
        )
        module = compile_program(source, link_libc=False)
        assert run_once(module).stdout == str(expected)

    @_SETTINGS
    @given(c_expression())
    def test_optimizer_agrees_with_vm(self, pair):
        text, expected = pair
        source = (
            "#include <sys.h>\n"
            f"int main(void) {{ print_int({text}); return 0; }}"
        )
        module = compile_program(source, link_libc=False)
        optimize_module(module)
        assert run_once(module).stdout == str(expected)

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_wrap32_idempotent_and_in_range(self, value):
        wrapped = wrap32(value)
        assert -(2**31) <= wrapped <= 2**31 - 1
        assert wrap32(wrapped) == wrapped
        assert (wrapped - value) % (2**32) == 0


# ----------------------------------------------------------------------
# random-program differential testing

@st.composite
def straightline_program(draw):
    """A program with helper functions and a loop in main."""
    n_helpers = draw(st.integers(min_value=1, max_value=4))
    helpers = []
    for index in range(n_helpers):
        body_text, _ = draw(c_expression(depth=2))
        mix = draw(st.sampled_from(("x +", "x *", "x ^", "")))
        helpers.append(
            f"int h{index}(int x) {{ return {mix} {body_text}; }}"
        )
    calls = " + ".join(
        f"h{draw(st.integers(min_value=0, max_value=n_helpers - 1))}(i)"
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    iterations = draw(st.integers(min_value=5, max_value=60))
    return (
        "#include <sys.h>\n"
        + "\n".join(helpers)
        + "\nint main(void) {\n"
        + "    int i; int s = 0;\n"
        + f"    for (i = 0; i < {iterations}; i++) s += {calls};\n"
        + "    print_int(s); putchar(10);\n"
        + "    return 0;\n}\n"
    )


class TestTransformationsPreserveBehaviour:
    @_SETTINGS
    @given(straightline_program())
    def test_optimize_preserves_output(self, source):
        module = compile_program(source)
        expected = run_once(module).stdout
        optimize_module(module)
        assert run_once(module).stdout == expected

    @_SETTINGS
    @given(
        straightline_program(),
        st.integers(min_value=1, max_value=50),
        st.sampled_from((1.1, 1.5, 3.0)),
        st.sampled_from(("weight", "hybrid")),
    )
    def test_inline_preserves_output(self, source, threshold, growth, method):
        module = compile_program(source)
        expected = run_once(module).stdout
        profile = profile_module(module, [RunSpec()])
        params = InlineParameters(
            weight_threshold=threshold, size_limit_factor=growth
        )
        result = inline_module(module, profile, params, linearize_method=method)
        assert run_once(result.module).stdout == expected

    @_SETTINGS
    @given(straightline_program())
    def test_inline_then_optimize_preserves_output(self, source):
        module = compile_program(source)
        expected = run_once(module).stdout
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        optimize_module(result.module)
        assert run_once(result.module).stdout == expected

    @_SETTINGS
    @given(straightline_program())
    def test_static_heuristics_preserve_output(self, source):
        module = compile_program(source)
        expected = run_once(module).stdout
        for weights in (leaf_weights, loop_weights, size_weights, hint_weights):
            result = inline_module(module, weights(module))
            assert run_once(result.module).stdout == expected

    @_SETTINGS
    @given(straightline_program())
    def test_inline_never_increases_dynamic_calls(self, source):
        module = compile_program(source)
        before = run_once(module).counters.calls
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        after = run_once(result.module).counters.calls
        assert after <= before

    @_SETTINGS
    @given(straightline_program())
    def test_size_accounting_matches_reality(self, source):
        module = compile_program(source)
        profile = profile_module(module, [RunSpec()])
        result = inline_module(module, profile)
        assert result.final_size == result.module.total_code_size()


# ----------------------------------------------------------------------
# libc vs Python

_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=12,
).filter(lambda s: '"' not in s and "\\" not in s)


def _run_libc(call_text: str) -> str:
    source = (
        "#include <sys.h>\n#include <string.h>\n#include <stdlib.h>\n"
        f"int main(void) {{ print_int({call_text}); return 0; }}"
    )
    return run_once(compile_program(source)).stdout


class TestLibcAgainstPython:
    @_SETTINGS
    @given(_TEXT)
    def test_strlen(self, text):
        assert _run_libc(f'strlen("{text}")') == str(len(text))

    @_SETTINGS
    @given(_TEXT, _TEXT)
    def test_strcmp_sign(self, a, b):
        got = int(_run_libc(f'strcmp("{a}", "{b}")'))
        if a == b:
            assert got == 0
        elif a < b:
            assert got < 0
        else:
            assert got > 0

    @_SETTINGS
    @given(_TEXT, _TEXT)
    def test_strstr(self, haystack, needle):
        found = _run_libc(f'strstr("{haystack}", "{needle}") != NULL')
        assert found == ("1" if needle in haystack else "0")

    @_SETTINGS
    @given(st.integers(min_value=-99999, max_value=99999))
    def test_atoi_roundtrip(self, value):
        assert _run_libc(f'atoi("{value}")') == str(value)

    @_SETTINGS
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_itoa_roundtrip(self, value):
        source = (
            "#include <sys.h>\n#include <stdlib.h>\n"
            "int main(void) { char buf[16];"
            f" itoa({value}, buf); print_str(buf); return 0; }}"
        )
        assert run_once(compile_program(source)).stdout == str(value)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
    def test_sort_through_function_pointer(self, values):
        decls = ", ".join(str(v) for v in values)
        source = (
            "#include <sys.h>\n#include <stdlib.h>\n"
            "int cmp_int(char *a, char *b) { return *(int *)a - *(int *)b; }\n"
            f"int data[{len(values)}] = {{{decls}}};\n"
            "int main(void) { int i;"
            f" sort((char *)data, {len(values)}, 4, cmp_int);"
            f" for (i = 0; i < {len(values)}; i++)"
            " { print_int(data[i]); putchar(' '); } return 0; }"
        )
        out = run_once(compile_program(source)).stdout.split()
        assert [int(x) for x in out] == sorted(values)
