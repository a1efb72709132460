"""Unit tests for the mini preprocessor."""

import pytest

from repro.errors import PreprocessorError
from repro.frontend.preprocessor import Preprocessor, preprocess


def pp(text, headers=None, predefined=None):
    return preprocess(text, headers=headers, predefined=predefined)


class TestObjectMacros:
    def test_simple_substitution(self):
        assert "x = 5 ;" in pp("#define N 5\nx = N;").replace("5;", "5 ;").replace(
            "x = 5;", "x = 5 ;"
        ) or "x = 5;" in pp("#define N 5\nx = N;")

    def test_substitution_value(self):
        out = pp("#define N 5\nint x = N;")
        assert "int x = 5;" in out

    def test_no_substitution_inside_identifier(self):
        out = pp("#define N 5\nint NN = 1; int xN = N;")
        assert "int NN = 1;" in out
        assert "int xN = 5;" in out

    def test_no_substitution_inside_string(self):
        out = pp('#define N 5\nchar *s = "N";')
        assert '"N"' in out

    def test_chained_macros(self):
        out = pp("#define A B\n#define B 7\nint x = A;")
        assert "int x = 7;" in out

    def test_self_reference_does_not_loop(self):
        out = pp("#define X X\nint X;")
        assert "int X;" in out

    def test_undef(self):
        out = pp("#define N 5\n#undef N\nint x = N;")
        assert "int x = N;" in out

    def test_redefinition_wins(self):
        out = pp("#define N 5\n#define N 6\nint x = N;")
        assert "int x = 6;" in out


class TestFunctionMacros:
    def test_single_parameter(self):
        out = pp("#define SQ(x) ((x)*(x))\nint y = SQ(3);")
        assert "int y = ((3)*(3));" in out

    def test_two_parameters(self):
        out = pp("#define MAX(a,b) ((a)>(b)?(a):(b))\nint y = MAX(1, 2);")
        assert "((1)>(2)?(1):(2))" in out

    def test_name_without_parens_not_invoked(self):
        out = pp("#define F(x) x\nint y = F;")
        assert "int y = F;" in out

    def test_nested_invocation(self):
        out = pp("#define SQ(x) ((x)*(x))\nint y = SQ(SQ(2));")
        assert "((((2)*(2)))*(((2)*(2))))" in out

    def test_argument_count_mismatch(self):
        with pytest.raises(PreprocessorError):
            pp("#define F(a,b) a+b\nint x = F(1);")

    def test_zero_parameter_macro(self):
        out = pp("#define GET() 99\nint x = GET();")
        assert "int x = 99;" in out

    def test_parenthesized_argument_with_comma(self):
        out = pp("#define ID(x) x\nint y = ID((1, 2));")
        assert "(1, 2)" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = pp("#define YES 1\n#ifdef YES\nint a;\n#endif\nint b;")
        assert "int a;" in out and "int b;" in out

    def test_ifdef_skipped(self):
        out = pp("#ifdef NO\nint a;\n#endif\nint b;")
        assert "int a;" not in out and "int b;" in out

    def test_ifndef(self):
        out = pp("#ifndef NO\nint a;\n#endif")
        assert "int a;" in out

    def test_else(self):
        out = pp("#ifdef NO\nint a;\n#else\nint b;\n#endif")
        assert "int a;" not in out and "int b;" in out

    def test_elif(self):
        out = pp("#if 0\nint a;\n#elif 1\nint b;\n#else\nint c;\n#endif")
        assert "int b;" in out
        assert "int a;" not in out and "int c;" not in out

    def test_nested_conditionals(self):
        text = (
            "#define A 1\n#ifdef A\n#ifdef B\nint x;\n#else\nint y;\n"
            "#endif\n#endif"
        )
        out = pp(text)
        assert "int y;" in out and "int x;" not in out

    @pytest.mark.parametrize(
        "condition",
        [
            "2 + 3 == 5",
            "1 + 2 * 3 == 7",
            "-7 / 2 == -3",
            "-7 % 2 == -1",
            "0x10",
            "'a' == 97",
            "1 << 4 == 16",
            "256 >> 4 == 16",
            "(6 & 3) == 2",
            "(4 | 1) == 5",
            "(6 ^ 3) == 5",
            "~0 == -1",
            "0 ? 0 : 1",
        ],
    )
    def test_if_expression_arithmetic(self, condition):
        # #if evaluates C integer constant expressions, as case labels do.
        out = pp(f"#if {condition}\nint a;\n#endif")
        assert "int a;" in out

    def test_if_defined(self):
        out = pp("#define X 1\n#if defined(X) && !defined(Y)\nint a;\n#endif")
        assert "int a;" in out

    def test_unknown_identifier_is_zero(self):
        out = pp("#if UNDEFINED_THING\nint a;\n#endif\nint b;")
        assert "int a;" not in out

    def test_unterminated_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#ifdef A\nint x;")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#endif")

    def test_defines_inside_false_branch_ignored(self):
        out = pp("#ifdef NO\n#define N 5\n#endif\nint x = N;")
        assert "int x = N;" in out


class TestIncludes:
    def test_quoted_include(self):
        out = pp('#include "h.h"\nint b;', headers={"h.h": "int a;"})
        assert "int a;" in out and "int b;" in out

    def test_angle_include(self):
        out = pp("#include <h.h>", headers={"h.h": "int a;"})
        assert "int a;" in out

    def test_missing_header_raises(self):
        with pytest.raises(PreprocessorError):
            pp('#include "nope.h"')

    def test_include_guard_pattern(self):
        header = "#ifndef H\n#define H\nint once;\n#endif"
        out = pp(
            '#include "h.h"\n#include "h.h"', headers={"h.h": header}
        )
        assert out.count("int once;") == 1

    def test_header_macros_visible_after_include(self):
        out = pp('#include "h.h"\nint x = N;', headers={"h.h": "#define N 3"})
        assert "int x = 3;" in out

    def test_include_depth_limit(self):
        with pytest.raises(PreprocessorError):
            pp('#include "a.h"', headers={"a.h": '#include "a.h"'})


class TestMisc:
    def test_line_continuation(self):
        out = pp("#define LONG 1 + \\\n 2\nint x = LONG;")
        assert "int x = 1 +  2;" in out

    def test_error_directive(self):
        with pytest.raises(PreprocessorError):
            pp("#error broken")

    def test_error_in_false_branch_ignored(self):
        out = pp("#ifdef NO\n#error never\n#endif\nint x;")
        assert "int x;" in out

    def test_pragma_ignored(self):
        assert "int x;" in pp("#pragma whatever\nint x;")

    def test_predefined_macros(self):
        out = pp("int x = FOO;", predefined={"FOO": "42"})
        assert "int x = 42;" in out

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#frobnicate")

    def test_comments_stripped_from_directives(self):
        out = pp("#define N 5 /* five */\nint x = N;")
        assert "int x = 5" in out

    def test_macro_state_object(self):
        preprocessor = Preprocessor()
        preprocessor.process("#define A 1\n#define B(x) x")
        assert "A" in preprocessor.macros
        assert preprocessor.macros["B"].is_function_like


class TestLineOrigins:
    def test_each_output_line_names_its_top_level_line(self):
        headers = {"h.h": "int h1;\n#ifdef X\nint no;\n#endif\nint h2;\n"}
        text = '#include "h.h"\n#define N 1\nint a = N;\n\nint b;\n'
        out, lines = Preprocessor(headers).expand(text, "t.c")
        assert out.split("\n") == ["int h1;", "int h2;", "", "int a = 1;", "", "int b;", "", ""]
        # The header's lines take the #include line; the last is the
        # empty line after the final newline.
        assert lines == [1, 1, 1, 3, 4, 5, 6, 6]

    def test_continued_lines_take_their_first_line(self):
        out, lines = Preprocessor().expand("int a \\\n = 1;\nint b;")
        assert out.split("\n")[:2] == ["int a  = 1;", "int b;"]
        assert lines == [1, 3, 3]

    def test_directives_only_leave_one_line(self):
        out, lines = Preprocessor().expand("#define N 1\n#define M 2")
        assert (out, lines) == ("", [2])
