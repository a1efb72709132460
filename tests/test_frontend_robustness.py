"""Robustness fuzzing: the frontend must never crash with anything but
a ReproError, no matter the input."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.errors import ReproError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_translation_unit
from repro.frontend.preprocessor import preprocess
from repro.compiler import compile_program

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PRINTABLE = st.text(
    alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=80
)

# Token soup: structurally plausible garbage is better at finding
# parser holes than uniform noise.
_TOKENS = st.lists(
    st.sampled_from(
        "int char void struct if else while for return break continue "
        "switch case default do sizeof ( ) { } [ ] ; , * & + - / % = "
        "== != < > <= >= && || ! ~ ? : 0 1 42 'a' \"str\" x y foo "
        "#define #include #ifdef #endif".split()
    ),
    max_size=30,
).map(" ".join)


class TestNoCrashes:
    @_SETTINGS
    @given(_PRINTABLE)
    def test_lexer_total(self, text):
        try:
            tokenize(text)
        except ReproError:
            pass

    @_SETTINGS
    @given(_PRINTABLE)
    def test_preprocessor_total(self, text):
        try:
            preprocess(text)
        except ReproError:
            pass

    @_SETTINGS
    @given(_TOKENS)
    def test_parser_total_on_token_soup(self, text):
        try:
            parse_translation_unit(text)
        except ReproError:
            pass

    @_SETTINGS
    @given(_TOKENS)
    @example("#define int")  # directives only: no line left to lex
    def test_full_compile_total_on_token_soup(self, text):
        try:
            compile_program(text, link_libc=False)
        except ReproError:
            pass

    @_SETTINGS
    @given(_PRINTABLE, _PRINTABLE)
    def test_headers_any_content(self, body, header):
        try:
            preprocess('#include "h.h"\n' + body, headers={"h.h": header})
        except ReproError:
            pass


class TestErrorQuality:
    def test_parse_error_is_repro_error(self):
        try:
            parse_translation_unit("int f( {")
        except ReproError as error:
            assert error.location is not None
        else:  # pragma: no cover
            raise AssertionError("expected a ParseError")

    def test_messages_name_the_offender(self):
        try:
            compile_program("int main(void) { return missing_thing; }")
        except ReproError as error:
            assert "missing_thing" in str(error)
