"""Unit tests for the lexer."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def spellings(text):
    return [t.spelling for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("hello") == [TokenKind.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert spellings("_foo42 bar_baz") == ["_foo42", "bar_baz"]

    def test_keywords_are_distinguished(self):
        tokens = tokenize("int intx")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT

    def test_all_keywords(self):
        for word in ("if", "else", "while", "for", "return", "struct",
                     "switch", "case", "default", "break", "continue",
                     "sizeof", "do", "void", "char", "inline"):
            assert tokenize(word)[0].kind is TokenKind.KEYWORD, word

    def test_whitespace_between_tokens(self):
        assert spellings("a\t \n b") == ["a", "b"]


class TestNumbers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex(self):
        assert values("0x1F 0XAB") == [31, 171]

    def test_octal(self):
        assert values("017") == [15]

    def test_suffixes_ignored(self):
        assert values("10L 10u 10UL") == [10, 10, 10]

    def test_malformed_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_trailing_letters_raise(self):
        with pytest.raises(LexError):
            tokenize("123abc")


class TestCharConstants:
    def test_simple(self):
        assert values("'a'") == [ord("a")]

    def test_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\' '\''") == [10, 9, 0, 92, 39]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [65]

    def test_octal_escape(self):
        assert values(r"'\101'") == [65]

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_multichar_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestStrings:
    def test_simple(self):
        assert values('"hello"') == ["hello"]

    def test_escapes_decoded(self):
        assert values(r'"a\nb\tc"') == ["a\nb\tc"]

    def test_empty(self):
        assert values('""') == [""]

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')


class TestPunctuators:
    def test_maximal_munch(self):
        assert spellings("a<<=b") == ["a", "<<=", "b"]
        assert spellings("a<<b") == ["a", "<<", "b"]
        assert spellings("a<b") == ["a", "<", "b"]

    def test_arrow_vs_minus(self):
        assert spellings("p->x - y") == ["p", "->", "x", "-", "y"]

    def test_increment(self):
        assert spellings("a+++b") == ["a", "++", "+", "b"]

    def test_stray_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestComments:
    def test_line_comment(self):
        assert spellings("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert spellings("a /* x */ b") == ["a", "b"]

    def test_block_comment_multiline(self):
        assert spellings("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_hash_line_skipped_at_column_one(self):
        assert spellings("# 1 anything\nfoo") == ["foo"]


class TestLocations:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_propagates(self):
        token = tokenize("x", filename="foo.c")[0]
        assert token.location.filename == "foo.c"

    def test_error_carries_location(self):
        with pytest.raises(LexError) as info:
            tokenize("\n\n  @")
        assert info.value.location.line == 3


class TestLineMap:
    def test_tokens_take_the_mapped_line_and_keep_their_column(self):
        tokens = tokenize("a\n  b", "f.c", lines=[5, 9])
        assert [(t.location.line, t.location.column) for t in tokens[:2]] == [
            (5, 1),
            (9, 3),
        ]
        assert str(tokens[1].location) == "f.c:9:3"

    def test_a_pair_names_the_file_of_its_line(self):
        tokens = tokenize("a\n  b", "f.c", lines=[("<libc>", 5), ("f.c", 2)])
        assert [str(t.location) for t in tokens[:2]] == ["<libc>:5:1", "f.c:2:3"]
