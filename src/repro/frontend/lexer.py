"""Hand-written lexer for the C subset.

The lexer consumes already-preprocessed text (no directives, though it
tolerates and skips ``#`` line markers) and produces a list of
:class:`~repro.frontend.tokens.Token`, terminated by an EOF token.
"""

from __future__ import annotations

from repro.errors import LexError, SourceLocation
from repro.frontend.tokens import (
    KEYWORDS,
    PUNCTUATORS_1,
    PUNCTUATORS_2,
    PUNCTUATORS_3,
    Token,
    TokenKind,
)

_SIMPLE_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
    "a": 7,
    "b": 8,
    "f": 12,
    "v": 11,
}


class Lexer:
    """Tokenizes one source buffer.

    >>> [t.spelling for t in Lexer("a + 1").tokens()[:-1]]
    ['a', '+', '1']

    ``lines``, when given, holds the source line of each line of
    ``text`` (the preprocessor's :meth:`expand` map); tokens carry that
    line instead of their line in ``text``. An entry may instead be a
    ``(file, line)`` pair, for a line from another file than
    ``filename``.
    """

    def __init__(
        self,
        text: str,
        filename: str = "<input>",
        lines: list[int | tuple[str, int]] | None = None,
    ):
        self._text = text
        self._filename = filename
        self._lines = lines
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokens(self) -> list[Token]:
        """Lex the entire buffer, returning tokens ending with EOF."""
        result = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.kind is TokenKind.EOF:
                return result

    # ------------------------------------------------------------------
    # scanning helpers

    def _location(self) -> SourceLocation:
        line = self._lines[self._line - 1] if self._lines else self._line
        if isinstance(line, tuple):
            return SourceLocation(*line, self._col)
        return SourceLocation(self._filename, line, self._col)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._text):
            return self._text[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace, comments, and residual ``#`` line markers."""
        while self._pos < len(self._text):
            char = self._peek()
            if char in " \t\r\n\f\v":
                self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif char == "#" and self._col == 1:
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self._location()
        self._advance(2)
        while self._pos < len(self._text):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise LexError("unterminated block comment", start)

    # ------------------------------------------------------------------
    # token producers

    def _next_token(self) -> Token:
        self._skip_trivia()
        location = self._location()
        if self._pos >= len(self._text):
            return Token(TokenKind.EOF, "", location=location)
        char = self._peek()
        if char.isalpha() or char == "_":
            return self._lex_identifier(location)
        if char.isdigit():
            return self._lex_number(location)
        if char == "'":
            return self._lex_char(location)
        if char == '"':
            return self._lex_string(location)
        return self._lex_punct(location)

    def _lex_identifier(self, location: SourceLocation) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        spelling = self._text[start : self._pos]
        kind = TokenKind.KEYWORD if spelling in KEYWORDS else TokenKind.IDENT
        return Token(kind, spelling, spelling, location)

    def _lex_number(self, location: SourceLocation) -> Token:
        start = self._pos
        if self._peek() == "0" and self._peek(1) and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            spelling = self._text[start : self._pos]
            if len(spelling) == 2:
                raise LexError("malformed hexadecimal constant", location)
            value = int(spelling, 16)
        else:
            while self._peek().isdigit():
                self._advance()
            spelling = self._text[start : self._pos]
            # Octal constants: a leading zero in C; decode accordingly.
            try:
                value = (
                    int(spelling, 8)
                    if spelling.startswith("0") and len(spelling) > 1
                    else int(spelling)
                )
            except ValueError:  # e.g. "08": digits 8/9 are not octal
                raise LexError(
                    f"malformed octal constant {spelling!r}", location
                )
        while self._peek() and self._peek() in "uUlL":  # skip suffixes
            self._advance()
            spelling = self._text[start : self._pos]
        if self._peek().isalpha():
            raise LexError(f"malformed integer constant {spelling!r}", location)
        return Token(TokenKind.INT_CONST, spelling, value, location)

    def _lex_escape(self, location: SourceLocation) -> int:
        """Decode one escape sequence; the caller consumed the backslash."""
        char = self._peek()
        if char == "":
            raise LexError("unterminated escape sequence", location)
        if char == "x":
            self._advance()
            digits = ""
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("malformed hex escape", location)
            return int(digits, 16) & 0xFF
        if char.isdigit():
            digits = ""
            while self._peek().isdigit() and len(digits) < 3:
                digits += self._peek()
                self._advance()
            return int(digits, 8) & 0xFF
        if char in _SIMPLE_ESCAPES:
            self._advance()
            return _SIMPLE_ESCAPES[char]
        raise LexError(f"unknown escape sequence '\\{char}'", location)

    def _lex_char(self, location: SourceLocation) -> Token:
        start = self._pos
        self._advance()  # opening quote
        char = self._peek()
        if char == "" or char == "\n":
            raise LexError("unterminated character constant", location)
        if char == "\\":
            self._advance()
            value = self._lex_escape(location)
        else:
            value = ord(char)
            self._advance()
        if self._peek() != "'":
            raise LexError("multi-character constant", location)
        self._advance()
        return Token(TokenKind.CHAR_CONST, self._text[start : self._pos], value, location)

    def _lex_string(self, location: SourceLocation) -> Token:
        start = self._pos
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            char = self._peek()
            if char == "" or char == "\n":
                raise LexError("unterminated string literal", location)
            if char == '"':
                self._advance()
                break
            if char == "\\":
                self._advance()
                chars.append(chr(self._lex_escape(location)))
            else:
                chars.append(char)
                self._advance()
        return Token(TokenKind.STRING, self._text[start : self._pos], "".join(chars), location)

    def _lex_punct(self, location: SourceLocation) -> Token:
        for length, table in ((3, PUNCTUATORS_3), (2, PUNCTUATORS_2), (1, PUNCTUATORS_1)):
            candidate = self._text[self._pos : self._pos + length]
            if candidate in table:
                self._advance(length)
                return Token(TokenKind.PUNCT, candidate, candidate, location)
        raise LexError(f"stray character {self._peek()!r}", location)


def tokenize(
    text: str,
    filename: str = "<input>",
    lines: list[int | tuple[str, int]] | None = None,
) -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list ending in EOF."""
    return Lexer(text, filename, lines).tokens()
