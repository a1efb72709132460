"""A miniature C preprocessor.

Supports the directives the workload programs need:

- ``#include "name"`` and ``#include <name>``, resolved against a
  mapping of virtual header names to header text,
- object-like and function-like ``#define`` (single-line bodies,
  single-line invocations), ``#undef``,
- ``#ifdef`` / ``#ifndef`` / ``#if`` / ``#elif`` / ``#else`` /
  ``#endif``, where an ``#if`` condition is a C integer constant
  expression: ``defined(X)`` becomes 1 or 0, macros are expanded, every
  identifier left becomes 0, and the parser evaluates the result as it
  evaluates a ``case`` label
  (:func:`~repro.frontend.parser.evaluate_constant`),
- backslash line continuation and comment stripping inside directives.

Output is plain C text with one line per active source line; directive
lines and the lines of inactive conditional branches produce none, so
its line numbers are not the source's. :meth:`Preprocessor.expand`
therefore also returns, for every output line, the line of the
top-level file it came from (an included header's lines take their
``#include`` line), which the lexer stamps on each token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import PreprocessorError, ReproError, SourceLocation
from repro.frontend.parser import evaluate_constant

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*      # identifier
      | \d\w*                      # number, suffix and all
      | "(?:[^"\\\n]|\\.)*"        # string
      | '(?:[^'\\\n]|\\.)'         # char
      | <<=|>>=|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&^|~!<>=?:;,.(){}\[\]\#]
      | \s+
    """,
    re.VERBOSE,
)

_MAX_EXPANSION_DEPTH = 64


@dataclass(frozen=True, slots=True)
class Macro:
    """A ``#define`` entry. ``params`` is None for object-like macros."""

    name: str
    body: str
    params: tuple[str, ...] | None = None

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


def _split_tokens(text: str) -> list[str]:
    """Split ``text`` into preprocessor tokens, keeping whitespace runs."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            # An unknown character (e.g. backslash): pass it through.
            tokens.append(text[pos])
            pos += 1
        else:
            tokens.append(match.group(0))
            pos = match.end()
    return tokens


def _strip_comments(line: str) -> str:
    """Remove ``//`` and single-line ``/* */`` comments from a directive."""
    line = re.sub(r"/\*.*?\*/", " ", line)
    index = line.find("//")
    if index >= 0:
        line = line[:index]
    return line


class Preprocessor:
    """Expands one top-level source buffer."""

    def __init__(
        self,
        headers: dict[str, str] | None = None,
        predefined: dict[str, str] | None = None,
    ):
        self._headers = dict(headers or {})
        self.macros: dict[str, Macro] = {}
        for name, body in (predefined or {}).items():
            self.macros[name] = Macro(name, body)

    # ------------------------------------------------------------------
    # driver

    def process(self, text: str, filename: str = "<input>") -> str:
        """Return the fully expanded text of ``text``."""
        return self.expand(text, filename)[0]

    def expand(self, text: str, filename: str = "<input>") -> tuple[str, list[int]]:
        """The expanded text of ``text`` and, for each of its lines, the
        line of ``text`` it came from."""
        output: list[tuple[int, str]] = []
        self._process_buffer(text, filename, output, include_depth=0)
        # The empty line after the final newline maps to the source's last.
        origins = [origin for origin, _ in output]
        origins.append(text.count("\n") + 1)
        return "".join(f"{line}\n" for _, line in output), origins

    def _process_buffer(
        self,
        text: str,
        filename: str,
        output: list[tuple[int, str]],
        include_depth: int,
        origin: int = 0,
    ) -> None:
        """Append ``(top-level line, expanded line)`` pairs to ``output``;
        ``origin`` is the ``#include`` line of a nested buffer."""
        if include_depth > 16:
            raise PreprocessorError(f"#include nesting too deep in {filename}")
        lines = self._physical_lines(text)
        # Conditional stack entries: (active, seen_true, parent_active).
        cond_stack: list[list[bool]] = []
        for line_number, line in lines:
            location = SourceLocation(filename, line_number, 1)
            stripped = line.lstrip()
            active = all(entry[0] for entry in cond_stack)
            if stripped.startswith("#"):
                self._directive(
                    stripped[1:].strip(),
                    location,
                    output,
                    cond_stack,
                    active,
                    include_depth,
                    origin or line_number,
                )
            elif active:
                output.append(
                    (origin or line_number, self._expand_line(line, location))
                )
        if cond_stack:
            raise PreprocessorError(f"unterminated conditional in {filename}")

    @staticmethod
    def _physical_lines(text: str) -> list[tuple[int, str]]:
        """Join backslash continuations; keep original line numbers."""
        result = []
        pending = ""
        pending_start = 1
        for number, raw in enumerate(text.split("\n"), start=1):
            if not pending:
                pending_start = number
            if raw.endswith("\\"):
                pending += raw[:-1]
                continue
            result.append((pending_start, pending + raw))
            pending = ""
        if pending:
            result.append((pending_start, pending))
        return result

    # ------------------------------------------------------------------
    # directives

    def _directive(
        self,
        body: str,
        location: SourceLocation,
        output: list[tuple[int, str]],
        cond_stack: list[list[bool]],
        active: bool,
        include_depth: int,
        origin: int,
    ) -> None:
        body = _strip_comments(body).strip()
        if not body:
            return
        name, _, rest = body.partition(" ")
        rest = rest.strip()
        if name == "ifdef" or name == "ifndef":
            ident = rest.split()[0] if rest else ""
            if not ident:
                raise PreprocessorError(f"#{name} needs an identifier", location)
            truth = (ident in self.macros) == (name == "ifdef")
            cond_stack.append([active and truth, truth, active])
        elif name == "if":
            truth = bool(self._eval_condition(rest, location))
            cond_stack.append([active and truth, truth, active])
        elif name == "elif":
            if not cond_stack:
                raise PreprocessorError("#elif without #if", location)
            entry = cond_stack[-1]
            if entry[1]:
                entry[0] = False
            else:
                truth = bool(self._eval_condition(rest, location))
                entry[0] = entry[2] and truth
                entry[1] = truth
        elif name == "else":
            if not cond_stack:
                raise PreprocessorError("#else without #if", location)
            entry = cond_stack[-1]
            entry[0] = entry[2] and not entry[1]
            entry[1] = True
        elif name == "endif":
            if not cond_stack:
                raise PreprocessorError("#endif without #if", location)
            cond_stack.pop()
        elif not active:
            return
        elif name == "define":
            self._define(rest, location)
        elif name == "undef":
            ident = rest.split()[0] if rest else ""
            self.macros.pop(ident, None)
        elif name == "include":
            self._include(rest, location, output, include_depth, origin)
        elif name == "pragma" or name == "error" and not active:
            return
        elif name == "error":
            raise PreprocessorError(f"#error {rest}", location)
        else:
            raise PreprocessorError(f"unknown directive #{name}", location)

    def _define(self, rest: str, location: SourceLocation) -> None:
        match = _IDENT_RE.match(rest)
        if match is None:
            raise PreprocessorError("#define needs a macro name", location)
        name = match.group(0)
        after = rest[match.end() :]
        if after.startswith("("):
            close = after.find(")")
            if close < 0:
                raise PreprocessorError("unterminated macro parameter list", location)
            param_text = after[1:close].strip()
            params = tuple(p.strip() for p in param_text.split(",")) if param_text else ()
            for param in params:
                if not _IDENT_RE.fullmatch(param):
                    raise PreprocessorError(f"bad macro parameter {param!r}", location)
            body = after[close + 1 :].strip()
            self.macros[name] = Macro(name, body, params)
        else:
            self.macros[name] = Macro(name, after.strip())

    def _include(
        self,
        rest: str,
        location: SourceLocation,
        output: list[tuple[int, str]],
        include_depth: int,
        origin: int,
    ) -> None:
        rest = rest.strip()
        if rest.startswith('"') and rest.endswith('"') and len(rest) >= 2:
            header = rest[1:-1]
        elif rest.startswith("<") and rest.endswith(">") and len(rest) >= 2:
            header = rest[1:-1]
        else:
            raise PreprocessorError(f"malformed #include {rest!r}", location)
        if header not in self._headers:
            raise PreprocessorError(f"header {header!r} not found", location)
        self._process_buffer(
            self._headers[header], header, output, include_depth + 1, origin
        )

    # ------------------------------------------------------------------
    # macro expansion

    def _expand_line(self, line: str, location: SourceLocation) -> str:
        return self._expand_tokens(_split_tokens(line), location, frozenset(), 0)

    def _expand_tokens(
        self,
        tokens: list[str],
        location: SourceLocation,
        hidden: frozenset[str],
        depth: int,
    ) -> str:
        if depth > _MAX_EXPANSION_DEPTH:
            raise PreprocessorError("macro expansion too deep", location)
        out: list[str] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            macro = self.macros.get(token)
            if macro is None or token in hidden or self._in_literal(token):
                out.append(token)
                index += 1
                continue
            if macro.is_function_like:
                args, consumed = self._collect_arguments(tokens, index + 1, location)
                if args is None:  # not followed by '(': not an invocation
                    out.append(token)
                    index += 1
                    continue
                if len(args) != len(macro.params or ()) and not (
                    len(args) == 1 and args[0].strip() == "" and not macro.params
                ):
                    raise PreprocessorError(
                        f"macro {token} expects {len(macro.params or ())} argument(s),"
                        f" got {len(args)}",
                        location,
                    )
                expanded_args = [
                    self._expand_tokens(_split_tokens(arg), location, hidden, depth + 1)
                    for arg in args
                ]
                body = self._substitute(macro, expanded_args)
                out.append(
                    self._expand_tokens(
                        _split_tokens(body), location, hidden | {token}, depth + 1
                    )
                )
                index += consumed + 1
            else:
                out.append(
                    self._expand_tokens(
                        _split_tokens(macro.body), location, hidden | {token}, depth + 1
                    )
                )
                index += 1
        return "".join(out)

    @staticmethod
    def _in_literal(token: str) -> bool:
        return token.startswith('"') or token.startswith("'")

    @staticmethod
    def _collect_arguments(
        tokens: list[str], start: int, location: SourceLocation
    ) -> tuple[list[str] | None, int]:
        """Collect ``(a, b, ...)`` starting at ``tokens[start]``.

        Returns (argument texts, tokens consumed including parens), or
        (None, 0) when the macro name is not followed by ``(``.
        """
        index = start
        while index < len(tokens) and tokens[index].isspace():
            index += 1
        if index >= len(tokens) or tokens[index] != "(":
            return None, 0
        depth = 0
        args: list[str] = []
        current: list[str] = []
        while index < len(tokens):
            token = tokens[index]
            if token == "(":
                depth += 1
                if depth > 1:
                    current.append(token)
            elif token == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    return args, index - start + 1
                current.append(token)
            elif token == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(token)
            index += 1
        raise PreprocessorError("unterminated macro invocation", location)

    @staticmethod
    def _substitute(macro: Macro, args: list[str]) -> str:
        body_tokens = _split_tokens(macro.body)
        mapping = dict(zip(macro.params or (), args))
        return "".join(mapping.get(token, token) for token in body_tokens)

    # ------------------------------------------------------------------
    # #if expression evaluation

    def _eval_condition(self, text: str, location: SourceLocation) -> int:
        # Resolve defined(X) / defined X before macro expansion.
        def replace_defined(match: re.Match[str]) -> str:
            name = match.group(1) or match.group(2)
            return "1" if name in self.macros else "0"

        text = re.sub(
            r"defined\s*(?:\(\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))",
            replace_defined,
            text,
        )
        expanded = self._expand_tokens(_split_tokens(text), location, frozenset(), 0)
        # Any identifier left after expansion evaluates to 0, as in C.
        expanded = "".join(
            "0" if _IDENT_RE.fullmatch(token) else token
            for token in _split_tokens(expanded)
        )
        try:
            return evaluate_constant(expanded, "#if")
        except ReproError as error:
            raise PreprocessorError(str(error), location) from None


def preprocess(
    text: str,
    filename: str = "<input>",
    headers: dict[str, str] | None = None,
    predefined: dict[str, str] | None = None,
) -> str:
    """Convenience wrapper around :class:`Preprocessor`."""
    return Preprocessor(headers, predefined).process(text, filename)
