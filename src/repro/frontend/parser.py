"""Recursive-descent parser for the C subset.

Grammar summary (see DESIGN.md §4 for the supported subset):

    translation-unit := (struct-definition | function | global-var)*
    declaration      := decl-specifiers declarator ('=' initializer)?
                        (',' declarator ('=' initializer)?)* ';'
    function         := decl-specifiers declarator compound-statement

Expressions implement the full C precedence ladder including the comma
operator, conditional expressions, and compound assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError, SourceLocation
from repro.frontend import ast
from repro.frontend.constexpr import eval_const_expr
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import Token, TokenKind
from repro.frontend.typesys import (
    CHAR,
    INT,
    VOID,
    ArrayType,
    CType,
    FunctionSignature,
    FunctionType,
    PointerType,
    StructType,
    complete_struct,
)
from repro.observability import current

#: Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "*": 10,
    "/": 10,
    "%": 10,
    "+": 9,
    "-": 9,
    "<<": 8,
    ">>": 8,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "==": 6,
    "!=": 6,
    "&": 5,
    "^": 4,
    "|": 3,
    "&&": 2,
    "||": 1,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>=")

_TYPE_KEYWORDS = ("int", "char", "void", "struct")
_STORAGE_KEYWORDS = ("static", "extern", "inline")


@dataclass
class _Declarator:
    """Result of parsing one declarator: a name and its full type."""

    name: str
    type: CType
    param_names: tuple[str, ...] = ()
    location: SourceLocation = SourceLocation()


class Parser:
    """Parses one preprocessed source buffer into a TranslationUnit."""

    def __init__(
        self, tokens: list[Token], structs: dict[str, StructType] | None = None
    ):
        self._tokens = tokens
        self._pos = 0
        #: Struct tags in scope; ``structs`` seeds those of an earlier unit.
        self._structs: dict[str, StructType] = dict(structs or {})
        #: Names that have been declared as functions, used only to give
        #: better diagnostics; resolution happens in semantic analysis.
        self._unit = ast.TranslationUnit()

    # ------------------------------------------------------------------
    # token helpers

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _at_punct(self, punct: str) -> bool:
        return self._peek().is_punct(punct)

    def _at_keyword(self, word: str) -> bool:
        return self._peek().is_keyword(word)

    def _accept_punct(self, punct: str) -> bool:
        if self._at_punct(punct):
            self._next()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self._next()
            return True
        return False

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if not token.is_punct(punct):
            raise ParseError(f"expected {punct!r}, found {token}", token.location)
        return self._next()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word!r}, found {token}", token.location)
        return self._next()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token}", token.location)
        return self._next()

    # ------------------------------------------------------------------
    # top level

    def parse(self) -> ast.TranslationUnit:
        while self._peek().kind is not TokenKind.EOF:
            self._top_level()
        self._unit.structs = dict(self._structs)
        return self._unit

    def _top_level(self) -> None:
        location = self._peek().location
        inline_hint = False
        while self._peek().spelling in _STORAGE_KEYWORDS and self._peek().kind is TokenKind.KEYWORD:
            if self._peek().spelling == "inline":
                inline_hint = True
            self._next()
        if not self._at_type_start():
            raise ParseError(f"expected declaration, found {self._peek()}", location)
        base = self._base_type(allow_definition=True)
        # A bare "struct Tag { ... };" or "struct Tag;" declaration.
        if self._accept_punct(";"):
            return
        first = self._declarator(base)
        if isinstance(first.type, FunctionType) and self._at_punct("{"):
            self._function_definition(first, inline_hint)
            return
        self._finish_global_declaration(first)
        while self._accept_punct(","):
            self._finish_global_declaration(self._declarator(base))
        self._expect_punct(";")

    def _finish_global_declaration(self, decl: _Declarator) -> None:
        if isinstance(decl.type, FunctionType):
            signature = FunctionSignature(decl.name, decl.type, decl.param_names)
            self._unit.declared_only.setdefault(decl.name, signature)
            return
        init: ast.Initializer | None = None
        if self._accept_punct("="):
            init = self._initializer()
        var_type = self._complete_array_from_init(decl.type, init, decl.location)
        self._unit.globals.append(
            ast.GlobalVar(decl.name, var_type, init, location=decl.location)
        )

    def _function_definition(self, decl: _Declarator, inline_hint: bool) -> None:
        assert isinstance(decl.type, FunctionType)
        params = [
            ast.Param(name, ptype, location=decl.location)
            for name, ptype in zip(decl.param_names, decl.type.param_types)
        ]
        signature = FunctionSignature(decl.name, decl.type, decl.param_names)
        body = self._compound_statement()
        self._unit.functions.append(
            ast.FunctionDef(
                decl.name,
                signature,
                params,
                body,
                inline_hint,
                location=decl.location,
            )
        )

    # ------------------------------------------------------------------
    # types and declarators

    def _at_type_start(self) -> bool:
        token = self._peek()
        return token.kind is TokenKind.KEYWORD and token.spelling in _TYPE_KEYWORDS

    def _base_type(self, allow_definition: bool = False) -> CType:
        token = self._peek()
        if self._accept_keyword("int"):
            return INT
        if self._accept_keyword("char"):
            return CHAR
        if self._accept_keyword("void"):
            return VOID
        if self._accept_keyword("struct"):
            return self._struct_type(allow_definition)
        raise ParseError(f"expected type, found {token}", token.location)

    def _struct_type(self, allow_definition: bool) -> CType:
        tag_token = self._expect_ident()
        tag = tag_token.spelling
        # Get-or-create the (possibly still incomplete) type object now,
        # so self-referential members resolve to the same instance that
        # complete_struct later fills in.
        struct = self._structs.get(tag)
        if struct is None:
            struct = StructType(tag)
            self._structs[tag] = struct
        if self._at_punct("{"):
            if not allow_definition:
                raise ParseError(
                    "struct definition not allowed here", tag_token.location
                )
            if struct.fields:
                raise ParseError(
                    f"redefinition of struct {tag!r}", tag_token.location
                )
            self._next()
            members: list[tuple[str, CType]] = []
            while not self._accept_punct("}"):
                member_base = self._base_type()
                while True:
                    member_decl = self._declarator(member_base)
                    if isinstance(member_decl.type, FunctionType):
                        raise ParseError(
                            "function member in struct", member_decl.location
                        )
                    members.append((member_decl.name, member_decl.type))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            complete_struct(struct, members)
        return struct

    def _declarator(self, base: CType) -> _Declarator:
        """Parse pointers, a (possibly parenthesized) name, and suffixes."""
        ctype = base
        while self._accept_punct("*"):
            ctype = PointerType(ctype)
        if self._accept_punct("("):
            # Function-pointer style declarator: (*name), (**name), or
            # (*name[N]) — each extra star adds a pointer level.
            self._expect_punct("*")
            extra_stars = 0
            while self._accept_punct("*"):
                extra_stars += 1
            name_token = self._expect_ident()
            array_lengths: list[int] = []
            while self._accept_punct("["):
                array_lengths.append(self._array_length())
            self._expect_punct(")")
            param_types, param_names = self._parameter_list()
            fn_type: CType = PointerType(FunctionType(ctype, tuple(param_types)))
            for _ in range(extra_stars):
                fn_type = PointerType(fn_type)
            for length in reversed(array_lengths):
                fn_type = ArrayType(fn_type, length)
            return _Declarator(
                name_token.spelling, fn_type, tuple(param_names), name_token.location
            )
        name_token = self._expect_ident()
        if self._at_punct("("):
            param_types, param_names = self._parameter_list()
            return _Declarator(
                name_token.spelling,
                FunctionType(ctype, tuple(param_types)),
                tuple(param_names),
                name_token.location,
            )
        lengths: list[int] = []
        unsized_first = False
        while self._accept_punct("["):
            if self._at_punct("]") and not lengths:
                unsized_first = True
                self._next()
                continue
            lengths.append(self._array_length())
        for length in reversed(lengths):
            ctype = ArrayType(ctype, length)
        if unsized_first:
            # int a[] = {...}: length completed from the initializer later;
            # encode as length -1 placeholder.
            ctype = ArrayType(ctype, -1)
        return _Declarator(name_token.spelling, ctype, (), name_token.location)

    def _array_length(self) -> int:
        location = self._peek().location
        expr = self._conditional()
        self._expect_punct("]")
        length = eval_const_expr(expr, location)
        if length <= 0:
            raise ParseError(f"array length must be positive, got {length}", location)
        return length

    def _parameter_list(self) -> tuple[list[CType], list[str]]:
        self._expect_punct("(")
        types: list[CType] = []
        names: list[str] = []
        if self._accept_punct(")"):
            return types, names
        if self._at_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            self._next()
            return types, names
        while True:
            base = self._base_type()
            decl = self._parameter_declarator(base)
            ptype = decl.type
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)  # arrays decay in params
            if isinstance(ptype, FunctionType):
                ptype = PointerType(ptype)
            types.append(ptype)
            names.append(decl.name)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return types, names

    def _parameter_declarator(self, base: CType) -> _Declarator:
        ctype = base
        while self._accept_punct("*"):
            ctype = PointerType(ctype)
        if self._accept_punct("("):
            self._expect_punct("*")
            name_token = self._expect_ident()
            self._expect_punct(")")
            param_types, _ = self._parameter_list()
            return _Declarator(
                name_token.spelling,
                PointerType(FunctionType(ctype, tuple(param_types))),
                (),
                name_token.location,
            )
        name_token = self._expect_ident()
        lengths = []
        saw_unsized = False
        while self._accept_punct("["):
            if self._at_punct("]"):
                self._next()
                saw_unsized = True
                continue
            lengths.append(self._array_length())
        for length in reversed(lengths):
            ctype = ArrayType(ctype, length)
        if saw_unsized or lengths:
            # Parameter arrays decay to a pointer to the element type.
            element = ctype.element if isinstance(ctype, ArrayType) else ctype
            ctype = PointerType(element)
        return _Declarator(name_token.spelling, ctype, (), name_token.location)

    def _type_name(self) -> CType:
        """Parse a type-name as used in casts and sizeof."""
        ctype = self._base_type()
        while self._accept_punct("*"):
            ctype = PointerType(ctype)
        if self._accept_punct("("):
            # Abstract function-pointer type: (*)(params) or (**)(params).
            self._expect_punct("*")
            extra_stars = 0
            while self._accept_punct("*"):
                extra_stars += 1
            self._expect_punct(")")
            param_types, _ = self._parameter_list()
            ctype = PointerType(FunctionType(ctype, tuple(param_types)))
            for _ in range(extra_stars):
                ctype = PointerType(ctype)
        return ctype

    @staticmethod
    def _complete_array_from_init(
        ctype: CType, init: ast.Initializer | None, location: SourceLocation
    ) -> CType:
        if not (isinstance(ctype, ArrayType) and ctype.length == -1):
            return ctype
        if isinstance(init, ast.InitList):
            return ArrayType(ctype.element, max(len(init.items), 1))
        if isinstance(init, ast.StringLiteral):
            return ArrayType(ctype.element, len(init.value) + 1)
        raise ParseError("unsized array needs an initializer", location)

    # ------------------------------------------------------------------
    # statements

    def _compound_statement(self) -> ast.Block:
        open_token = self._expect_punct("{")
        statements: list[ast.Stmt] = []
        while not self._accept_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", open_token.location)
            statements.extend(self._block_item())
        return ast.Block(statements, location=open_token.location)

    def _block_item(self) -> list[ast.Stmt]:
        if self._at_type_start() or (
            self._peek().kind is TokenKind.KEYWORD
            and self._peek().spelling in _STORAGE_KEYWORDS
        ):
            return self._local_declaration()
        return [self._statement()]

    def _local_declaration(self) -> list[ast.Stmt]:
        while (
            self._peek().kind is TokenKind.KEYWORD
            and self._peek().spelling in _STORAGE_KEYWORDS
        ):
            self._next()
        base = self._base_type(allow_definition=True)
        if self._accept_punct(";"):
            return []  # bare struct definition at block scope
        decls: list[ast.Stmt] = []
        while True:
            declarator = self._declarator(base)
            if isinstance(declarator.type, FunctionType):
                # Local function prototype: record and move on.
                self._unit.declared_only.setdefault(
                    declarator.name,
                    FunctionSignature(
                        declarator.name, declarator.type, declarator.param_names
                    ),
                )
            else:
                init = self._initializer() if self._accept_punct("=") else None
                var_type = self._complete_array_from_init(
                    declarator.type, init, declarator.location
                )
                decls.append(
                    ast.DeclStmt(
                        declarator.name, var_type, init, location=declarator.location
                    )
                )
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return decls

    def _initializer(self) -> ast.Initializer:
        if self._at_punct("{"):
            open_token = self._next()
            items: list[ast.Expr | ast.InitList] = []
            while not self._accept_punct("}"):
                items.append(self._initializer())
                if not self._accept_punct(","):
                    self._expect_punct("}")
                    break
            return ast.InitList(items, location=open_token.location)
        return self._assignment()

    def _statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_punct("{"):
            return self._compound_statement()
        if token.is_punct(";"):
            self._next()
            return ast.EmptyStmt(location=token.location)
        if token.is_keyword("if"):
            return self._if_statement()
        if token.is_keyword("while"):
            return self._while_statement()
        if token.is_keyword("do"):
            return self._do_statement()
        if token.is_keyword("for"):
            return self._for_statement()
        if token.is_keyword("switch"):
            return self._switch_statement()
        if token.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return ast.Break(location=token.location)
        if token.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ast.Continue(location=token.location)
        if token.is_keyword("return"):
            self._next()
            value = None if self._at_punct(";") else self._expression()
            self._expect_punct(";")
            return ast.Return(value, location=token.location)
        expr = self._expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr, location=token.location)

    def _if_statement(self) -> ast.Stmt:
        token = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        then = self._statement()
        otherwise = self._statement() if self._accept_keyword("else") else None
        return ast.If(cond, then, otherwise, location=token.location)

    def _while_statement(self) -> ast.Stmt:
        token = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        body = self._statement()
        return ast.While(cond, body, location=token.location)

    def _do_statement(self) -> ast.Stmt:
        token = self._expect_keyword("do")
        body = self._statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body, cond, location=token.location)

    def _for_statement(self) -> ast.Stmt:
        token = self._expect_keyword("for")
        self._expect_punct("(")
        init: ast.Stmt | None = None
        if self._at_type_start():
            decls = self._local_declaration()  # consumes the ';'
            init = ast.Block(decls, location=token.location) if len(decls) != 1 else decls[0]
        elif not self._accept_punct(";"):
            init = ast.ExprStmt(self._expression(), location=token.location)
            self._expect_punct(";")
        cond = None if self._at_punct(";") else self._expression()
        self._expect_punct(";")
        step = None if self._at_punct(")") else self._expression()
        self._expect_punct(")")
        body = self._statement()
        return ast.For(init, cond, step, body, location=token.location)

    def _switch_statement(self) -> ast.Stmt:
        token = self._expect_keyword("switch")
        self._expect_punct("(")
        scrutinee = self._expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[ast.SwitchCase] = []
        seen_values: set[int] = set()
        seen_default = False
        while not self._accept_punct("}"):
            case_token = self._peek()
            values: list[int | None] = []
            while True:
                if self._accept_keyword("case"):
                    value = eval_const_expr(self._conditional(), case_token.location)
                    if value in seen_values:
                        raise ParseError(
                            f"duplicate case value {value}", case_token.location
                        )
                    seen_values.add(value)
                    values.append(value)
                    self._expect_punct(":")
                elif self._at_keyword("default"):
                    self._next()
                    if seen_default:
                        raise ParseError("duplicate default label", case_token.location)
                    seen_default = True
                    values.append(None)
                    self._expect_punct(":")
                else:
                    break
            if not values:
                raise ParseError(
                    f"expected 'case' or 'default', found {self._peek()}",
                    self._peek().location,
                )
            body: list[ast.Stmt] = []
            while not (
                self._at_keyword("case")
                or self._at_keyword("default")
                or self._at_punct("}")
            ):
                body.extend(self._block_item())
            # Multiple labels on one body share the body via fallthrough:
            # all but the last get an empty body falling through.
            for value in values[:-1]:
                cases.append(ast.SwitchCase(value, [], location=case_token.location))
            cases.append(ast.SwitchCase(values[-1], body, location=case_token.location))
        return ast.Switch(scrutinee, cases, location=token.location)

    # ------------------------------------------------------------------
    # expressions

    def _expression(self) -> ast.Expr:
        expr = self._assignment()
        while self._at_punct(","):
            token = self._next()
            right = self._assignment()
            expr = ast.Binary(",", expr, right, location=token.location)
        return expr

    def _assignment(self) -> ast.Expr:
        left = self._conditional()
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.spelling in _ASSIGN_OPS:
            self._next()
            right = self._assignment()
            return ast.Assign(token.spelling, left, right, location=token.location)
        return left

    def _conditional(self) -> ast.Expr:
        cond = self._binary(0)
        if self._at_punct("?"):
            token = self._next()
            then = self._expression()
            self._expect_punct(":")
            otherwise = self._conditional()
            return ast.Conditional(cond, then, otherwise, location=token.location)
        return cond

    def _binary(self, min_precedence: int) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            precedence = _BINARY_PRECEDENCE.get(token.spelling, 0)
            if token.kind is not TokenKind.PUNCT or precedence <= min_precedence:
                return left
            self._next()
            right = self._binary(precedence)
            left = ast.Binary(token.spelling, left, right, location=token.location)

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.spelling in ("-", "+", "~", "!", "&", "*"):
            self._next()
            return ast.Unary(token.spelling, self._unary(), location=token.location)
        if token.is_punct("++") or token.is_punct("--"):
            self._next()
            return ast.Unary(token.spelling, self._unary(), location=token.location)
        if token.is_keyword("sizeof"):
            self._next()
            if self._at_punct("(") and self._is_type_ahead(1):
                self._next()
                target = self._type_name()
                self._expect_punct(")")
                return ast.SizeofType(target, location=token.location)
            operand = self._unary()
            return ast.Unary("sizeof", operand, location=token.location)
        if token.is_punct("(") and self._is_type_ahead(1):
            self._next()
            target = self._type_name()
            self._expect_punct(")")
            operand = self._unary()
            return ast.Cast(target, operand, location=token.location)
        return self._postfix()

    def _is_type_ahead(self, offset: int) -> bool:
        token = self._peek(offset)
        return token.kind is TokenKind.KEYWORD and token.spelling in _TYPE_KEYWORDS

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            token = self._peek()
            if token.is_punct("("):
                self._next()
                args: list[ast.Expr] = []
                if not self._at_punct(")"):
                    args.append(self._assignment())
                    while self._accept_punct(","):
                        args.append(self._assignment())
                self._expect_punct(")")
                expr = ast.Call(expr, args, location=token.location)
            elif token.is_punct("["):
                self._next()
                index = self._expression()
                self._expect_punct("]")
                expr = ast.Index(expr, index, location=token.location)
            elif token.is_punct("."):
                self._next()
                name = self._expect_ident()
                expr = ast.Member(expr, name.spelling, False, location=token.location)
            elif token.is_punct("->"):
                self._next()
                name = self._expect_ident()
                expr = ast.Member(expr, name.spelling, True, location=token.location)
            elif token.is_punct("++") or token.is_punct("--"):
                self._next()
                expr = ast.PostIncDec(token.spelling, expr, location=token.location)
            else:
                return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_CONST or token.kind is TokenKind.CHAR_CONST:
            self._next()
            assert isinstance(token.value, int)
            return ast.IntLiteral(token.value, location=token.location)
        if token.kind is TokenKind.STRING:
            self._next()
            assert isinstance(token.value, str)
            # Adjacent string literals concatenate, as in C.
            value = token.value
            while self._peek().kind is TokenKind.STRING:
                extra = self._next()
                assert isinstance(extra.value, str)
                value += extra.value
            return ast.StringLiteral(value, location=token.location)
        if token.kind is TokenKind.IDENT:
            self._next()
            return ast.Identifier(token.spelling, location=token.location)
        if token.is_punct("("):
            self._next()
            expr = self._expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"expected expression, found {token}", token.location)


def parse_translation_unit(
    text: str,
    filename: str = "<input>",
    lines: list[int | tuple[str, int]] | None = None,
    structs: dict[str, StructType] | None = None,
) -> ast.TranslationUnit:
    """Lex and parse preprocessed C-subset source text.

    The token count is reported into the current observability's
    metrics (:func:`repro.observability.current`). ``lines``
    maps each line of ``text`` to its source line (see
    :meth:`~repro.frontend.preprocessor.Preprocessor.expand`) or to a
    ``(file, line)`` pair (see :class:`~repro.frontend.lexer.Lexer`), and
    ``structs`` are struct tags an earlier unit declared.
    """
    tokens = tokenize(text, filename, lines)
    metrics = current().metrics
    if metrics.enabled:
        metrics.inc("frontend.tokens_lexed", len(tokens))
    return Parser(tokens, structs).parse()


def evaluate_constant(text: str, filename: str = "<input>") -> int:
    """The value of ``text``, one integer constant expression, parsed and
    evaluated by the rules ``case`` labels use.

    Anything else raises a :class:`~repro.errors.ReproError`.
    """
    parser = Parser(tokenize(text, filename))
    expr = parser._conditional()
    token = parser._peek()
    if token.kind is not TokenKind.EOF:
        raise ParseError(f"unexpected {token} after the expression", token.location)
    return eval_const_expr(expr)
