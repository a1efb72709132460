"""Symbols and scopes for semantic analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SemanticError, SourceLocation
from repro.frontend.typesys import CType, FunctionSignature


@dataclass(eq=False)
class VarSymbol:
    """A declared variable: global, local, or parameter."""

    name: str
    ctype: CType
    kind: str  # "global" | "local" | "param"
    #: Unique within the enclosing function (locals/params) or program
    #: (globals); lets shadowed names coexist after lowering.
    uid: int = 0
    address_taken: bool = False
    location: SourceLocation = field(default_factory=SourceLocation)

    @property
    def is_global(self) -> bool:
        return self.kind == "global"


@dataclass(eq=False)
class FunctionSymbol:
    """A declared or defined function."""

    signature: FunctionSignature
    defined: bool = False
    #: True when only a prototype was seen — the paper's *external*
    #: function whose body is unavailable to inline expansion.
    address_taken: bool = False
    location: SourceLocation = field(default_factory=SourceLocation)

    @property
    def name(self) -> str:
        return self.signature.name

    @property
    def is_external(self) -> bool:
        return not self.defined


Symbol = VarSymbol | FunctionSymbol


class Scope:
    """One lexical scope in the chain."""

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self._entries: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> None:
        name = symbol.name
        if name in self._entries:
            existing = self._entries[name]
            # Re-declaring a function prototype is fine.
            if isinstance(existing, FunctionSymbol) and isinstance(
                symbol, FunctionSymbol
            ):
                if symbol.defined and existing.defined:
                    raise SemanticError(
                        f"redefinition of function {name!r}", symbol.location
                    )
                existing.defined = existing.defined or symbol.defined
                return
            raise SemanticError(f"redeclaration of {name!r}", symbol.location)
        self._entries[name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            symbol = scope._entries.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None
