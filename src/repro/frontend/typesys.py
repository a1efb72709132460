"""The C-subset type system.

Types are immutable value objects. Sizes follow a classic 32-bit ABI:
``char`` is 1 byte, ``int`` and pointers are 4 bytes, arrays and structs
are laid out contiguously with natural alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SemanticError

WORD_SIZE = 4


class CType:
    """Base class for all C-subset types."""

    def size(self) -> int:
        raise NotImplementedError

    def alignment(self) -> int:
        return min(self.size(), WORD_SIZE) or 1

    @property
    def is_scalar(self) -> bool:
        """Scalars fit in one VM register: integers and pointers."""
        return False

    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False

    @property
    def is_struct(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class VoidType(CType):
    def size(self) -> int:
        return 0

    @property
    def is_void(self) -> bool:
        return True

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True, slots=True)
class IntType(CType):
    """``int`` (4 bytes) or ``char`` (1 byte)."""

    width: int = WORD_SIZE

    def size(self) -> int:
        return self.width

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_integer(self) -> bool:
        return True

    def __str__(self) -> str:
        return "char" if self.width == 1 else "int"


@dataclass(frozen=True, slots=True)
class PointerType(CType):
    pointee: CType

    def size(self) -> int:
        return WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True, slots=True)
class ArrayType(CType):
    element: CType
    length: int

    def size(self) -> int:
        return self.element.size() * self.length

    def alignment(self) -> int:
        return self.element.alignment()

    @property
    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True, slots=True)
class StructField:
    name: str
    type: CType
    offset: int


@dataclass(eq=False, slots=True)
class StructType(CType):
    """A struct with laid-out fields.

    Field layout (offsets, total size) is computed by
    :func:`complete_struct` when the definition is parsed; an empty
    ``fields`` tuple denotes a forward-declared (incomplete) struct.
    Struct types compare by identity so that a self-referential struct
    (``struct node { struct node *next; }``) can be completed in place
    after its members mention it.
    """

    tag: str
    fields: tuple[StructField, ...] = ()
    total_size: int = 0
    align: int = 1

    def size(self) -> int:
        if not self.fields:
            raise SemanticError(f"use of incomplete struct {self.tag!r}")
        return self.total_size

    def alignment(self) -> int:
        return self.align

    @property
    def is_struct(self) -> bool:
        return True

    def field(self, name: str) -> StructField:
        for entry in self.fields:
            if entry.name == name:
                return entry
        raise SemanticError(f"struct {self.tag!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(entry.name == name for entry in self.fields)

    def __str__(self) -> str:
        return f"struct {self.tag}"


@dataclass(frozen=True, slots=True)
class FunctionType(CType):
    return_type: CType
    param_types: tuple[CType, ...] = ()

    def size(self) -> int:
        return WORD_SIZE  # as a value: decays to a function pointer

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types) or "void"
        return f"{self.return_type}({params})"


#: Singleton instances for the common types.
VOID = VoidType()
INT = IntType(WORD_SIZE)
CHAR = IntType(1)


def complete_struct(struct: StructType, members: list[tuple[str, CType]]) -> StructType:
    """Fill in natural-alignment layout for a struct definition, in place."""
    offset = 0
    align = 1
    fields = []
    seen: set[str] = set()
    for name, ctype in members:
        if name in seen:
            raise SemanticError(
                f"duplicate field {name!r} in struct {struct.tag!r}"
            )
        seen.add(name)
        member_align = ctype.alignment()
        align = max(align, member_align)
        offset = _round_up(offset, member_align)
        fields.append(StructField(name, ctype, offset))
        offset += ctype.size()
    struct.fields = tuple(fields)
    struct.total_size = _round_up(offset, align) if fields else 0
    struct.align = align
    return struct


def layout_struct(tag: str, members: list[tuple[str, CType]]) -> StructType:
    """Create and lay out a fresh struct type (convenience for tests)."""
    return complete_struct(StructType(tag), members)


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def decay(ctype: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay in rvalue contexts."""
    if isinstance(ctype, ArrayType):
        return PointerType(ctype.element)
    if isinstance(ctype, FunctionType):
        return PointerType(ctype)
    return ctype


def is_assignable(target: CType, source: CType) -> bool:
    """Loose C-style assignment compatibility check."""
    source = decay(source)
    if target.is_integer and source.is_integer:
        return True
    if target.is_pointer and source.is_pointer:
        return True  # C allows with a warning; the subset is permissive
    if target.is_pointer and source.is_integer:
        return True  # e.g. p = 0 (NULL)
    if target.is_integer and source.is_pointer:
        return True  # permissive, mirrors pre-ANSI C
    if target.is_struct and source.is_struct:
        return str(target) == str(source)
    return False


@dataclass(frozen=True, slots=True)
class FunctionSignature:
    """Resolved signature of a declared or defined function."""

    name: str
    type: FunctionType
    param_names: tuple[str, ...] = ()
