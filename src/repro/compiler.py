"""End-to-end compilation driver: C source text to a linked IL module.

>>> from repro.compiler import compile_program
>>> module = compile_program('''
... #include <sys.h>
... int main(void) { putchar('h'); putchar('i'); return 0; }
... ''')
>>> from repro.vm import Machine
>>> Machine(module).run().stdout
'hi'

Unless ``link_libc=False``, every program is linked with the C-subset
libc (:data:`~repro.runtime.LIBC_SOURCE`) as if the two were one
translation unit, libc first. The libc is compiled once per process
and per ``(headers, defines)``, on the first compile that links it: the
*libc prefix* keeps the preprocessor's macro table after libc, libc's
global symbols, its lowered IL and, per canonical pass spec, that IL
pre-optimized. Each program is then preprocessed, parsed, analyzed and
lowered on top of the prefix, and the two are linked.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.frontend import ast
from repro.frontend.parser import parse_translation_unit
from repro.frontend.preprocessor import Macro, Preprocessor
from repro.frontend.sema import AnalyzedUnit, analyze
from repro.il.function import ILFunction
from repro.il.lowering import lower_unit
from repro.il.module import ILModule
from repro.il.verifier import verify_module
from repro.observability import current
from repro.opt.pipeline import parse_pass_spec
from repro.runtime import LIBC_SOURCE, standard_headers


@dataclass
class CompileResult:
    """Module plus the analysis facts some tools want to inspect."""

    module: ILModule
    analysis: AnalyzedUnit


def _all_headers(headers: dict[str, str] | None) -> dict[str, str]:
    all_headers = standard_headers()
    if headers:
        all_headers.update(headers)
    return all_headers


def compile_to_analysis(
    source: str,
    filename: str = "<input>",
    headers: dict[str, str] | None = None,
    defines: dict[str, str] | None = None,
    link_libc: bool = True,
) -> AnalyzedUnit:
    """Preprocess, parse, and semantically analyze a program.

    With ``link_libc`` (the default) the C-subset libc source is
    prepended as part of the same translation unit, so its functions
    have visible bodies; diagnostics in libc, or in a header libc
    includes, name ``<libc>``. Without it, libc calls resolve against
    header prototypes only and become external functions.
    """
    tracer = current().tracer
    preprocessor = Preprocessor(_all_headers(headers), defines)
    with tracer.span("frontend.preprocess"):
        pieces = []
        if link_libc:
            pieces.append(("<libc>", *preprocessor.expand(LIBC_SOURCE, "<libc>")))
        pieces.append((filename, *preprocessor.expand(source, filename)))
    with tracer.span("frontend.parse"):
        unit = parse_translation_unit(
            "\n".join(text for _, text, _ in pieces),
            filename,
            lines=[(file, line) for file, _, lines in pieces for line in lines],
        )
    with tracer.span("frontend.analyze"):
        return analyze(unit)


# ----------------------------------------------------------------------
# the libc prefix


@dataclass
class _Libc:
    """libc compiled on its own: the front of every program linked with it."""

    #: The preprocessor's macro table after ``LIBC_SOURCE``.
    macros: dict[str, Macro]
    #: libc's global symbols and struct tags (no function bodies).
    symbols: AnalyzedUnit
    #: libc lowered; its IL is verified with every module it is linked into.
    module: ILModule
    #: libc's functions pre-optimized, per canonical pass spec.
    optimized: dict[tuple[str, ...], dict[str, ILFunction]] = field(
        default_factory=dict
    )


#: Most libc prefixes kept (one per ``(headers, defines)``), and most
#: pre-optimized variants kept per prefix; the oldest is dropped first.
LIBC_CACHE_LIMIT = 8

_LIBC_LOCK = threading.Lock()
_LIBC: dict[tuple, _Libc | None] = {}
_UNBUILT = object()


def _unlock_after_fork() -> None:
    # A child forked while another thread builds would inherit a held
    # lock; prefixes are stored only once complete, so a new one is safe.
    global _LIBC_LOCK
    _LIBC_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_unlock_after_fork)


def _put(table: dict, key, value) -> None:
    table[key] = value
    if len(table) > LIBC_CACHE_LIMIT:
        del table[next(iter(table))]


def _build_libc(
    headers: dict[str, str] | None, defines: dict[str, str] | None
) -> _Libc | None:
    """Compile libc alone; ``None`` when linking it on its own would not
    give the single unit's module: libc does not compile alone (a
    header or define broke it), or its functions intern strings, whose
    ``.strN`` numbers come after the program's globals' in one unit."""
    tracer = current().tracer
    preprocessor = Preprocessor(_all_headers(headers), defines)
    try:
        with tracer.span("frontend.preprocess"):
            text, lines = preprocessor.expand(LIBC_SOURCE, "<libc>")
        with tracer.span("frontend.parse"):
            unit = parse_translation_unit(text, "<libc>", lines=lines)
        with tracer.span("frontend.analyze"):
            analysis = analyze(unit)
        with tracer.span("frontend.lower"):
            module = lower_unit(analysis)
    except ReproError:
        return None
    initialized = {item.symbol for data in module.globals.values() for item in data.init}
    if any(name.startswith(".str") and name not in initialized for name in module.globals):
        return None
    symbols = AnalyzedUnit(
        ast.TranslationUnit(structs=unit.structs), analysis.globals, analysis.functions
    )
    return _Libc(preprocessor.macros, symbols, module)


def _libc_prefix(
    headers: dict[str, str] | None,
    defines: dict[str, str] | None,
    passes: tuple[str, ...],
) -> tuple[_Libc, dict[str, ILFunction]] | None:
    """The libc prefix for ``headers`` and ``defines`` and its functions
    pre-optimized by ``passes`` (as lowered when there are none), each
    built on first use inside a ``frontend.libc`` span; ``None`` when
    the program must be compiled as one unit with libc."""
    key = (tuple(sorted((headers or {}).items())), tuple(sorted((defines or {}).items())))
    with _LIBC_LOCK:
        libc = _LIBC.get(key, _UNBUILT)
        if libc is _UNBUILT or (
            libc is not None and passes and passes not in libc.optimized
        ):
            with current().tracer.span("frontend.libc"):
                if libc is _UNBUILT:
                    libc = _build_libc(headers, defines)
                    _put(_LIBC, key, libc)
                if libc is not None and passes:
                    from repro.opt import optimize_module

                    optimized = libc.module.clone()
                    optimize_module(optimized, pass_spec=",".join(passes))
                    _put(libc.optimized, passes, optimized.functions)
        if libc is None:
            return None
        return libc, libc.optimized[passes] if passes else libc.module.functions


def _redefines_libc_prototype(unit: ast.TranslationUnit, libc: _Libc) -> bool:
    """Whether ``unit`` defines a function libc only declares (a
    builtin), with another type. In one unit libc's calls to it are
    then checked and lowered against that definition."""
    for function in unit.functions:
        symbol = libc.symbols.functions.get(function.name)
        if symbol is not None and not symbol.defined:
            assert function.signature is not None
            if symbol.signature.type != function.signature.type:
                return True
    return False


def _analyze_on_libc(
    source: str,
    filename: str,
    headers: dict[str, str] | None,
    libc: _Libc,
) -> AnalyzedUnit | None:
    """Preprocess, parse and analyze ``source`` as the rest of a unit
    that libc begins; ``None`` when it must be compiled as one unit."""
    tracer = current().tracer
    preprocessor = Preprocessor(_all_headers(headers))
    preprocessor.macros = dict(libc.macros)
    with tracer.span("frontend.preprocess"):
        text, lines = preprocessor.expand(source, filename)
    with tracer.span("frontend.parse"):
        unit = parse_translation_unit(
            text, filename, lines=lines, structs=libc.symbols.unit.structs
        )
    if _redefines_libc_prototype(unit, libc):
        return None
    with tracer.span("frontend.analyze"):
        return analyze(unit, libc.symbols)


# ----------------------------------------------------------------------
# compiling


def _lower(
    analysis: AnalyzedUnit,
    entry: str,
    libc: ILModule | None,
    verify: bool,
) -> ILModule:
    tracer = current().tracer
    with tracer.span("frontend.lower"):
        module = lower_unit(analysis, entry, libc)
    if verify:
        with tracer.span("frontend.verify"):
            verify_module(module)
    return module


def _count(module: ILModule) -> None:
    metrics = current().metrics
    if metrics.enabled:
        metrics.inc("frontend.modules_compiled")
        metrics.inc("frontend.functions_lowered", len(module.functions))
        metrics.inc("frontend.il_instructions_emitted", module.total_code_size())


def compile_program(
    source: str,
    filename: str = "<input>",
    headers: dict[str, str] | None = None,
    defines: dict[str, str] | None = None,
    link_libc: bool = True,
    entry: str = "main",
    verify: bool = True,
    pass_spec: str | None = None,
) -> ILModule:
    """Compile C-subset source text into a verified, linked IL module.

    With ``link_libc`` the module is the one a single translation unit
    of libc followed by ``source`` gives, instruction for instruction;
    libc's part comes from the process's libc prefix (see the module
    docstring). ``verify`` checks the whole linked module.

    ``pass_spec`` pre-optimizes the module with
    :func:`~repro.opt.pipeline.optimize_module` (``None``: not at all;
    other values go through
    :func:`~repro.opt.pipeline.parse_pass_spec`). Every pass works on
    one function at a time, so only the program's functions are
    optimized here: libc's are copies of the prefix's, pre-optimized
    once per canonical spec.
    """
    passes = () if pass_spec is None else parse_pass_spec(pass_spec)
    with current().tracer.span("frontend.compile", file=filename):
        prefix = _libc_prefix(headers, defines, passes) if link_libc else None
        libc, libc_functions = prefix or (None, {})
        analysis = None
        if libc is not None:
            analysis = _analyze_on_libc(source, filename, headers, libc)
        if analysis is None:  # compile libc and the program as one unit
            libc = None
            analysis = compile_to_analysis(
                source, filename, headers, defines, link_libc
            )
        module = _lower(
            analysis, entry, None if libc is None else libc.module, verify
        )
    _count(module)
    if passes:
        from repro.opt import optimize_module

        if libc is None:
            optimize_module(module, pass_spec=pass_spec)
        else:
            own = ILModule(entry)
            own.functions = {
                name: function
                for name, function in module.functions.items()
                if name not in libc_functions
            }
            optimize_module(own, pass_spec=pass_spec)
            for name, function in libc_functions.items():
                module.functions[name] = function.clone()
    return module


def compile_with_analysis(
    source: str,
    filename: str = "<input>",
    headers: dict[str, str] | None = None,
    defines: dict[str, str] | None = None,
    link_libc: bool = True,
    entry: str = "main",
    verify: bool = True,
) -> CompileResult:
    """Like :func:`compile_program` but also returns the analysis.

    It compiles libc and the program as one translation unit, so the
    analysis covers both; the module is the one :func:`compile_program`
    returns. Both functions report the same ``frontend.*`` spans and
    metrics, so tools using the analysis-returning form are just as
    visible to tracing.
    """
    with current().tracer.span("frontend.compile", file=filename):
        analysis = compile_to_analysis(source, filename, headers, defines, link_libc)
        module = _lower(analysis, entry, None, verify)
    _count(module)
    return CompileResult(module, analysis)
