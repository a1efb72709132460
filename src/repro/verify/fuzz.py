"""Property-based fuzzing of the full compile → inline pipeline.

Generates small random C programs inside the supported subset and
pushes each through the real pipeline stage by stage — compile, run the
baseline, optimize, inline under a measured profile, optimize again —
differentially executing after every stage against the baseline
outputs. Any divergence, verifier rejection, or broken inliner
invariant is a finding.

Generated programs are deterministic for a given seed (``random.Random``
only), always terminate (loops are counted, bounded, and strictly
increasing), never divide by anything that can be zero (divisors are
nonzero constants), and always produce output (``print_int`` of live
results), so a silent miscompile cannot hide. Statements also write
computed values to stderr through ``note``, a callee small enough for
the inliner to expand, so a dropped or reordered write shows up. Call
structure is acyclic — each function calls only earlier-defined
functions, directly or through a local function pointer — and ``main``
drives every root often enough to clear the inliner's weight
threshold, so the inline stage actually exercises expansion rather
than vacuously selecting nothing. Besides ``if``/``while`` and int arithmetic, programs use
``switch`` with a ``default``, loads and stores through a global
``int`` array (indices masked into range), and half of them print their
results from a callee that calls ``exit(0)`` with ``main``'s frame
still open. Every program exits with code 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.compiler import compile_program
from repro.errors import ReproError
from repro.il.verifier import verify_module
from repro.inliner.params import InlineParameters
from repro.observability import current
from repro.opt import optimize_module
from repro.profiler.profile import Observation, RunSpec, run_once
from repro.verify.differential import DifferentialReport, verify_inlining

#: Inliner knobs the fuzz stage runs under: a low threshold and a
#: generous growth budget so small random programs still expand.
FUZZ_PARAMS = InlineParameters(weight_threshold=4.0, size_limit_factor=3.0)

#: Elements of the global array every program declares; a power of two,
#: so ``index & (ARRAY_SIZE - 1)`` is always in range.
ARRAY_SIZE = 8

#: The stderr writer every program declares: one letter per value.
NOTE = "void note(int v)\n{\n    eputc('a' + (v & 15));\n}"


@dataclass
class FuzzFailure:
    """One program that broke a pipeline stage."""

    index: int
    seed: int
    stage: str
    detail: str
    source: str


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    count: int
    seed: int
    failures: list[FuzzFailure] = field(default_factory=list)
    expansions: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


class _ProgramBuilder:
    """Generates one random program in the supported C subset."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.globals: list[str] = []
        #: name -> (param count, returns value)
        self.functions: list[tuple[str, int, bool]] = []
        #: (pointer local, param count) of the function being built.
        self.pointer: tuple[str, int] | None = None
        #: Whether main prints through ``finish``, which calls exit(0).
        self.exits = False

    # -- expressions ---------------------------------------------------

    def _scalar(self, scope: list[str]) -> str:
        choices = scope + self.globals
        if choices and self.rng.random() < 0.7:
            return self.rng.choice(choices)
        return str(self.rng.randint(0, 9))

    def _element(self, scope: list[str]) -> str:
        return f"arr[({self._scalar(scope)}) & {ARRAY_SIZE - 1}]"

    def _operand(self, scope: list[str]) -> str:
        if self.rng.random() < 0.1:
            return self._element(scope)
        return self._scalar(scope)

    def _expr(self, scope: list[str]) -> str:
        kind = self.rng.random()
        if kind < 0.35:
            return self._operand(scope)
        left, right = self._operand(scope), self._operand(scope)
        if kind < 0.8:
            op = self.rng.choice(["+", "-", "*"])
            return f"{left} {op} {right}"
        # Division and modulo only by a nonzero constant: the generated
        # program must be defined on every path.
        op = self.rng.choice(["/", "%"])
        return f"{left} {op} {self.rng.randint(1, 7)}"

    def _condition(self, scope: list[str]) -> str:
        op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return f"{self._operand(scope)} {op} {self._operand(scope)}"

    def _call(self, scope: list[str]) -> str | None:
        callable_fns = [fn for fn in self.functions if fn[2]]
        if not callable_fns:
            return None
        name, arity, _ = self.rng.choice(callable_fns)
        if self.pointer is not None and self.rng.random() < 0.5:
            name, arity = self.pointer
        args = ", ".join(self._operand(scope) for _ in range(arity))
        return f"{name}({args})"

    # -- statements ----------------------------------------------------

    def _switch(self, scope: list[str], lines: list[str], indent: str) -> None:
        """A ``switch`` on a small value with a ``default``; some cases
        fall through into the next."""
        modulus = self.rng.randint(3, 5)
        lines.append(
            f"{indent}switch ({self._scalar(scope)} % {modulus}) {{"
        )
        cases = sorted(self.rng.sample(range(-1, modulus), 2))
        for label in [f"case {value}" for value in cases] + ["default"]:
            target = self.rng.choice(scope + self.globals)
            lines.append(f"{indent}{label}:")
            lines.append(f"{indent}    {target} = {self._expr(scope)};")
            if label == "default" or self.rng.random() < 0.7:
                lines.append(f"{indent}    break;")
        lines.append(f"{indent}}}")

    def _statement(self, scope: list[str], lines: list[str], indent: str) -> None:
        kind = self.rng.random()
        target = self.rng.choice(scope + self.globals)
        if kind < 0.08:
            self._switch(scope, lines, indent)
        elif kind < 0.16:
            lines.append(f"{indent}{self._element(scope)} = {self._expr(scope)};")
        elif kind < 0.24:
            lines.append(f"{indent}note({self._expr(scope)});")
        elif kind < 0.45:
            lines.append(f"{indent}{target} = {self._expr(scope)};")
        elif kind < 0.7:
            call = self._call(scope)
            if call is None:
                lines.append(f"{indent}{target} = {self._expr(scope)};")
            else:
                lines.append(f"{indent}{target} = {target} + {call};")
        elif kind < 0.85:
            lines.append(f"{indent}if ({self._condition(scope)}) {{")
            lines.append(f"{indent}    {target} = {self._expr(scope)};")
            if self.rng.random() < 0.5:
                lines.append(f"{indent}}} else {{")
                other = self.rng.choice(scope + self.globals)
                lines.append(f"{indent}    {other} = {self._expr(scope)};")
            lines.append(f"{indent}}}")
        else:
            void_fns = [fn for fn in self.functions if not fn[2]]
            if void_fns:
                name, arity, _ = self.rng.choice(void_fns)
                args = ", ".join(self._operand(scope) for _ in range(arity))
                lines.append(f"{indent}{name}({args});")
            else:
                lines.append(f"{indent}{target} = {self._expr(scope)};")

    def _loop(self, scope: list[str], lines: list[str], counter: str) -> None:
        bound = self.rng.randint(2, 6)
        lines.append(f"    {counter} = 0;")
        lines.append(f"    while ({counter} < {bound}) {{")
        for _ in range(self.rng.randint(1, 2)):
            self._statement(scope, lines, "        ")
        lines.append(f"        {counter} = {counter} + 1;")
        lines.append("    }")

    # -- declarations --------------------------------------------------

    def _function(self, index: int) -> str:
        returns_value = self.rng.random() < 0.75
        arity = self.rng.randint(0, 2)
        name = f"fn{index}"
        params = [f"p{i}" for i in range(arity)]
        signature = ", ".join(f"int {p}" for p in params) or "void"
        return_type = "int" if returns_value else "void"
        lines = [f"{return_type} {name}({signature})", "{"]
        locals_ = [f"v{i}" for i in range(self.rng.randint(1, 3))]
        for local in locals_:
            lines.append(f"    int {local} = {self._operand(params)};")
        self.pointer = None
        targets = [fn for fn in self.functions if fn[2]]
        if targets and self.rng.random() < 0.5:
            callee, callee_arity, _ = self.rng.choice(targets)
            formals = ", ".join(f"int a{i}" for i in range(callee_arity))
            lines.append(
                f"    int (*ptr)({formals or 'void'}) = {callee};"
            )
            self.pointer = ("ptr", callee_arity)
        use_loop = self.rng.random() < 0.5
        if use_loop:
            # Declarations stay at the top of the block (C89 style).
            lines.append(f"    int loop{index} = 0;")
        scope = params + locals_
        for _ in range(self.rng.randint(1, 4)):
            self._statement(scope, lines, "    ")
        if use_loop:
            self._loop(scope, lines, f"loop{index}")
        if returns_value:
            lines.append(f"    return {self._expr(scope)};")
        elif self.globals:
            # Void functions earn their keep by mutating a global —
            # otherwise optimization could legally delete every call.
            target = self.rng.choice(self.globals)
            lines.append(f"    {target} = {target} + {self._expr(scope)};")
        lines.append("}")
        self.functions.append((name, arity, returns_value))
        return "\n".join(lines)

    def _main(self) -> str:
        lines = ["int main(void)", "{", "    int acc = 0;", "    int i = 0;"]
        # Drive the call graph hard enough that hot arcs clear the
        # fuzzing weight threshold and inlining really happens.
        iterations = self.rng.randint(8, 20)
        lines.append(f"    while (i < {iterations}) {{")
        for name, arity, returns_value in self.functions:
            args = ", ".join(
                str(self.rng.randint(0, 9)) for _ in range(arity)
            )
            if returns_value:
                lines.append(f"        acc = acc + {name}({args});")
            else:
                lines.append(f"        {name}({args});")
        lines.append("        i = i + 1;")
        lines.append("    }")
        if self.exits:
            # Print from a callee that exits with main's frame open.
            lines.append("    finish(acc);")
        else:
            lines.extend(f"    {line}" for line in self._report("acc", "i"))
        lines.append("    return 0;")
        lines.append("}")
        return "\n".join(lines)

    def _report(self, acc: str, counter: str) -> list[str]:
        """Statements printing ``acc``, the globals and the array."""
        lines = [f"print_int({acc});", "putchar('\\n');"]
        for name in self.globals:
            lines.append(f"print_int({name});")
            lines.append("putchar('\\n');")
        lines.append(f"{counter} = 0;")
        lines.append(f"while ({counter} < {ARRAY_SIZE}) {{")
        lines.append(f"    print_int(arr[{counter}]);")
        lines.append("    putchar(' ');")
        lines.append(f"    {counter} = {counter} + 1;")
        lines.append("}")
        lines.append("putchar('\\n');")
        return lines

    def _finish(self) -> str:
        body = ["int k = 0;", *self._report("acc", "k"), "exit(0);"]
        return "\n".join(
            ["void finish(int acc)", "{", *(f"    {line}" for line in body), "}"]
        )

    def build(self) -> str:
        pieces = ["#include <sys.h>", ""]
        for index in range(self.rng.randint(1, 3)):
            name = f"g{index}"
            self.globals.append(name)
            pieces.append(f"int {name} = {self.rng.randint(0, 9)};")
        pieces.append(f"int arr[{ARRAY_SIZE}];")
        pieces.append("")
        pieces.append(NOTE)
        pieces.append("")
        for index in range(self.rng.randint(2, 5)):
            pieces.append(self._function(index))
            pieces.append("")
        self.exits = self.rng.random() < 0.5
        if self.exits:
            pieces.append(self._finish())
            pieces.append("")
        pieces.append(self._main())
        return "\n".join(pieces)


def generate_program(seed: int) -> str:
    """One deterministic random program for ``seed``."""
    return _ProgramBuilder(random.Random(seed)).build()


def check_program(
    source: str,
    index: int,
    seed: int,
    params: InlineParameters | None = None,
) -> tuple[list[FuzzFailure], DifferentialReport | None]:
    """Push one program through every stage, differentially.

    Stage order: compile (hardened verifier runs inside), baseline run,
    optimize + re-verify, differential inline oracle on the optimized
    module, optimize-after-inlining (a clone of the oracle's inlined
    module) + re-verify + re-run. Every stage's
    :class:`~repro.profiler.profile.Observation` (exit code, stdout,
    stderr, written files) is compared against the baseline's; the
    optimize stage's is the one the oracle took when it profiled the
    optimized module, so that module runs once.
    """
    params = params or FUZZ_PARAMS
    spec = RunSpec(label=f"fuzz-{index}")

    def fail(stage: str, detail: str) -> FuzzFailure:
        return FuzzFailure(index, seed, stage, detail, source)

    def observe(candidate) -> Observation:
        return Observation.of(run_once(candidate, spec))

    try:
        module = compile_program(source, filename=f"fuzz{index}.c")
    except ReproError as error:
        return [fail("compile", str(error))], None
    expected = observe(module)
    if expected.exit_code != 0:
        return [fail("baseline", f"exit code {expected.exit_code}")], None

    optimized = module.clone()
    try:
        optimize_module(optimized)
        verify_module(optimized)
    except ReproError as error:
        return [fail("optimize", str(error))], None
    diverged = [fail("optimize", "behavior diverged from baseline")], None

    try:
        report = verify_inlining(
            optimized, [spec], params, seed=seed, name=f"fuzz-{index}"
        )
    except RuntimeError:
        # The oracle refuses an original that exits non-zero, and the
        # baseline exited 0.
        return diverged
    except ReproError as error:
        return [fail("inline", str(error))], None
    measured = report.measured
    if measured is not None and measured.profile.observations[0] != expected:
        return diverged
    failures = [
        fail("inline", problem)
        for problem in report.divergences + report.invariant_failures
    ]
    if measured is None:
        return failures, report

    inlined = measured.inline.module.clone()
    try:
        optimize_module(inlined)
        verify_module(inlined)
    except ReproError as error:
        failures.append(fail("optimize-after-inline", str(error)))
        return failures, report
    if observe(inlined) != expected:
        failures.append(
            fail("optimize-after-inline", "behavior diverged from baseline")
        )
    return failures, report


def run_fuzz(
    count: int,
    seed: int = 0,
    params: InlineParameters | None = None,
) -> FuzzReport:
    """Run a fuzzing campaign of ``count`` programs from ``seed``."""
    obs = current()
    report = FuzzReport(count=count, seed=seed)
    with obs.tracer.span("verify.fuzz", count=count, seed=seed) as attrs:
        for index in range(count):
            program_seed = seed + index
            source = generate_program(program_seed)
            failures, differential = check_program(
                source, index, program_seed, params
            )
            report.failures.extend(failures)
            if differential is not None:
                report.expansions += differential.expansions
        attrs["failures"] = len(report.failures)
        attrs["expansions"] = report.expansions
    if obs.metrics.enabled:
        obs.metrics.inc("verify.fuzz_programs", count)
        if report.failures:
            obs.metrics.inc("verify.fuzz_failures", len(report.failures))
    return report
