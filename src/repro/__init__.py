"""repro — profile-guided inline function expansion for C programs.

A full reproduction of Hwu & Chang, "Inline Function Expansion for
Compiling C Programs" (PLDI 1989): a C-subset compiler front end, a
three-address IL with an executing/profiling VM, the weighted-call-graph
inline expander with the paper's cost function and hazards, the
companion optimizer passes, no-profile baseline heuristics, and the
twelve-benchmark UNIX workload suite with the Table 1–4 harness.

Quickstart::

    from repro import compile_program, profile_module, inline_module, RunSpec, run_once

    module = compile_program(C_SOURCE)
    profile = profile_module(module, [RunSpec(stdin=b"...")])
    result = inline_module(module, profile)
    print(result.code_increase, run_once(result.module).stdout)
"""

from repro.compiler import compile_program, compile_with_analysis
from repro.inliner.manager import InlineExpander, InlineResult, inline_module
from repro.inliner.params import InlineParameters
from repro.observability import Observability
from repro.opt import optimize_function, optimize_module
from repro.opt.pipeline import parse_pass_spec
from repro.pipeline import CompilationSession
from repro.profiler.profile import (
    ProfileData,
    RunSpec,
    profile_module,
    run_once,
)
from repro.vm.machine import Machine, RunResult
from repro.vm.os import VirtualOS

__version__ = "1.0.0"

__all__ = [
    "CompilationSession",
    "InlineExpander",
    "InlineParameters",
    "InlineResult",
    "Machine",
    "Observability",
    "ProfileData",
    "RunResult",
    "RunSpec",
    "VirtualOS",
    "compile_program",
    "compile_with_analysis",
    "inline_module",
    "optimize_function",
    "optimize_module",
    "parse_pass_spec",
    "profile_module",
    "run_once",
]
