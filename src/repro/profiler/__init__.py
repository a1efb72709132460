"""Profiling: run a program over representative inputs, average counts.

Mirrors the IMPACT-I profiler-to-compiler interface (§3.1): "the
profiler accumulates the average run-time statistics over many runs of
a program", from which node weights (function execution counts) and arc
weights (call-site invocation counts) are inferred.
"""

from repro.profiler.profile import (
    Observation,
    ProfileData,
    RunSpec,
    profile_module,
    run_once,
)
from repro.profiler.serialize import dump_profile, load_profile, module_fingerprint
from repro.profiler.static_estimate import estimate_profile

__all__ = [
    "Observation",
    "ProfileData",
    "RunSpec",
    "dump_profile",
    "estimate_profile",
    "load_profile",
    "module_fingerprint",
    "profile_module",
    "run_once",
]
