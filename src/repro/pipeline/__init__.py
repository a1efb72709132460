"""Unified pipeline architecture: passes, manager, session, parallelism.

This package is the single home of "how stages run" for the whole
reproduction:

- :mod:`repro.pipeline.passes` — the :class:`Pass` protocol, the global
  registry of the five optimizer passes and six §3 inliner phases, and
  spec-string parsing (``"fold,copyprop,cse,jumpopt,dce"``);
- :mod:`repro.pipeline.manager` — the :class:`PassManager` fixpoint
  engine that ``optimize_module`` and ``InlineExpander`` are thin
  wrappers over;
- :mod:`repro.pipeline.session` — the :class:`CompilationSession`
  content-addressed artifact cache (compiled modules, profiles) with an
  optional on-disk store;
- :mod:`repro.pipeline.parallel` — deterministic thread-pool fan-out
  with per-worker observability merging.
"""

from repro.pipeline.manager import PassManager, PassStats
from repro.pipeline.parallel import parallel_map
from repro.pipeline.passes import (
    DEFAULT_OPT_SPEC,
    INLINE_PHASE_SPEC,
    FunctionPass,
    ModulePass,
    Pass,
    PassContext,
    available_passes,
    get_pass,
    parse_pass_spec,
    register_pass,
)
from repro.pipeline.session import (
    CompilationSession,
    module_cache_key,
    module_content_key,
    profile_cache_key,
)

__all__ = [
    "CompilationSession",
    "DEFAULT_OPT_SPEC",
    "FunctionPass",
    "INLINE_PHASE_SPEC",
    "ModulePass",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "available_passes",
    "get_pass",
    "module_cache_key",
    "module_content_key",
    "parallel_map",
    "parse_pass_spec",
    "profile_cache_key",
    "register_pass",
]
