"""How suite runs execute: the artifact cache and the worker pool.

- :mod:`repro.pipeline.session` — the :class:`CompilationSession`
  content-addressed artifact cache (compiled modules, profiles) with an
  optional on-disk store;
- :mod:`repro.pipeline.parallel` — deterministic thread-pool fan-out
  with per-worker observability merging.

The optimizer's fixpoint loop and its pass-spec parser live in
:mod:`repro.opt.pipeline`; the §3 inliner phases run in order in
:class:`repro.inliner.manager.InlineExpander`.
"""

from repro.pipeline.parallel import parallel_map
from repro.pipeline.session import (
    CompilationSession,
    module_cache_key,
    module_content_key,
    profile_cache_key,
)

__all__ = [
    "CompilationSession",
    "module_cache_key",
    "module_content_key",
    "parallel_map",
    "profile_cache_key",
]
