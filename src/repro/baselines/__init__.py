"""Baseline inlining heuristics that use no profile information.

The paper (§1.2) surveys contemporaries: the IBM PL.8 compiler inlines
all leaf-level procedures; the MIPS C compiler examines code structure
(e.g. loops); GNU C trusts the programmer's ``inline`` keyword. These
are implemented here as comparators for the ablation benchmarks. Each
maps a module to arc weights, and the profile-guided expander selects
and expands under them, so every comparator spends the same budget.
"""

from repro.baselines.static_heuristics import (
    hint_weights,
    leaf_weights,
    loop_weights,
    size_weights,
)

__all__ = [
    "hint_weights",
    "leaf_weights",
    "loop_weights",
    "size_weights",
]
