"""Dynamic execution counters collected by the VM."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counters:
    """Raw dynamic counts from one program run.

    ``il`` counts every executed real IL instruction (the paper's
    "intermediate instructions"). ``ct`` counts control transfers other
    than call/return (jump, conditional jump, switch), matching Table 1's
    *control* column. ``calls`` counts every dynamic call — to user
    functions, through pointers, and to externals alike.
    """

    il: int = 0
    ct: int = 0
    calls: int = 0
    returns: int = 0
    #: dynamic invocation count per static call site (the arc weights).
    site_counts: dict[int, int] = field(default_factory=dict)
    #: entry count per function, user and external (the node weights).
    func_counts: dict[str, int] = field(default_factory=dict)
    #: (function, pc) -> [taken, not-taken] for conditional branches.
    branch_counts: dict[tuple[str, int], list[int]] = field(default_factory=dict)

    def merge(self, other: "Counters") -> None:
        """Accumulate another run's counts into this one."""
        self.il += other.il
        self.ct += other.ct
        self.calls += other.calls
        self.returns += other.returns
        for site, count in other.site_counts.items():
            self.site_counts[site] = self.site_counts.get(site, 0) + count
        for name, count in other.func_counts.items():
            self.func_counts[name] = self.func_counts.get(name, 0) + count
        for key, pair in other.branch_counts.items():
            mine = self.branch_counts.setdefault(key, [0, 0])
            mine[0] += pair[0]
            mine[1] += pair[1]

    def to_summary(self) -> dict[str, int]:
        """The four scalar totals as a JSON-ready dict (service replies)."""
        return {
            "il": self.il,
            "ct": self.ct,
            "calls": self.calls,
            "returns": self.returns,
        }
