"""Weighted call graph data structures."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Special node summarizing every external function (§3.2): calls to
#: functions with unavailable bodies go *to* it, and it conservatively
#: calls every user function back.
EXTERNAL_NODE = "$$$"

#: Special node summarizing calls through pointers (§3.2).
POINTER_NODE = "###"


class ArcStatus(enum.Enum):
    """Selection status of an arc (§2.2: "considered for inline
    expansion, rejected for inline expansion, or inline expanded")."""

    EXPANDABLE = "expandable"
    NOT_EXPANDABLE = "not_expandable"
    TO_BE_EXPANDED = "to_be_expanded"
    EXPANDED = "expanded"
    REJECTED = "rejected"


class ArcKind(enum.Enum):
    """What kind of call site an arc represents."""

    DIRECT = "direct"  # ordinary call to a defined function
    EXTERNAL = "external"  # call to a function with no available body
    POINTER = "pointer"  # call through a function pointer
    SYNTHETIC = "synthetic"  # worst-case arcs out of $$$ / ###


@dataclass(eq=False)
class Node:
    """One function (or special node) with its execution-count weight."""

    name: str
    weight: float = 0.0
    out_arcs: list["Arc"] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} w={self.weight:g}>"


@dataclass(eq=False)
class Arc:
    """One static call site.

    ``site`` is the unique identifier (§2.2 requires one because several
    arcs may connect the same caller/callee pair). Synthetic arcs use
    negative ids.
    """

    site: int
    caller: str
    callee: str
    weight: float = 0.0
    kind: ArcKind = ArcKind.DIRECT
    status: ArcStatus = ArcStatus.EXPANDABLE

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Arc {self.site}: {self.caller} -> {self.callee}"
            f" w={self.weight:g} {self.kind.value} {self.status.value}>"
        )


class CallGraph:
    """G = (N, E, main)."""

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self.nodes: dict[str, Node] = {}
        self.arcs: dict[int, Arc] = {}
        self._next_synthetic = -1

    # ------------------------------------------------------------------

    def add_node(self, name: str, weight: float = 0.0) -> Node:
        node = self.nodes.get(name)
        if node is None:
            node = Node(name, weight)
            self.nodes[name] = node
        else:
            node.weight = weight
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def add_arc(
        self,
        site: int,
        caller: str,
        callee: str,
        weight: float = 0.0,
        kind: ArcKind = ArcKind.DIRECT,
    ) -> Arc:
        if site in self.arcs:
            raise ValueError(f"duplicate arc id {site}")
        arc = Arc(site, caller, callee, weight, kind)
        self.arcs[site] = arc
        self.nodes[caller].out_arcs.append(arc)
        return arc

    def add_synthetic_arc(self, caller: str, callee: str) -> Arc:
        site = self._next_synthetic
        self._next_synthetic -= 1
        return self.add_arc(site, caller, callee, 0.0, ArcKind.SYNTHETIC)

    # ------------------------------------------------------------------
    # queries

    def call_site_arcs(self) -> list[Arc]:
        """Real (non-synthetic) arcs: one per static call site."""
        return [arc for arc in self.arcs.values() if arc.kind is not ArcKind.SYNTHETIC]

    def arcs_between(self, caller: str, callee: str) -> list[Arc]:
        return [
            arc
            for arc in self.nodes[caller].out_arcs
            if arc.callee == callee
        ]

    def successors(self, name: str) -> set[str]:
        return {arc.callee for arc in self.nodes[name].out_arcs}

    def self_recursive(self, name: str) -> bool:
        """True when the node has an arc to itself (simple recursion)."""
        return any(arc.callee == name for arc in self.nodes[name].out_arcs)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CallGraph {len(self.nodes)} nodes,"
            f" {len(self.arcs)} arcs, entry={self.entry!r}>"
        )
