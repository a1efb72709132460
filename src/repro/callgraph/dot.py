"""Graphviz DOT export of weighted call graphs."""

from __future__ import annotations

from repro.callgraph.graph import (
    EXTERNAL_NODE,
    POINTER_NODE,
    ArcKind,
    ArcStatus,
    CallGraph,
)

_STATUS_COLORS = {
    ArcStatus.EXPANDED: "forestgreen",
    ArcStatus.TO_BE_EXPANDED: "green",
    ArcStatus.REJECTED: "red",
    ArcStatus.NOT_EXPANDABLE: "gray",
    ArcStatus.EXPANDABLE: "black",
}

#: Arc colors keyed by inline-audit reason code (see
#: :mod:`repro.observability.audit`): accepted arcs green, cold arcs
#: gray, hazard rejections red.
_REASON_COLORS = {
    "ACCEPTED": "forestgreen",
    "BELOW_THRESHOLD": "gray",
    "NOT_DIRECT": "gray",
    "ORDER_VIOLATION": "red",
    "SELF_RECURSIVE": "red",
    "RECURSIVE_LIMIT": "red",
    "SIZE_LIMIT": "red",
    "MAX_EXPANSIONS": "red",
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def to_dot(
    graph: CallGraph,
    include_synthetic: bool = False,
    min_weight: float = 0.0,
    decisions: dict[int, str] | None = None,
) -> str:
    """Render the call graph as DOT text.

    Node labels carry execution counts, arc labels invocation counts;
    arc colors encode the selection status. Synthetic worst-case arcs
    are hidden unless ``include_synthetic`` is set; ``min_weight`` can
    hide cold arcs in large graphs. With ``decisions`` (a call-site →
    reason-code map from the inline-audit log) arcs are instead colored
    by, and carry as their label, the selector's reason for each site,
    making a selection run visually debuggable.
    """
    lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for node in graph.nodes.values():
        attributes = [f'label="{node.name}\\n{node.weight:g}"']
        if node.name in (EXTERNAL_NODE, POINTER_NODE):
            attributes.append("style=dashed")
        if node.name == graph.entry:
            attributes.append("style=bold")
        lines.append(f"  {_quote(node.name)} [{', '.join(attributes)}];")
    for arc in graph.arcs.values():
        if arc.kind is ArcKind.SYNTHETIC and not include_synthetic:
            continue
        if arc.kind is not ArcKind.SYNTHETIC and arc.weight < min_weight:
            continue
        color = _STATUS_COLORS.get(arc.status, "black")
        label = f"{arc.weight:g}" if arc.kind is not ArcKind.SYNTHETIC else ""
        if decisions is not None and arc.site in decisions:
            reason = decisions[arc.site]
            color = _REASON_COLORS.get(reason, "black")
            label = f"{label}\\n{reason}" if label else reason
        style = "dotted" if arc.kind is ArcKind.SYNTHETIC else "solid"
        lines.append(
            f"  {_quote(arc.caller)} -> {_quote(arc.callee)}"
            f' [label="{label}", color={color}, style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
