"""Reachability and function-level dead code elimination (§2.6).

A function is removable when it cannot be reached from ``main``. With
any external function present, the worst case must be assumed — the
external may call anything — so nothing is removed.
"""

from __future__ import annotations

from repro.callgraph.graph import EXTERNAL_NODE, POINTER_NODE, CallGraph
from repro.il.module import ILModule


def reachable_functions(graph: CallGraph) -> set[str]:
    """Nodes reachable from the graph's entry by directed paths (entry
    included), following every arc, those out of ``$$$`` and ``###``
    too."""
    if graph.entry not in graph.nodes:
        return set()
    seen = {graph.entry}
    frontier = [graph.entry]
    while frontier:
        name = frontier.pop()
        for arc in graph.nodes[name].out_arcs:
            if arc.callee not in seen:
                seen.add(arc.callee)
                frontier.append(arc.callee)
    return seen


def eliminate_unreachable(module: ILModule, graph: CallGraph) -> list[str]:
    """Delete functions not reachable from the entry; returns the names.

    The paper's conservative stance: when the call graph is incomplete
    (any external call exists), all functions are presumed reachable
    and nothing is removed. Address-taken functions are always kept,
    since an indirect call or an asynchronous event (§2.6) could still
    invoke them.
    """
    if any(arc.callee == EXTERNAL_NODE for arc in graph.call_site_arcs()):
        return []
    # ### reachability already covers address-taken functions when an
    # indirect call exists; keep address-taken ones regardless.
    keep = reachable_functions(graph) | set(module.address_taken)
    keep.add(module.entry)
    keep.discard(EXTERNAL_NODE)
    keep.discard(POINTER_NODE)
    removed = [name for name in module.functions if name not in keep]
    for name in removed:
        del module.functions[name]
    return removed
