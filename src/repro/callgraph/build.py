"""Construct a weighted call graph from an IL module and a profile.

Follows §3.2 exactly:

1. allocate a node per function,
2. connect nodes for static calls,
3. route calls to unavailable functions through ``$$$`` and calls
   through pointers through ``###``, assuming worst-case behaviour:
   ``$$$`` may call every user function, and ``###`` may reach every
   address-taken function — or *every* function when any external
   exists, because externals could have leaked any address.
"""

from __future__ import annotations

from repro.callgraph.graph import (
    EXTERNAL_NODE,
    POINTER_NODE,
    ArcKind,
    CallGraph,
)
from repro.il.instructions import Opcode
from repro.il.module import ILModule
from repro.observability import current
from repro.profiler.profile import ProfileData


def build_call_graph(
    module: ILModule,
    profile: ProfileData | None = None,
    refine_pointers: bool = False,
) -> CallGraph:
    """Build the weighted call graph of ``module``.

    Without a profile, all weights are zero (structure-only graph).
    With ``refine_pointers`` the ### successor set is narrowed by the
    signature-based pointer analysis (see
    :mod:`repro.callgraph.pointer_analysis`) instead of the paper's
    worst case; the paper-faithful default assumes the worst.
    """
    graph = CallGraph(module.entry)
    for name in module.functions:
        weight = profile.node_weight(name) if profile else 0.0
        graph.add_node(name, weight)

    has_external_calls = False
    has_pointer_calls = False
    external_weight = 0.0
    pointer_weight = 0.0
    graph.add_node(EXTERNAL_NODE, 0.0)
    graph.add_node(POINTER_NODE, 0.0)

    for caller_name, function in module.functions.items():
        for instr in function.body:
            if instr.op is Opcode.CALL:
                weight = profile.arc_weight(instr.site) if profile else 0.0
                callee = instr.name
                if callee in module.functions:
                    graph.add_arc(instr.site, caller_name, callee, weight)
                else:
                    has_external_calls = True
                    external_weight += weight
                    graph.add_arc(
                        instr.site, caller_name, EXTERNAL_NODE, weight, ArcKind.EXTERNAL
                    )
            elif instr.op is Opcode.ICALL:
                has_pointer_calls = True
                weight = profile.arc_weight(instr.site) if profile else 0.0
                pointer_weight += weight
                graph.add_arc(
                    instr.site, caller_name, POINTER_NODE, weight, ArcKind.POINTER
                )

    graph.node(EXTERNAL_NODE).weight = external_weight
    graph.node(POINTER_NODE).weight = pointer_weight

    # Worst-case closure (§2.5/§3.2). One arc from $$$ to each user
    # function suffices: it keeps cycle detection and conservative
    # function-level dead-code elimination correct.
    if has_external_calls:
        for name in module.functions:
            graph.add_synthetic_arc(EXTERNAL_NODE, name)
    if has_pointer_calls:
        if refine_pointers:
            from repro.callgraph.pointer_analysis import analyze_pointer_calls

            targets = sorted(analyze_pointer_calls(module).all_targets)
        elif has_external_calls:
            # Externals may have captured any function's address, so a
            # call through a pointer may reach any user function.
            targets = list(module.functions)
        else:
            targets = [
                name for name in module.address_taken if name in module.functions
            ]
        for name in targets:
            graph.add_synthetic_arc(POINTER_NODE, name)
        # A pointer call may also land in an external function.
        graph.add_synthetic_arc(POINTER_NODE, EXTERNAL_NODE)

    obs = current()
    if obs.enabled:
        kinds: dict[str, int] = {}
        for arc in graph.arcs.values():
            kinds[arc.kind.value] = kinds.get(arc.kind.value, 0) + 1
        metrics = obs.metrics
        metrics.inc("callgraph.builds")
        for kind, count in kinds.items():
            metrics.inc(f"callgraph.arcs_{kind}", count)
        obs.tracer.event(
            "callgraph.built",
            nodes=len(graph.nodes),
            arcs=len(graph.arcs),
            **{f"arcs_{kind}": count for kind, count in sorted(kinds.items())},
        )
    return graph
