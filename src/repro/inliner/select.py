"""Expansion-site selection (§3.4).

Arcs violating the linear order, and all arcs touching ``$$$``/``###``,
are marked not-expandable. The remaining arcs are visited from heaviest
to lightest; each is accepted when the cost function says it is finite,
and the cost model's size/frame state is updated immediately so later
decisions see the grown caller.

Every arc the selector considers — expandable or not — produces exactly
one :class:`~repro.observability.audit.InlineDecision` in
``SelectionResult.decisions``, so the audit log accounts for 100% of
call-graph arcs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.callgraph.graph import Arc, ArcKind, ArcStatus, CallGraph
from repro.il.module import ILModule
from repro.inliner.cost import INFINITY, make_cost_model
from repro.inliner.linearize import order_index
from repro.inliner.params import InlineParameters
from repro.observability import current
from repro.observability.audit import DecisionReason, InlineDecision
from repro.profiler.profile import ProfileData


@dataclass
class SelectionResult:
    """Outcome of the selection phase."""

    #: Arcs to physically expand, heaviest first.
    selected: list[Arc] = field(default_factory=list)
    rejected: list[Arc] = field(default_factory=list)
    not_expandable: list[Arc] = field(default_factory=list)
    #: One audit record per considered arc (every call-site arc of the
    #: graph appears exactly once).
    decisions: list[InlineDecision] = field(default_factory=list)
    #: Projected program size after expansion (IL instructions).
    projected_size: int = 0
    original_size: int = 0
    #: Expected dynamic calls eliminated (sum of selected arc weights).
    expected_calls_eliminated: float = 0.0


def select_sites(
    module: ILModule,
    graph: CallGraph,
    profile: ProfileData,
    sequence: list[str],
    params: InlineParameters | None = None,
    seed: int = 0,
) -> SelectionResult:
    """Choose the arcs to expand, following the paper's §3.4."""
    params = params or InlineParameters()
    # The model knows the linear order, so committed sizes replay
    # exactly as physical expansion will apply them (nested expansions
    # included).
    model = make_cost_model(module, graph, params, sequence)
    position = order_index(sequence)
    result = SelectionResult(original_size=model.program_size)

    def audit(
        arc: Arc,
        reason: DecisionReason,
        cost: float | None = None,
        inputs: dict | None = None,
    ) -> None:
        result.decisions.append(
            InlineDecision(
                site=arc.site,
                caller=arc.caller,
                callee=arc.callee,
                weight=arc.weight,
                reason=reason,
                cost=cost,
                inputs=inputs if inputs is not None else {},
            )
        )

    expandable: list[Arc] = []
    for arc in graph.call_site_arcs():
        if arc.kind is not ArcKind.DIRECT:
            arc.status = ArcStatus.NOT_EXPANDABLE
            result.not_expandable.append(arc)
            audit(arc, DecisionReason.NOT_DIRECT, inputs={"kind": arc.kind.value})
            continue
        callee_pos = position.get(arc.callee)
        caller_pos = position.get(arc.caller)
        if arc.callee not in module.functions or callee_pos is None:
            # No body (or no place in the sequence at all) — there is
            # nothing to expand. Distinct from an ordering conflict
            # between two available bodies.
            arc.status = ArcStatus.NOT_EXPANDABLE
            result.not_expandable.append(arc)
            audit(
                arc,
                DecisionReason.CALLEE_UNAVAILABLE,
                inputs={
                    "callee_defined": arc.callee in module.functions,
                    "callee_position": callee_pos,
                },
            )
            continue
        if caller_pos is None or callee_pos >= caller_pos:
            arc.status = ArcStatus.NOT_EXPANDABLE
            result.not_expandable.append(arc)
            audit(
                arc,
                DecisionReason.ORDER_VIOLATION,
                inputs={"caller_position": caller_pos, "callee_position": callee_pos},
            )
            continue
        arc.status = ArcStatus.EXPANDABLE
        expandable.append(arc)

    # "Place all expandable arcs randomly in a list; sort the list
    # according to the arc weights" — the shuffle only breaks ties.
    rng = random.Random(seed)
    rng.shuffle(expandable)
    expandable.sort(key=lambda arc: -arc.weight)

    for arc in expandable:
        if len(result.selected) >= params.max_expansions:
            arc.status = ArcStatus.REJECTED
            result.rejected.append(arc)
            audit(
                arc,
                DecisionReason.MAX_EXPANSIONS,
                inputs={"max_expansions": params.max_expansions},
            )
            continue
        decision = model.evaluate(arc)
        if decision.cost < INFINITY:
            arc.status = ArcStatus.TO_BE_EXPANDED
            model.commit(arc)
            result.selected.append(arc)
            result.expected_calls_eliminated += arc.weight
            audit(arc, DecisionReason.ACCEPTED, decision.cost, decision.inputs)
        else:
            arc.status = ArcStatus.REJECTED
            result.rejected.append(arc)
            audit(arc, decision.reason, inputs=decision.inputs)

    # Commits were replayed in linear order, so this projection equals
    # the physical post-expansion code size exactly; InlineExpander
    # asserts the reconciliation.
    result.projected_size = model.program_size
    obs = current()
    if obs.enabled:
        metrics = obs.metrics
        metrics.inc("inliner.arcs_considered", len(result.decisions))
        metrics.inc("inliner.arcs_selected", len(result.selected))
        metrics.inc("inliner.arcs_rejected", len(result.rejected))
        metrics.inc("inliner.arcs_not_expandable", len(result.not_expandable))
        for decision in result.decisions:
            metrics.inc(f"inliner.reason.{decision.reason.value}")
        obs.tracer.event(
            "inliner.selection",
            considered=len(result.decisions),
            selected=len(result.selected),
            projected_size=result.projected_size,
            original_size=result.original_size,
            expected_calls_eliminated=result.expected_calls_eliminated,
        )
    return result
