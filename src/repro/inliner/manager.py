"""The inline expansion driver (§3).

Runs the six phases in order on a *copy* of the input module:

1. profile-weighted call graph construction,
2. call-site classification,
3. linearization (sort functions by execution count),
4. expansion-site selection via the cost function,
5. physical expansion in linear order (each function's expansions are
   finished before any function later in the sequence starts, so the
   most recent definition of every callee can be cached — our in-memory
   modules make the paper's write-back definition cache implicit),
6. conservative unreachable-function elimination.

Each phase runs inside its ``inline.<phase>`` trace span and, with
live metrics, is reported as a ``pipeline.pass.<phase>`` like an
optimizer pass (:func:`~repro.opt.pipeline.report_pass`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.callgraph.graph import ArcStatus, CallGraph
from repro.callgraph.reachability import eliminate_unreachable
from repro.errors import ILError, InlineError
from repro.il.module import ILModule
from repro.il.verifier import verify_module
from repro.inliner.classify import ClassifiedSites
from repro.inliner.expand import ExpansionRecord, expand_call_site
from repro.inliner.linearize import linearize
from repro.inliner.params import InlineParameters
from repro.inliner.select import SelectionResult, select_sites
from repro.observability import Observability, resolve
from repro.observability.audit import InlineDecision
from repro.opt.pipeline import report_pass
from repro.profiler.profile import ProfileData


@dataclass
class InlineResult:
    """Everything the expansion produced, plus the numbers Table 4 needs."""

    module: ILModule
    graph: CallGraph
    sequence: list[str]
    selection: SelectionResult
    classified: ClassifiedSites
    records: list[ExpansionRecord] = field(default_factory=list)
    removed_functions: list[str] = field(default_factory=list)
    original_size: int = 0
    final_size: int = 0
    #: Code size right after physical expansion, before unreachable
    #: bodies are cleaned up — the number ``selection.projected_size``
    #: must reproduce exactly (asserted by :class:`InlineExpander`).
    pre_cleanup_size: int = 0

    @property
    def code_increase(self) -> float:
        """Static code growth fraction (Table 4's *code inc*)."""
        if self.original_size == 0:
            return 0.0
        return (self.final_size - self.original_size) / self.original_size

    @property
    def expanded_sites(self) -> set[int]:
        return {record.site for record in self.records}

    @property
    def decisions(self) -> list[InlineDecision]:
        """The audit log: one reason-coded record per considered arc."""
        return self.selection.decisions


class InlineExpander:
    """Runs the complete §3 pipeline on a copy of the module.

    With ``check``, the module's IL is re-verified after every phase
    and a broken invariant raises an :class:`~repro.errors.ILError`
    naming the phase; the finished module is verified either way.
    """

    def __init__(
        self,
        module: ILModule,
        profile: ProfileData,
        params: InlineParameters | None = None,
        seed: int = 0,
        linearize_method: str = "hybrid",
        check: bool = False,
        obs: Observability | None = None,
    ):
        self._input = module
        self._profile = profile
        self._params = params or InlineParameters()
        self._seed = seed
        self._check = check
        self._linearize_method = linearize_method
        self._obs = resolve(obs)

    def run(self) -> InlineResult:
        # Looked up per run, so a wrapper installed on their modules
        # (the traced bench's) sees the inliner's calls too.
        from repro.callgraph.build import build_call_graph
        from repro.inliner.classify import classify_sites

        obs = self._obs
        profile, params, seed = self._profile, self._params, self._seed
        method = self._linearize_method
        module = self._input.clone()
        original_size = module.total_code_size()

        with self._phase("callgraph", module):
            graph = build_call_graph(module, profile, obs=obs)
        with self._phase("classify", module):
            classified = classify_sites(module, graph, profile, params)
        with self._phase("linearize", module, method=method):
            sequence = linearize(module, profile, seed, method)
        with self._phase("select", module) as phase:
            selection = select_sites(
                module, graph, profile, sequence, params, seed=seed, obs=obs
            )
            phase.changes = len(selection.selected)
        with self._phase("expand", module, result="expansions") as phase:
            # Physical expansion follows the linear sequence: every
            # selected arc whose caller is the current function is
            # expanded, so each callee is final before anyone inlines it
            # (minimal expansions, §2.7).
            by_caller: dict[str, list] = {}
            for arc in selection.selected:
                by_caller.setdefault(arc.caller, []).append(arc)
            records: list[ExpansionRecord] = []
            for name in sequence:
                for arc in by_caller.get(name, ()):
                    records.append(expand_call_site(module, arc.caller, arc.site))
                    arc.status = ArcStatus.EXPANDED
            # The size before cleanup removes unreachable bodies is the
            # number the selection's projected_size must reproduce.
            pre_cleanup_size = module.total_code_size()
            phase.changes = len(records)
        with self._phase("cleanup", module, result="removed_functions") as phase:
            removed = eliminate_unreachable(module, build_call_graph(module))
            phase.changes = len(removed)

        self._reconcile(selection, records, original_size, pre_cleanup_size, obs)
        with obs.tracer.span("inline.verify"):
            verify_module(module)
        if obs.enabled:
            obs.metrics.inc("inliner.expansions_performed", len(records))
            obs.metrics.inc("inliner.functions_removed", len(removed))
            obs.metrics.observe(
                "inliner.code_growth",
                (module.total_code_size() - original_size) / original_size
                if original_size
                else 0.0,
            )
        return InlineResult(
            module=module,
            graph=graph,
            sequence=sequence,
            selection=selection,
            classified=classified,
            records=records,
            removed_functions=removed,
            original_size=original_size,
            final_size=module.total_code_size(),
            pre_cleanup_size=pre_cleanup_size,
        )

    @contextmanager
    def _phase(
        self, name: str, module: ILModule, result: str | None = None, **attrs
    ):
        """Run the ``with`` body as §3 phase ``name``.

        The body runs inside the ``inline.<name>`` span opened with
        ``attrs`` and sets the yielded object's ``changes``; when
        ``result`` is given, that count is also the span attribute of
        that name. With ``check``, the module is re-verified after the
        phase, so a transformation bug is pinned to the phase that
        introduced it rather than surfacing later.
        """
        obs = self._obs
        metered = obs.metrics.enabled
        phase = SimpleNamespace(changes=0)
        with obs.tracer.span(f"inline.{name}", **attrs) as span:
            start = time.perf_counter() if metered else 0.0
            yield phase
            if metered:
                report_pass(obs.metrics, name, start, phase.changes)
            if result:
                span[result] = phase.changes
        if not self._check:
            return
        with obs.tracer.span("verify.after_pass", pass_name=name):
            try:
                verify_module(module)
            except ILError as error:
                raise ILError(
                    f"IL verification failed after pass {name!r}: {error}"
                ) from error
        if metered:
            obs.metrics.inc("verify.pass_checks")

    @staticmethod
    def _reconcile(
        selection: SelectionResult,
        records: list[ExpansionRecord],
        original_size: int,
        pre_cleanup_size: int,
        obs: Observability,
    ) -> None:
        """Assert the cost model's bookkeeping matches physical reality.

        Two exact identities must hold after every run (no epsilon):
        the selection's projected program size equals the measured
        post-expansion code size, and the per-record instruction deltas
        sum to the same growth. A violation means the cost model and
        :func:`~repro.inliner.expand.expand_call_site` have drifted
        apart — the silent-contract bug this check exists to catch.
        """
        recorded_growth = sum(record.added_instructions for record in records)
        if original_size + recorded_growth != pre_cleanup_size:
            raise InlineError(
                "expansion records do not reconcile: original size"
                f" {original_size} + recorded growth {recorded_growth}"
                f" != measured post-expansion size {pre_cleanup_size}"
            )
        if selection.projected_size != pre_cleanup_size:
            raise InlineError(
                "cost model drifted from physical expansion:"
                f" projected size {selection.projected_size}"
                f" != measured post-expansion size {pre_cleanup_size}"
                f" ({len(records)} expansions from size {original_size})"
            )
        if obs.enabled:
            obs.metrics.inc("inliner.reconciliations")
            obs.tracer.event(
                "inline.reconcile",
                projected_size=selection.projected_size,
                measured_size=pre_cleanup_size,
                expansions=len(records),
            )


def inline_module(
    module: ILModule,
    profile: ProfileData,
    params: InlineParameters | None = None,
    seed: int = 0,
    linearize_method: str = "hybrid",
    check: bool = False,
    obs: Observability | None = None,
) -> InlineResult:
    """One-call convenience wrapper around :class:`InlineExpander`."""
    return InlineExpander(
        module,
        profile,
        params,
        seed,
        linearize_method=linearize_method,
        check=check,
        obs=obs,
    ).run()
