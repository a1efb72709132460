"""Tests for the optimizer's pass specs and fixpoint loop, and for the
inliner's six §3 phases."""

import pytest

from repro.callgraph.build import build_call_graph
from repro.callgraph.reachability import eliminate_unreachable
from repro.compiler import compile_program
from repro.errors import ILError
from repro.il.instructions import Instr, Opcode
from repro.il.printer import format_module
from repro.inliner import expand
from repro.inliner.linearize import linearize
from repro.inliner.manager import InlineExpander
from repro.inliner.params import InlineParameters
from repro.inliner.select import select_sites
from repro.observability import Observability, observing
from repro.opt import optimize_function, optimize_module
from repro.opt.pipeline import DEFAULT_OPT_SPEC, parse_pass_spec
from repro.pipeline.session import module_cache_key
from repro.profiler.profile import RunSpec, profile_module

SOURCE = """
#include <sys.h>
int square(int x) { return x * x; }
int add(int a, int b) { return a + b; }
int main(void) {
    int i; int total = 0;
    for (i = 0; i < 50; i = i + 1) total = add(total, square(i));
    print_int(total); putchar(10);
    return 0;
}
"""

OPT_PASSES = (
    "constant-fold", "copy-propagate", "cse", "jump-optimize", "dead-code",
)
INLINE_PHASES = (
    "callgraph", "classify", "linearize", "select", "expand", "cleanup",
)


def _fresh_module():
    return compile_program(SOURCE, "passmanager_test.c")


class TestRegistry:
    def test_all_builtin_passes_registered(self):
        for name in (*OPT_PASSES, "verify"):
            assert parse_pass_spec(name) == (name,)

    def test_aliases_resolve_to_canonical(self):
        assert parse_pass_spec("fold,copyprop,jumpopt,dce,check") == (
            "constant-fold", "copy-propagate", "jump-optimize", "dead-code",
            "verify",
        )

    def test_parse_spec_order_preserved(self):
        assert parse_pass_spec("dce, fold ,cse") == (
            "dead-code", "constant-fold", "cse",
        )

    def test_unknown_pass_raises_with_menu(self):
        with pytest.raises(ValueError, match="unknown pass 'bogus'") as excinfo:
            parse_pass_spec("fold,bogus")
        # The menu offers only what a spec can run: the optimizer's
        # passes and verify, never the inliner's phases.
        assert str(excinfo.value).endswith(
            "available: constant-fold, copy-propagate, cse, dead-code,"
            " jump-optimize, verify"
            " (aliases: check, copyprop, dce, fold, jumpopt)"
        )

    def test_empty_spec_raises(self):
        with pytest.raises(ValueError, match="empty pass spec"):
            parse_pass_spec(" , ")
        assert parse_pass_spec("") == ()


class TestFunctionPipeline:
    def test_default_spec_matches_optimize_module(self):
        reference = _fresh_module()
        stats_ref = optimize_module(reference)

        per_function = _fresh_module()
        stats = [
            optimize_function(function)
            for function in per_function.functions.values()
        ]

        assert format_module(per_function) == format_module(reference)
        by_pass = {}
        for stat in stats:
            for name, count in stat.by_pass.items():
                by_pass[name] = by_pass.get(name, 0) + count
        assert by_pass == stats_ref.by_pass
        assert max(stat.rounds for stat in stats) == stats_ref.rounds

    def test_custom_spec_runs_only_named_passes(self):
        module = _fresh_module()
        stats = optimize_module(module, pass_spec="fold,dce")
        assert set(stats.by_pass) == {"constant-fold", "dead-code"}

    def test_optimize_function_spec(self):
        module = _fresh_module()
        stats = optimize_function(module.functions["main"], pass_spec="fold")
        assert set(stats.by_pass) == {"constant-fold"}
        assert stats.rounds >= 1

    def test_fixpoint_is_idempotent(self):
        module = _fresh_module()
        optimize_module(module)
        again = optimize_module(module)
        assert again.total_changes == 0

    def test_run_function_rejects_module_passes(self):
        module = _fresh_module()
        for phase in INLINE_PHASES:
            with pytest.raises(ValueError, match=f"unknown pass '{phase}'"):
                optimize_function(module.functions["main"], pass_spec=phase)

    def test_per_pass_metrics_reported(self):
        module = _fresh_module()
        with observing(Observability.create()) as obs:
            optimize_module(module)
            profile = profile_module(module, [RunSpec()])
            InlineExpander(module, profile).run()
        histograms = obs.metrics.snapshot()["histograms"]
        assert {
            name for name in histograms if name.startswith("pipeline.pass.")
        } == {
            f"pipeline.pass.{name}.seconds"
            for name in (*OPT_PASSES, *INLINE_PHASES)
        }


class TestInlinePhases:
    def test_expander_equivalent_to_manual_phases(self):
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        with observing(Observability.create()) as obs:
            result = InlineExpander(module, profile, check=True).run()
        assert result.records
        assert result.module.total_code_size() == result.final_size

        # The phases that rewrite the module, called by hand in §3's
        # order, build the same module.
        manual = module.clone()
        graph = build_call_graph(manual, profile)
        sequence = linearize(manual, profile)
        selection = select_sites(
            manual, graph, profile, sequence, InlineParameters()
        )
        for name in sequence:
            for arc in selection.selected:
                if arc.caller == name:
                    expand.expand_call_site(manual, arc.caller, arc.site)
        eliminate_unreachable(manual, build_call_graph(manual))
        assert format_module(manual) == format_module(result.module)

        # The §3 phase spans keep their historical names; under check
        # each phase is followed by its verification span.
        span_names = {
            r["name"] for r in obs.tracer.records if r["type"] == "span"
        }
        assert span_names == {
            *(f"inline.{phase}" for phase in INLINE_PHASES),
            "inline.verify",
            "verify.after_pass",
        }

    def test_check_names_the_phase_that_broke_the_il(self, monkeypatch):
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        with observing(Observability.create()) as obs:
            InlineExpander(module, profile, check=True).run()
        assert obs.metrics.snapshot()["counters"]["verify.pass_checks"] == 6

        find_call = expand._find_call

        def corrupting_find_call(caller, site):
            # Every expansion leaves a jump to a label that is nowhere.
            caller.body.append(Instr(Opcode.JUMP, label="nowhere"))
            return find_call(caller, site)

        monkeypatch.setattr(expand, "_find_call", corrupting_find_call)
        with pytest.raises(ILError, match="after pass 'expand'.*'nowhere'"):
            InlineExpander(module, profile, check=True).run()


class TestSpecConstants:
    def test_default_opt_spec_parses(self):
        assert parse_pass_spec(DEFAULT_OPT_SPEC) == OPT_PASSES
        assert parse_pass_spec(None) == OPT_PASSES

    def test_manager_spec_roundtrip(self):
        # The session keys a compiled module by the canonical spec, so
        # an alias and the name it stands for share a cache entry.
        assert ",".join(parse_pass_spec("fold,dce")) == "constant-fold,dead-code"
        assert module_cache_key(SOURCE, pass_spec="fold, dce") == (
            module_cache_key(SOURCE, pass_spec="constant-fold,dead-code")
        )
        assert module_cache_key(SOURCE, pass_spec="") == (
            module_cache_key(SOURCE, pass_spec=None)
        )
