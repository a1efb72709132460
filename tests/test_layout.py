"""Tests for profile-guided function placement."""

from repro.compiler import compile_program
from repro.experiments.extensions import measure_extension
from repro.layout import affinity_order, placement_experiment
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.profiler.profile import RunSpec, profile_module
from repro.vm.machine import Machine
from repro.vm.os import VirtualOS

HOT_PAIR = """
#include <sys.h>
int cold_helper(int x) { return x - 1; }
int hot_helper(int x) { return x + 1; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 100; i++)
        s += hot_helper(i);
    s += cold_helper(s);
    print_int(s);
    return 0;
}
"""


def prepared():
    module = compile_program(HOT_PAIR)
    profile = profile_module(module, [RunSpec()])
    return module, profile


class TestAffinityOrder:
    def test_all_functions_present_once(self):
        module, profile = prepared()
        order = affinity_order(module, profile)
        assert sorted(order) == sorted(module.functions)

    def test_hot_pair_adjacent(self):
        module, profile = prepared()
        order = affinity_order(module, profile)
        assert abs(order.index("main") - order.index("hot_helper")) == 1

    def test_hot_chain_leads(self):
        module, profile = prepared()
        order = affinity_order(module, profile)
        assert order.index("hot_helper") < order.index("strstr")

    def test_deterministic(self):
        module, profile = prepared()
        assert affinity_order(module, profile) == affinity_order(module, profile)


class TestExplicitOrderInVM:
    def test_function_order_respected_and_correct(self):
        module, profile = prepared()
        order = affinity_order(module, profile)
        default = Machine(module, VirtualOS()).run()
        placed = Machine(module, VirtualOS(), function_order=order).run()
        assert placed.stdout == default.stdout
        assert placed.counters.il == default.counters.il

    def test_partial_order_tolerated(self):
        module, _ = prepared()
        result = Machine(
            module, VirtualOS(), function_order=["hot_helper"]
        ).run()
        assert result.exit_code == 0


class TestPlacementExperiment:
    def test_reports_all_configs(self):
        module = compile_program(HOT_PAIR, pass_spec=DEFAULT_OPT_SPEC)
        measured = measure_extension(module, [RunSpec()], name="hot_pair")
        points = placement_experiment(
            module, [RunSpec()], measured, configs=[(512, 1)], seeds=(0,)
        )
        [point] = points
        assert 0.0 <= point.miss_scattered <= 1.0
        assert 0.0 <= point.miss_placed <= 1.0
        assert 0.0 <= point.miss_inlined_scattered <= 1.0
