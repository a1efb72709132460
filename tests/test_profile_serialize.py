"""Tests for profile persistence (the profiler-to-compiler interface)."""

import pytest

from repro.compiler import compile_program
from repro.inliner.manager import inline_module
from repro.profiler import (
    RunSpec,
    dump_profile,
    load_profile,
    module_fingerprint,
    profile_module,
)

PROGRAM = """
#include <sys.h>
int helper(int x) { return x + 1; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 25; i++)
        s += helper(i);
    print_int(s);
    return 0;
}
"""


def prepared():
    module = compile_program(PROGRAM)
    profile = profile_module(module, [RunSpec()])
    return module, profile


class TestRoundTrip:
    def test_weights_survive(self):
        module, profile = prepared()
        restored = load_profile(dump_profile(profile, module), module)
        assert restored.node_weights == profile.node_weights
        assert restored.arc_weights == profile.arc_weights
        assert restored.runs == profile.runs
        assert restored.avg_il == profile.avg_il

    def test_restored_profile_drives_inlining(self):
        module, profile = prepared()
        restored = load_profile(dump_profile(profile, module), module)
        direct = inline_module(module, profile)
        via_file = inline_module(module, restored)
        assert direct.expanded_sites == via_file.expanded_sites

    def test_profile_without_fingerprint_loads_anywhere(self):
        module, profile = prepared()
        text = dump_profile(profile)  # unbound
        other = compile_program("int main(void) { return 0; }")
        restored = load_profile(text, other)
        assert restored.runs == profile.runs


class TestFingerprint:
    def test_same_module_same_fingerprint(self):
        module_a = compile_program(PROGRAM)
        module_b = compile_program(PROGRAM)
        assert module_fingerprint(module_a) == module_fingerprint(module_b)

    def test_clone_preserves_fingerprint(self):
        module, _ = prepared()
        assert module_fingerprint(module) == module_fingerprint(module.clone())

    def test_changed_call_sites_change_fingerprint(self):
        module, _ = prepared()
        other = compile_program(PROGRAM.replace("helper(i)", "helper(i) + helper(0)"))
        assert module_fingerprint(module) != module_fingerprint(other)

    def test_stale_profile_rejected(self):
        module, profile = prepared()
        text = dump_profile(profile, module)
        changed = compile_program(
            PROGRAM.replace("helper(i)", "helper(i) + helper(0)")
        )
        with pytest.raises(ValueError, match="fingerprint"):
            load_profile(text, changed)

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="format"):
            load_profile('{"format": 99, "runs": 1}')


class TestNotAProfile:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "profile is not a JSON object"),
            ("3", "profile is not a JSON object"),
            ("null", "profile is not a JSON object"),
            ('{"format": 1}', "profile has no 'runs' field"),
            (
                '{"format": 1, "runs": 1, "node_weights": [], "arc_weights": {}}',
                "profile field 'node_weights' is not a JSON object",
            ),
        ],
        ids=["array", "number", "null", "no-runs", "node-weights-list"],
    )
    def test_raises_value_error_naming_the_field(self, text, message):
        with pytest.raises(ValueError) as caught:
            load_profile(text)
        assert str(caught.value) == message
