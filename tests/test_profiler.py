"""Unit tests for the profiler."""

import pytest

from repro.compiler import compile_program
from repro.profiler.profile import (
    ProfileData,
    RunSpec,
    profile_module,
    run_once,
)
from repro.vm.counters import Counters

ECHO_COUNT = """
#include <sys.h>
int seen(int c) { return c != EOF; }
int main(void) {
    int n = 0;
    int c = getchar();
    while (seen(c)) {
        n++;
        c = getchar();
    }
    print_int(n);
    return 0;
}
"""


class TestRunSpec:
    def test_make_os_copies_state(self):
        spec = RunSpec(stdin=b"x", files={"f": b"y"}, argv=["a"])
        os1 = spec.make_os()
        os2 = spec.make_os()
        os1.files["g"] = b"z"
        assert "g" not in os2.files

    def test_label_free_form(self):
        assert RunSpec(label="hello").label == "hello"

    def test_from_text_is_latin1(self):
        spec = RunSpec.from_text("café\n", ["ÿ"])
        assert spec.stdin == b"caf\xe9\n"
        assert spec.argv == ["ÿ"]
        assert RunSpec.from_text(None, None) == RunSpec()

    @pytest.mark.parametrize(
        "stdin, argv, name",
        [("€", None, "stdin"), ("ok", ["fine", "x€"], "argv")],
    )
    def test_from_text_names_the_parameter_past_latin1(self, stdin, argv, name):
        with pytest.raises(ValueError, match=rf"^{name} holds '€' \(U\+20AC\)"):
            RunSpec.from_text(stdin, argv)

    def test_from_text_rejects_a_string_argv(self):
        # A string would otherwise be split into one argument per character.
        with pytest.raises(
            ValueError, match=r"^argv must be a list of strings, got str$"
        ):
            RunSpec.from_text(None, "hello")

    @pytest.mark.parametrize(
        "stdin, argv, message",
        [
            (7, None, r"^stdin must be a string, got int$"),
            (b"x", None, r"^stdin must be a string, got bytes$"),
            (["x"], None, r"^stdin must be a string, got list$"),
            (None, {"a": 1}, r"^argv must be a list of strings, got dict$"),
            ("ok", ["a", 3], r"^argv must be a list of strings, but argv\[1\] is int$"),
            ("ok", [None], r"^argv must be a list of strings, but argv\[0\] is NoneType$"),
        ],
    )
    def test_from_text_names_the_parameter_of_the_wrong_type(
        self, stdin, argv, message
    ):
        with pytest.raises(ValueError, match=message):
            RunSpec.from_text(stdin, argv)


class TestProfileModule:
    def test_requires_inputs(self):
        module = compile_program("int main(void) { return 0; }")
        with pytest.raises(ValueError):
            profile_module(module, [])

    def test_single_run_weights(self):
        module = compile_program(ECHO_COUNT)
        profile = profile_module(module, [RunSpec(stdin=b"abc")])
        assert profile.node_weight("seen") == 4  # 3 chars + EOF
        assert profile.node_weight("main") == 1

    def test_weights_averaged_over_runs(self):
        module = compile_program(ECHO_COUNT)
        specs = [RunSpec(stdin=b"ab"), RunSpec(stdin=b"abcd")]
        profile = profile_module(module, specs)
        assert profile.runs == 2
        assert profile.node_weight("seen") == 4  # (3 + 5) / 2

    def test_arc_weights_keyed_by_site(self):
        module = compile_program(ECHO_COUNT)
        profile = profile_module(module, [RunSpec(stdin=b"xyz")])
        assert sum(profile.arc_weights.values()) == profile.avg_calls

    def test_missing_names_weight_zero(self):
        module = compile_program(ECHO_COUNT)
        profile = profile_module(module, [RunSpec()])
        assert profile.node_weight("not_a_function") == 0.0
        assert profile.arc_weight(123456) == 0.0

    def test_nonzero_exit_raises_by_default(self):
        module = compile_program("int main(void) { return 3; }")
        with pytest.raises(RuntimeError, match="exited with 3"):
            profile_module(module, [RunSpec()])

    def test_nonzero_exit_tolerated_when_asked(self):
        module = compile_program("int main(void) { return 3; }")
        profile = profile_module(module, [RunSpec()], check_exit=False)
        assert profile.runs == 1

    def test_avg_properties(self):
        module = compile_program(ECHO_COUNT)
        profile = profile_module(
            module, [RunSpec(stdin=b"a"), RunSpec(stdin=b"abc")]
        )
        assert profile.avg_il == profile.total.il / 2
        assert profile.avg_calls == profile.total.calls / 2
        assert profile.avg_ct > 0


class TestRunOnce:
    def test_stdout_exposed(self):
        module = compile_program(ECHO_COUNT)
        result = run_once(module, RunSpec(stdin=b"hello"))
        assert result.stdout == "5"

    def test_default_spec(self):
        module = compile_program(ECHO_COUNT)
        assert run_once(module).stdout == "0"

    def test_determinism(self):
        module = compile_program(ECHO_COUNT)
        spec = RunSpec(stdin=b"deterministic!")
        first = run_once(module, spec)
        second = run_once(module, spec)
        assert first.stdout == second.stdout
        assert first.counters.il == second.counters.il
        assert first.counters.site_counts == second.counters.site_counts


class TestProfileData:
    def test_from_counters_divides(self):
        counters = Counters(il=100, ct=20, calls=10)
        counters.func_counts = {"f": 10}
        counters.site_counts = {0: 10}
        profile = ProfileData.from_counters(counters, runs=2)
        assert profile.avg_il == 50
        assert profile.node_weight("f") == 5
        assert profile.arc_weight(0) == 5

    def test_zero_runs_guarded(self):
        profile = ProfileData.from_counters(Counters(), runs=0)
        assert profile.avg_il == 0.0


class TestErrorFormatting:
    def test_location_prefix(self):
        from repro.errors import ReproError, SourceLocation

        error = ReproError("boom", SourceLocation("a.c", 3, 7))
        assert str(error) == "a.c:3:7: boom"

    def test_no_location(self):
        from repro.errors import ReproError

        assert str(ReproError("boom")) == "boom"
