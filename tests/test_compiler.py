"""Compiling with libc linked into every program, and what that must
not change."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import threading

import pytest

from repro import compiler
from repro.compiler import compile_program, compile_with_analysis
from repro.errors import ReproError, SemanticError
from repro.observability import Observability, observing
from repro.opt import optimize_module
from repro.opt.pipeline import DEFAULT_OPT_SPEC
from repro.pipeline.session import module_content_key
from repro.runtime import LIBC_SOURCE
from repro.verify.fuzz import generate_program
from repro.workloads.suite import benchmark_by_name, benchmark_suite

from helpers import c_output, run_c

#: ``module_content_key`` of each suite program as lowered and as
#: pre-optimized with ``DEFAULT_OPT_SPEC``, recorded when libc was
#: compiled in front of every program as one translation unit.
SUITE_MODULE_KEYS = {
    "cccp": (
        "eb000aa2fdc00ce281d8c1e3a595fec1baf14114bad62762e40e15400ef4a6d2",
        "9114263126647775c426405e95fbad63c59b9e6b5d0ba5929186830fea6d32a8",
    ),
    "cmp": (
        "e2497c6c4e0b502a27024a814c8d2a052a94918c185a330fdbfd58af6470e01c",
        "cae7e846ac176a997c3028b505bc6978ec944884c33a459513cd90005bd988ae",
    ),
    "compress": (
        "31c4a7ab237636edd9c8b7d30e8bfff354150c5933f5fd4c55b0c507fb3e6a52",
        "13b846bfa7499f3734478acca55c1bf3b5032777fcae3262bab68872c2dfac06",
    ),
    "eqn": (
        "45a57cf0c43a7fce6851113fa60386e6e6513e17d6a8edc5a8d73549a6a62281",
        "d3b2406969c75cf90777eca0b146360b69c77117e8013593baa77afcef96a361",
    ),
    "espresso": (
        "3037a75d541c39d97d9adf3eb2c9537fb90e91d787f9f24f2a3a06ad47163ef3",
        "28aa29bc8e2b3e9861e8078e1985a961cdee106da936bc86c8f703387ce3ec53",
    ),
    "grep": (
        "3292b6e42fa117278ecc048daedfa414a808495537124ac0482f8005414ac77a",
        "69fe4af80c6112faadf2ff8b7318d24663347090a4a03b426f4f8b0758183fc3",
    ),
    "lex": (
        "ce08d51071032550191cc3506bed136cd461a1f713fffa8dd1b0eb8e09754a2a",
        "11cd1c7107f79c37acdd827da90cd6d85e1332ad4bc4102a976721d5c4b83eb9",
    ),
    "make": (
        "017e0067fcae6d62045cfc5aa01eea2e9015ebc4b9162aaf243e7ee3aafcf53c",
        "8d6061885a85ecfd69a5ebee3c6c0d39517156975e35853fefc1182a16a5d728",
    ),
    "tar": (
        "9d0cb84dc6ae7ab2112f2ecd1ddcf341e880173f1f8eac8ca25108030d533c30",
        "b92fccc69e3e52a8acfae1da6d24b7676990ba5125fd4dfd6363fb493f94df63",
    ),
    "tee": (
        "8d9aaf14775b6178beba1518ea990b5b3470250ce57d94b6e1dc3e7da84666ad",
        "29bba3ebf5a1fa687f64324febe847092879938793835a50ef29f71ec822deaf",
    ),
    "wc": (
        "1d29d532c8672c73541d93b057a2b40d7a1b878cd493a46878442bffbe625b38",
        "9385eabf2c1463b05d968a79cdcf1de97a9aa0bf38641e38355e798230475152",
    ),
    "yacc": (
        "ca38900e9e4b1d905846c922709e1aae1bc6cf2941af5162f5c15e2e0448e41d",
        "86675bd3dd94d29beb0b8d94f7057bcb4424fb585119d87a2bfa224827013e9a",
    ),
}

#: One sha256 over the ``module_content_key`` of ``generate_program(seed)``
#: for seeds 0-49, each compiled with libc as ``fuzz<seed>.c``.
FUZZ_MODULES_DIGEST = "ea1f531f678eed290abe39db3631813ef6c9e4829db5805eb4bd90ee679a4a42"


def _message(error: ReproError) -> str:
    """An error's message without its source location."""
    text = str(error)
    if error.location is not None:
        text = text.removeprefix(f"{error.location}: ")
    return text


def _shape(module) -> tuple:
    """Everything a module is, including the counters later passes use."""
    return (
        module_content_key(module),
        list(module.globals),
        list(module.functions),
        module._next_site,
        module._next_string,
        [
            (f.inline_hint, f.frame_size, f.next_temp, f.next_label)
            for f in module.functions.values()
        ],
    )


def _fresh_libc(monkeypatch) -> None:
    """Compile as if libc had never been compiled in this process."""
    monkeypatch.setattr(compiler, "_LIBC", None)


class TestSuiteModules:
    """The IL of every suite program, pinned."""

    def test_suite_modules_are_pinned(self):
        keys = {}
        for benchmark in benchmark_suite():
            module = benchmark.compile()
            lowered = module_content_key(module)
            optimize_module(module, pass_spec=DEFAULT_OPT_SPEC)
            keys[benchmark.name] = (lowered, module_content_key(module))
        assert keys == SUITE_MODULE_KEYS

    def test_fuzz_modules_are_pinned(self):
        digest = hashlib.sha256()
        for seed in range(50):
            module = compile_program(generate_program(seed), f"fuzz{seed}.c")
            digest.update(module_content_key(module).encode())
        assert digest.hexdigest() == FUZZ_MODULES_DIGEST


class TestSingleUnit:
    """A program still sees libc as the front of its own unit."""

    def test_libc_is_visible_without_an_include(self):
        source = (
            "int main(void) {\n"
            "    char *s = \"abc\";\n"
            "    if (EOF == -1 && s != NULL)\n"
            "        putchar('0' + strlen(s));\n"
            "    return 0;\n"
            "}\n"
        )
        assert c_output(source) == "3"

    @pytest.mark.parametrize(
        "prelude, message",
        [
            (
                "int strlen(char *s) { return 0; }",
                "redefinition of function 'strlen'",
            ),
            ("int _bin_pos;", "redeclaration of '_bin_pos'"),
            ("int strlen(int a, int b);", "conflicting parameter counts for 'strlen'"),
            # libc defines strlen before strcmp: its order decides.
            (
                "int strcmp(int a);\nint strlen(int a, int b);",
                "conflicting parameter counts for 'strlen'",
            ),
        ],
        ids=["function", "global", "prototype", "first-in-libc"],
    )
    def test_libc_names_conflict(self, prelude, message):
        source = f"{prelude}\nint main(void) {{ return 0; }}\n"
        with pytest.raises(SemanticError) as caught:
            compile_program(source)
        assert _message(caught.value) == message

    def test_conflicting_prototype_with_the_same_count_compiles(self):
        source = (
            "#include <sys.h>\n"
            "int strlen(int x);\n"
            "int main(void) { print_int(strlen(\"four\")); return 0; }\n"
        )
        assert c_output(source) == "4"

    def test_own_builtin_is_linked_and_libc_calls_reach_it(self):
        # libc's bflush() calls write_stdout; this program supplies its
        # own, and its own putchar.
        source = (
            "#include <bio.h>\n"
            "int putchar(int c) { return eputc(c); }\n"
            "int write_stdout(char *buf, int n) {\n"
            "    int i;\n"
            "    for (i = 0; i < n; i++)\n"
            "        putchar(buf[i]);\n"
            "    return n;\n"
            "}\n"
            "int main(void) { bputs(\"hey\"); bflush(); return 0; }\n"
        )
        module = compile_program(source)
        assert {"putchar", "write_stdout"} <= set(module.functions)
        assert not {"putchar", "write_stdout"} & module.externals
        result = run_c(source)
        assert result.stdout == ""
        assert result.os.stderr_text() == "hey"

    def test_threads_compile_like_serial(self):
        names = ["wc", "tee", "cmp", "grep"]
        serial = {
            name: module_content_key(benchmark_by_name(name).compile())
            for name in names
        }
        results: dict[str, str] = {}

        def compile_one(name: str) -> None:
            results[name] = module_content_key(benchmark_by_name(name).compile())

        threads = [threading.Thread(target=compile_one, args=(n,)) for n in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert results == serial


#: Programs whose module the libc prefix must give exactly as one unit.
LINK_CASES = {
    "strings": (
        "#include <sys.h>\n"
        "char *greeting = \"hi\";\n"
        "char *names[2] = { \"a\", \"hi\" };\n"
        "int main(void) { puts(greeting); puts(\"a\"); puts(\"new\"); return 0; }\n"
    ),
    "pointer-table": (
        "#include <string.h>\n#include <stdlib.h>\n"
        "int (*table[2])(char *a, char *b) = { strcmp, strcmp };\n"
        "int by_len(char *a, char *b) { return strlen(a) - strlen(b); }\n"
        "int main(void) { char v[8]; sort(v, 2, 4, by_len);"
        " return table[0](\"a\", \"b\") < 0; }\n"
    ),
    "prototypes": (
        "#include <string.h>\n#include <ctype.h>\n"
        "int helper(int x);\n"
        "int strlen(int x);\n"
        "int main(void) { return helper(isdigit('1')); }\n"
        "int helper(int x) { return x; }\n"
    ),
    "own-builtin": (
        "int putchar(int c) { return c; }\n"
        "int main(void) { putchar('x'); return 0; }\n"
    ),
    # A builtin libc calls, redefined with another type: libc's calls
    # are lowered against the definition, as in one unit.
    "retyped-builtin": (
        "#include <bio.h>\n"
        "void write_stdout(char *buf, int n) { }\n"
        "int main(void) { bputs(\"x\"); bflush(); return 0; }\n"
    ),
}


class TestLibcPrefix:
    @pytest.mark.parametrize("name", sorted(LINK_CASES))
    def test_linked_module_is_the_single_units(self, name):
        source = LINK_CASES[name]
        single = compile_with_analysis(source, "p.c").module
        assert _shape(compile_program(source, "p.c")) == _shape(single)

    def test_suite_links_like_one_unit(self):
        for benchmark in benchmark_suite():
            filename = f"{benchmark.name}.c"
            single = compile_with_analysis(benchmark.source, filename).module
            assert _shape(compile_program(benchmark.source, filename)) == _shape(
                single
            ), benchmark.name

    @pytest.mark.parametrize(
        "spec", [DEFAULT_OPT_SPEC, "fold", "dce,verify,cse", "copyprop, jumpopt"]
    )
    def test_pass_spec_is_compile_then_optimize(self, spec):
        for name in ("wc", "grep"):
            benchmark = benchmark_by_name(name)
            expected = benchmark.compile()
            optimize_module(expected, pass_spec=spec)
            assert _shape(benchmark.compile(pass_spec=spec)) == _shape(expected)
            plain = benchmark.compile(link_libc=False)
            optimize_module(plain, pass_spec=spec)
            assert _shape(benchmark.compile(link_libc=False, pass_spec=spec)) == (
                _shape(plain)
            )

    def test_no_pass_spec_means_no_optimization(self):
        source = benchmark_by_name("tee").source
        for spec in (None, ""):
            with observing(Observability.create()) as obs:
                module = compile_program(source, pass_spec=spec)
            assert _shape(module) == _shape(compile_program(source))
            names = {r["name"] for r in obs.tracer.records if r["type"] == "span"}
            assert "opt.module" not in names
        with pytest.raises(ValueError, match="unknown pass"):
            compile_program(source, pass_spec="nope")

    def test_prefix_is_libc_alone_and_interns_no_string(self, monkeypatch):
        # libc under the standard headers compiles alone and interns no
        # string literal (in one unit its .strN would follow the
        # program's), so the prefix links like the single unit.
        _fresh_libc(monkeypatch)
        compile_program("int main(void) { return 0; }\n")
        alone = compile_program(
            LIBC_SOURCE + "int main(void) { return 0; }\n", "<libc>", link_libc=False
        )
        del alone.functions["main"]
        prefix = compiler._LIBC.module
        assert module_content_key(prefix) == module_content_key(alone)
        assert not [name for name in prefix.globals if name.startswith(".str")]

    def test_prefixes_are_bounded(self, monkeypatch):
        _fresh_libc(monkeypatch)
        source = "int main(void) { return 0; }\n"
        for index in range(compiler.LIBC_CACHE_LIMIT + 3):
            compile_program(source, pass_spec=f"fold,{'dce,' * index}cse")
        assert len(compiler._LIBC.optimized) == compiler.LIBC_CACHE_LIMIT

    def test_built_once_across_threads(self, monkeypatch):
        _fresh_libc(monkeypatch)
        names = ["wc", "tee", "cmp", "grep"]
        observed = {name: Observability.create() for name in names}
        modules = {}

        def compile_one(name: str) -> None:
            benchmark = benchmark_by_name(name)
            with observing(observed[name]):
                modules[name] = benchmark.compile(pass_spec=DEFAULT_OPT_SPEC)

        threads = [threading.Thread(target=compile_one, args=(n,)) for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often inside the build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = [
            record
            for obs in observed.values()
            for record in obs.tracer.records
            if record["type"] == "span" and record["name"] == "frontend.libc"
        ]
        assert len(spans) == 1
        for name in names:
            assert module_content_key(modules[name]) == SUITE_MODULE_KEYS[name][1]

    def test_later_compiles_skip_libc_work_but_count_the_linked_module(
        self, monkeypatch
    ):
        _fresh_libc(monkeypatch)
        source = benchmark_by_name("wc").source
        counters = []
        for _ in range(2):
            with observing(Observability.create()) as obs:
                compile_program(source, pass_spec=DEFAULT_OPT_SPEC)
            counters.append(obs.metrics.counters)
        first, second = counters
        for name in (
            "frontend.modules_compiled",
            "frontend.functions_lowered",
            "frontend.il_instructions_emitted",
        ):
            assert first[name] == second[name]
        assert second["frontend.tokens_lexed"] < first["frontend.tokens_lexed"]
        assert second["opt.modules_optimized"] == 1
        assert first["opt.modules_optimized"] == 2  # libc's, once

    def test_import_builds_nothing(self):
        code = (
            "import repro.cli, repro.experiments.__main__\n"
            "from repro import compiler\n"
            "assert compiler._LIBC is None, compiler._LIBC\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestErrorLines:
    """Diagnostics name the line of the file the mistake is on."""

    @pytest.mark.parametrize("link_libc", [True, False])
    @pytest.mark.parametrize(
        "line, column",
        [("    int x = ;", 13), ("    int x = y;", 13)],
        ids=["parse", "undeclared"],
    )
    def test_line_three(self, link_libc, line, column):
        source = f"#include <sys.h>\nint main(void) {{\n{line}\n    return 0;\n}}\n"
        with pytest.raises(ReproError) as caught:
            compile_program(source, "p.c", link_libc=link_libc)
        assert str(caught.value).startswith(f"p.c:3:{column}: ")

    def test_line_three_when_compiled_as_one_unit(self):
        # Redefining a builtin libc calls, with another type, compiles
        # the program and libc as one unit.
        source = (
            "void write_stdout(char *buf, int n) { }\n"
            "int main(void) {\n    int x = y;\n    return 0;\n}\n"
        )
        for compile_one in (compile_program, compile_with_analysis):
            with pytest.raises(SemanticError) as caught:
                compile_one(source, "p.c")
            assert str(caught.value).startswith("p.c:3:13: ")

    def test_mistakes_in_libc_name_libc(self):
        # Retyping a builtin libc calls compiles the program and libc as
        # one unit, where libc's call to it no longer type-checks.
        source = "void read_stdin(char *b, int n) { }\nint main(void) { return 0; }\n"
        for compile_one in (compile_program, compile_with_analysis):
            with pytest.raises(SemanticError) as caught:
                compile_one(source, "p.c")
            assert str(caught.value) == "<libc>:234:18: cannot assign void to int"

    def test_mistakes_in_the_program_keep_its_file_in_one_unit(self):
        # Redefining a builtin with another type forces the one unit.
        source = (
            "int write_stdout(char *b, char n) { return 0; }\n"
            "int main(void) {\n    return y;\n}\n"
        )
        for compile_one in (compile_program, compile_with_analysis):
            with pytest.raises(SemanticError) as caught:
                compile_one(source, "p.c")
            assert str(caught.value) == "p.c:3:12: use of undeclared identifier 'y'"
