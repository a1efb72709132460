"""Tests for the impact-inline CLI and the experiments __main__."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.__main__ import main as experiments_main
from repro.profiler.serialize import FORMAT_VERSION

PROGRAM = """
#include <sys.h>
int triple(int x) { return x * 3; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 40; i++)
        s += triple(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


class TestRunCommand:
    def test_runs_and_prints(self, c_file, capsys):
        code = cli_main(["run", c_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "2340" in captured.out
        assert "ILs" in captured.err

    def test_stdin_flag(self, tmp_path, capsys):
        path = tmp_path / "echo.c"
        path.write_text(
            "#include <sys.h>\n"
            "int main(void) { int c = getchar();"
            " while (c != EOF) { putchar(c); c = getchar(); } return 0; }"
        )
        cli_main(["run", str(path), "--stdin", "ping"])
        assert "ping" in capsys.readouterr().out

    def test_stdin_flag_round_trips_latin1(self, tmp_path, capsys):
        from repro.workloads.suite import benchmark_by_name

        path = tmp_path / "tee.c"
        path.write_text(benchmark_by_name("tee").source)
        assert cli_main(["run", str(path), "--stdin", "café\n"]) == 0
        assert capsys.readouterr().out == "café\n"

    def test_argv_flags(self, tmp_path, capsys):
        path = tmp_path / "args.c"
        path.write_text(
            "#include <sys.h>\n"
            "int main(int argc, char **argv) {"
            " print_str(argv[1]); return 0; }"
        )
        cli_main(["run", str(path), "--arg", "zap"])
        assert "zap" in capsys.readouterr().out


class TestInlineCommand:
    def test_reports_improvement(self, c_file, capsys):
        code = cli_main(["inline", c_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "expanded call sites" in out
        assert "call decrease" in out

    def test_dump_flag_prints_il(self, c_file, capsys):
        cli_main(["inline", c_file, "--dump"])
        out = capsys.readouterr().out
        assert "func main" in out

    def test_threshold_flag(self, c_file, capsys):
        cli_main(["inline", c_file, "--threshold", "1000000"])
        out = capsys.readouterr().out
        assert "expanded call sites : 0" in out

    def test_profile_file_call_decrease_compares_one_input(self, tmp_path, capsys):
        # Select under a profile of 200 characters of stdin, then inline
        # and measure on empty stdin: bump never runs there, so no call
        # is removed. Dividing by the saved profile's calls read 99.3%.
        path = tmp_path / "bump.c"
        path.write_text(
            "#include <sys.h>\n"
            "int total = 0;\n"
            "void bump(int x) { total = total + x; }\n"
            "int main(void) {\n"
            "    int c = getchar();\n"
            "    while (c != EOF) { bump(c); c = getchar(); }\n"
            "    print_int(total);\n"
            "    putchar('\\n');\n"
            "    return 0;\n"
            "}\n"
        )
        saved = str(tmp_path / "bump.profile")
        cli_main(["profile", str(path), "--stdin", "x" * 200, "-o", saved])
        capsys.readouterr()
        assert cli_main(["inline", str(path), "--profile-file", saved]) == 0
        out = capsys.readouterr().out
        assert "expanded call sites : 1" in out
        assert "call decrease       : 0.0%" in out


class TestTablesCommand:
    def test_single_benchmark_table(self, capsys):
        code = experiments_main(["table1", "--benchmarks", "tee"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "tee" in out

    def test_table4_subset(self, capsys):
        code = experiments_main(["table4", "--benchmarks", "wc", "tee"])
        out = capsys.readouterr().out
        assert code == 0
        assert "code inc" in out


class TestTablesAlias:
    """``python -m repro.experiments`` is another name for ``tables``."""

    ARGV = ["table4", "--benchmarks", "wc", "tee"]

    @pytest.mark.parametrize(
        "extra",
        [[], ["--jobs", "2"]],
        ids=["plain", "jobs"],
    )
    def test_both_names_print_the_same(self, extra, capsys):
        argv = [*self.ARGV, *extra]
        assert experiments_main(argv) == 0
        alias = capsys.readouterr().out
        assert cli_main(["tables", *argv]) == 0
        assert capsys.readouterr().out == alias
        assert "Table 4" in alias and "wc" in alias and "tee" in alias

    def test_both_names_print_the_same_from_a_cache(self, tmp_path, capsys):
        argv = [*self.ARGV, "--cache-dir", str(tmp_path / "cache")]
        outputs = []
        for _ in range(2):
            assert experiments_main(argv) == 0
            outputs.append(capsys.readouterr().out)
            assert cli_main(["tables", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1


class TestModeFlags:
    """``ablations`` and ``extensions`` honour a flag or reject it."""

    # Both modes record --trace/--metrics-out/--summary like any
    # command; neither reads or fills a cache.
    @pytest.mark.parametrize("mode", ["ablations", "extensions"])
    @pytest.mark.parametrize(
        "flag", [["--cache-dir", "cache"]], ids=["cache-dir"]
    )
    def test_obs_and_cache_flags_rejected(
        self, mode, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            experiments_main([mode, *flag])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag",
        [
            ["--benchmarks", "wc"],
            ["--jobs", "2"],
            ["--passes", "fold"],
            ["--check"],
        ],
        ids=["benchmarks", "jobs", "passes", "check"],
    )
    def test_extensions_rejects_run_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["extensions", "--scale", "small", *flag])
        assert excinfo.value.code == 2
        assert "takes no run flag but --scale" in capsys.readouterr().err

    def test_ablations_record_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = experiments_main(
            ["ablations", "--benchmarks", "wc", "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert "Ablation D" in capsys.readouterr().out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["frontend.modules_compiled"] == 1
        assert counters["vm.runs"] == 20
        assert counters["inliner.expansions_performed"] == 2

    def test_ablations_honour_run_flags(self, monkeypatch, capsys):
        from repro.experiments import ablations

        prepared = []
        original = ablations._measure_program

        def spy(name, *, config, variants):
            prepared.append((name, config))
            return original(name, config=config, variants=variants)

        monkeypatch.setattr(ablations, "_measure_program", spy)
        code = experiments_main(
            ["ablations", "--benchmarks", "wc", "tee", "--passes", "fold",
             "--check"]
        )
        assert code == 0
        assert "Ablation D" in capsys.readouterr().out
        # One sweep, compiling each of the two programs once, in suite
        # order.
        assert [name for name, _ in prepared] == ["tee", "wc"]
        for _, config in prepared:
            assert config.names == ("wc", "tee")
            assert config.pass_spec == "fold"
            assert config.check


class TestDeletedSurface:
    """Deleted commands and flags are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["top"],
            ["serve", "--prom-out", "F"],
            ["call", "metrics"],
            ["report", "R", "--format", "html"],
            ["tables", "--engine", "counting"],
            ["check", "--engines"],
            ["bench"],
            ["report", "A.json", "B.json"],
            ["report", "T", "--flame", "T"],
            ["tables", "all", "--executor", "process"],
            ["serve", "--executor", "thread"],
        ],
        ids=[
            "top", "prom-out", "call-metrics", "report-html", "engine",
            "engines", "bench", "report-compare", "report-flame",
            "executor", "serve-thread",
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestReportCommand:
    def test_prints_the_flamegraph_of_a_tables_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        args = ["tables", "table4", "--benchmarks", "wc", "--trace", trace]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert cli_main(["report", trace]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("suite")
        assert any(line.startswith("  benchmark ") for line in lines)

    @pytest.mark.parametrize(
        "content", ['{"counters": {}}\n', "plain text\n", None],
        ids=["json", "text", "missing"],
    )
    def test_non_trace_is_a_usage_error_naming_the_file(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "metrics.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["report", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"cannot read trace {path}: " in err
        assert "Traceback" not in err


class TestBadInput:
    """Input a command cannot use is one line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "bad.c"], "use of undeclared identifier 'nowhere'"),
            (["run", "missing.c"], "cannot read missing.c: "),
            (["run", "prog.c", "--stdin", "\u20ac"], "stdin holds '\u20ac'"),
            (
                ["inline", "prog.c", "--profile-file", "other.profile"],
                "profile fingerprint mismatch",
            ),
            (
                ["inline", "prog.c", "--profile-file", "notes.txt"],
                "cannot use profile notes.txt: ",
            ),
            (
                ["inline", "prog.c", "--profile-file", "list.json"],
                "cannot use profile list.json: profile is not a JSON object",
            ),
            (
                ["inline", "prog.c", "--profile-file", "runless.json"],
                "cannot use profile runless.json: profile has no 'runs' field",
            ),
        ],
        ids=[
            "undeclared-identifier",
            "missing-file",
            "non-latin1-stdin",
            "foreign-profile",
            "non-json-profile",
            "non-object-profile",
            "incomplete-profile",
        ],
    )
    def test_one_line_and_exit_2(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prog.c").write_text(PROGRAM)
        (tmp_path / "bad.c").write_text("int main(void) { return nowhere; }\n")
        (tmp_path / "notes.txt").write_text("not a profile\n")
        (tmp_path / "list.json").write_text("[]\n")
        (tmp_path / "runless.json").write_text(json.dumps({"format": FORMAT_VERSION}))
        (tmp_path / "other.c").write_text("int main(void) { return 0; }\n")
        assert cli_main(["profile", "other.c", "-o", "other.profile"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(f"impact-inline {argv[0]}: error: ")
        assert message in line


class TestGraphCommand:
    def test_dot_output(self, c_file, capsys):
        code = cli_main(["graph", c_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph callgraph")
        assert '"triple"' in out

    def test_profile_weights(self, c_file, capsys):
        cli_main(["graph", c_file, "--profile"])
        out = capsys.readouterr().out
        assert "triple\\n40" in out

    def test_synthetic_flag(self, c_file, capsys):
        cli_main(["graph", c_file, "--synthetic"])
        out = capsys.readouterr().out
        assert "style=dotted" in out

    def test_dot_flag_colors_arcs_by_reason(self, c_file, capsys):
        code = cli_main(["graph", c_file, "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        # the hot main->triple arc is accepted, cold libc arcs are gray
        assert "ACCEPTED" in out and "color=forestgreen" in out
        assert "BELOW_THRESHOLD" in out and "color=gray" in out

    def test_dot_flag_respects_threshold(self, c_file, capsys):
        cli_main(["graph", c_file, "--dot", "--threshold", "1000000"])
        out = capsys.readouterr().out
        assert "ACCEPTED" not in out


class TestSummaryFlag:
    def test_run_summary_on_stderr(self, c_file, capsys):
        code = cli_main(["run", c_file, "--summary"])
        captured = capsys.readouterr()
        assert code == 0
        assert "metrics:" in captured.err
        assert "vm.instructions_retired" in captured.err
        assert "metrics:" not in captured.out

    def test_tables_summary_on_stderr(self, capsys):
        code = experiments_main(["table4", "--benchmarks", "wc", "--summary"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 4" in captured.out
        assert "pipeline.benchmarks" in captured.err


class TestPassesValidation:
    """A pass spec that does not parse is a usage error, not a traceback."""

    @pytest.mark.parametrize("command", ["table4", "ablations", "inline"])
    def test_bad_spec_is_a_usage_error(self, command, c_file, capsys):
        argv = ["inline", c_file] if command == "inline" else ["tables", command]
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*argv, "--passes", "bogus"])
        assert excinfo.value.code == 2
        assert (
            "argument --passes: unknown pass 'bogus'" in capsys.readouterr().err
        )


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["0", "-3", "nope"])
    def test_tables_rejects_bad_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["tables", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_serve_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--jobs", "0"])
        assert excinfo.value.code == 2

    def test_jobs_help_documents_the_tradeoff(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["tables", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "worker processes" in text
        assert "--executor" not in text


class TestServeAndCall:
    def test_cli_round_trip(self, c_file, tmp_path, capsys):
        import json
        import threading
        import time

        socket_path = str(tmp_path / "cli.sock")
        server = threading.Thread(
            target=cli_main, args=(["serve", "--socket", socket_path],),
            daemon=True,
        )
        server.start()
        deadline = time.time() + 30
        while not os.path.exists(socket_path):
            assert time.time() < deadline, "server socket never appeared"
            time.sleep(0.05)
        try:
            code = cli_main(["call", "ping", "--socket", socket_path])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["result"] == "pong"

            code = cli_main(
                ["call", "inline", c_file, "--socket", socket_path,
                 "--threshold", "1.0"]
            )
            assert code == 0
            envelope = json.loads(capsys.readouterr().out)
            assert envelope["ok"] is True
            assert envelope["result"]["expanded"] >= 1
        finally:
            cli_main(["call", "shutdown", "--socket", socket_path])
            capsys.readouterr()
            server.join(timeout=30)
        assert not server.is_alive()

    def test_serve_hides_the_executor_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        assert "--executor" not in capsys.readouterr().out

    def test_call_without_file_errors(self, tmp_path, capsys):
        code = cli_main(
            ["call", "compile", "--socket", str(tmp_path / "none.sock")]
        )
        assert code == 2
        assert "requires a FILE.c" in capsys.readouterr().err
