"""The ``impact-inline`` command-line tool.

Subcommands::

    impact-inline run FILE.c [--stdin TEXT] [--arg A ...]
        Compile a C-subset file and execute it in the VM.
    impact-inline inline FILE.c [--stdin TEXT] [--arg A ...] [--dump]
        Profile the program on the given input, inline (under the
        ``--profile-file`` profile, when given), re-run on the same
        input, and report the call decrease / code increase.
    impact-inline tables [WHAT] [--scale small|full] [--benchmarks ...]
        Regenerate the paper's tables, the ablations or the extension
        experiments (python -m repro.experiments is another name).
    impact-inline report TRACE.jsonl
        Print the text flamegraph of a ``--trace`` file's span tree.
    impact-inline check [--benchmarks ...] [--fuzz N] [--seed S]
        Differential-correctness harness: run original and inlined
        modules of each benchmark in lockstep and (optionally) fuzz
        random programs through the full pipeline. Exit 1 on any
        divergence or broken invariant.
    impact-inline serve [--socket PATH] [--jobs N] [--cache-dir [DIR]]
        Long-running compilation service on a local Unix socket:
        deduplicates concurrent compile/profile/inline/check requests
        and runs them on N worker processes; SIGINT/SIGTERM drain
        gracefully. ``--slow-log FILE`` appends a JSONL record for
        every slow/failed request. See README "Service mode".
    impact-inline call OP [FILE.c] [--socket PATH] ...
        Client for a running server: compile|profile|inline|check a
        source file, or ping|health|stats|shutdown the server.

``run``, ``inline``, and ``tables`` accept ``--check`` (re-verify IL
well-formedness — for ``inline`` and ``tables`` after every inline
phase). ``run``, ``inline``, ``tables``, ``check`` and ``serve``
accept ``--trace FILE`` (structured
JSONL trace: phase spans, events, inline-decision audit records),
``--metrics-out FILE`` (JSON snapshot of pipeline counters and
histograms), and ``--summary`` (metrics summary table on stderr):
:func:`main` binds one observability context around the command when
any is given and exports it afterwards; see README "Observability".
``tables`` takes the run flags of
:func:`add_run_flags` — ``--scale``, ``--benchmarks``, ``--jobs N``
(the suite on N worker processes), ``--cache-dir [DIR]``
(content-addressed compile/profile cache) and ``--passes SPEC``
(pre-optimization pipeline, default all five passes, ``''`` for
none); see README
"Pipeline architecture". A ``--passes`` spec that
:func:`~repro.opt.pipeline.parse_pass_spec` rejects is a usage error
(exit 2) on every command that takes the flag. Speed is measured by
``bench/run.py``, not by this tool; see README "Measuring speed and
counts".
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.compiler import compile_program
from repro.il.printer import format_module
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.observability import (
    NULL_OBS,
    Observability,
    current,
    enable_console_logging,
    observing,
)
from repro.opt.pipeline import DEFAULT_OPT_SPEC, parse_pass_spec
from repro.pipeline.parallel import jobs_argument
from repro.pipeline.session import DEFAULT_CACHE_DIR
from repro.profiler.profile import RunSpec, profile_module, run_once
from repro.service.ops import DEFAULT_SLOW_THRESHOLD, DEFAULT_SOCKET


def _make_obs(args: argparse.Namespace) -> Observability | None:
    """A live observability context when an obs flag asks for one."""
    if (
        getattr(args, "trace", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "summary", False)
    ):
        return Observability.create()
    return None


def _export_obs(args: argparse.Namespace, obs: Observability | None) -> None:
    if obs is None:
        return
    from repro.observability.export import (
        render_metrics_summary,
        write_metrics,
        write_trace,
    )

    if args.trace:
        write_trace(obs.tracer, args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        write_metrics(obs.metrics, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if getattr(args, "summary", False):
        print(render_metrics_summary(obs.metrics), file=sys.stderr)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace (spans, events, inline decisions)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a JSON metrics snapshot",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the metrics text summary to stderr",
    )


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    """The program input: ``--stdin TEXT`` and repeated ``--arg A``."""
    parser.add_argument("--stdin", default="")
    parser.add_argument("--arg", action="append")


def _add_inline_flags(parser: argparse.ArgumentParser) -> None:
    """``--threshold`` and ``--growth``, defaulting to
    :class:`InlineParameters`' values."""
    default = InlineParameters()
    parser.add_argument("--threshold", type=float, default=default.weight_threshold)
    parser.add_argument("--growth", type=float, default=default.size_limit_factor)


def _inline_params(args: argparse.Namespace) -> InlineParameters:
    """The :class:`InlineParameters` the :func:`_add_inline_flags` flags give."""
    return InlineParameters(
        weight_threshold=args.threshold, size_limit_factor=args.growth
    )


def _add_socket_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        default=DEFAULT_SOCKET,
        metavar="PATH",
        help=f"Unix socket path (default: {DEFAULT_SOCKET})",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser, purpose: str) -> None:
    parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=DEFAULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help=f"{purpose} (default DIR: {DEFAULT_CACHE_DIR})",
    )


def _pass_spec_argument(spec: str) -> str:
    """Argparse ``type=`` for ``--passes``: the spec as given, once it
    parses."""
    try:
        parse_pass_spec(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The suite-run flags of ``tables``.

    They describe one :class:`~repro.experiments.pipeline.RunConfig`
    (see :func:`_run_config`) plus the ``--cache-dir`` session.
    """
    parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "full"],
        help="input scale: 'small' is quick, 'full' mirrors Table 1's run counts",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to named benchmarks",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_argument,
        default=1,
        metavar="N",
        help="run benchmarks on N worker processes, which share only"
        " the --cache-dir store (output stays byte-identical; must be"
        " >= 1, 1 = serial)",
    )
    _add_cache_dir_flag(
        parser,
        "serve repeat compiles/profiles from a content-addressed on-disk cache",
    )
    parser.add_argument(
        "--passes",
        type=_pass_spec_argument,
        default=DEFAULT_OPT_SPEC,
        metavar="SPEC",
        help="pre-optimization pass spec, e.g. 'fold,copyprop,cse,jumpopt,dce'"
        " ('' for none; default: all five)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file)
    if args.check:
        from repro.il.verifier import verify_module

        verify_module(module)
    spec = RunSpec.from_text(args.stdin, args.arg)
    result = run_once(module, spec)
    sys.stdout.write(result.stdout)
    counters = result.counters
    print(
        f"\n[exit {result.exit_code}; {counters.il} ILs,"
        f" {counters.ct} CTs, {counters.calls} calls]",
        file=sys.stderr,
    )
    return result.exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler.serialize import dump_profile

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file)
    spec = RunSpec.from_text(args.stdin, args.arg)
    profile = profile_module(module, [spec], check_exit=False)
    text = dump_profile(profile, module)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote profile to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_inline(args: argparse.Namespace) -> int:
    from repro.experiments import pipeline

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file, pass_spec=args.passes)
    selecting = None
    if args.profile_file:
        from repro.profiler.serialize import load_profile

        with open(args.profile_file, encoding="utf-8") as handle:
            selecting = load_profile(handle.read(), module)

    def inliner(profile):
        return inline_module(
            module, selecting or profile, _inline_params(args), check=args.check
        )

    measured = pipeline.measure_inlining(
        module,
        [RunSpec.from_text(args.stdin, args.arg)],
        inliner,
        name=args.file,
        profiler=functools.partial(pipeline.profile_module, check_exit=False),
    )
    result = measured.inline
    tracer = current().tracer
    if tracer.enabled:
        for decision in result.decisions:
            tracer.record(decision.to_record())
    print(f"expanded call sites : {len(result.records)}")
    print(f"code increase       : {100 * result.code_increase:.1f}%")
    print(f"call decrease       : {100 * measured.call_decrease:.1f}%")
    print(f"ILs per call after  : {measured.ils_per_call:.0f}")
    if args.dump:
        print(format_module(result.module))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.callgraph.build import build_call_graph
    from repro.callgraph.dot import to_dot

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file)
    if args.dot:
        # Run a full profile + selection so every arc carries the
        # selector's reason code, then color the DOT output by it.
        spec = RunSpec.from_text(args.stdin, args.arg)
        profile = profile_module(module, [spec], check_exit=False)
        result = inline_module(module, profile, _inline_params(args))
        reasons = {
            decision.site: decision.reason.value
            for decision in result.decisions
        }
        print(
            to_dot(
                result.graph,
                include_synthetic=args.synthetic,
                min_weight=args.min_weight,
                decisions=reasons,
            )
        )
        return 0
    profile = None
    if args.profile:
        spec = RunSpec.from_text(args.stdin, args.arg)
        profile = profile_module(module, [spec], check_exit=False)
    graph = build_call_graph(module, profile, refine_pointers=args.refine)
    print(to_dot(graph, include_synthetic=args.synthetic, min_weight=args.min_weight))
    return 0


def _run_config(args: argparse.Namespace, **options):
    """The :class:`~repro.experiments.pipeline.RunConfig` of the flags
    :func:`add_run_flags` defined, plus ``options``."""
    from repro.experiments.pipeline import RunConfig

    return RunConfig(
        scale=args.scale,
        names=args.benchmarks,
        jobs=args.jobs,
        pass_spec=args.passes,
        **options,
    )


def _session(args: argparse.Namespace):
    """The compile/profile cache ``--cache-dir`` asks for, if any."""
    if not args.cache_dir:
        return None
    from repro.pipeline.session import CompilationSession

    return CompilationSession(cache_dir=args.cache_dir)


def _print_extensions(scale: str) -> None:
    """The extension experiments: icache, placement, register pressure."""
    from repro.icache import icache_experiment
    from repro.layout import placement_experiment
    from repro.regalloc import pressure_experiment
    from repro.workloads import benchmark_by_name

    benchmark = benchmark_by_name("compress")
    module = benchmark.compile()
    specs = benchmark.make_runs(scale)[:2]

    print("I-cache miss ratios before/after inlining (compress, scattered):")
    for point in icache_experiment(module, specs):
        print(
            f"  {point.size_bytes:5d}B {point.associativity}-way:"
            f" {point.miss_before:.4f} -> {point.miss_after:.4f}"
            f" ({point.improvement:+.0%})"
        )
    print()
    print("Placement vs. inlining (compress):")
    for p in placement_experiment(module, specs):
        print(
            f"  {p.size_bytes:5d}B {p.associativity}-way: scattered"
            f" {p.miss_scattered:.4f}, placed {p.miss_placed:.4f}"
            f" ({p.placement_improvement:+.0%}), inlined"
            f" {p.miss_inlined_scattered:.4f} ({p.inlining_improvement:+.0%})"
        )
    print()
    print("Register memory traffic before/after inlining (compress):")
    for k, before, after in pressure_experiment(module, specs, ks=(4, 8, 16)):
        print(
            f"  K={k:2d}: save/restore {before.save_restore_events:.0f} ->"
            f" {after.save_restore_events:.0f}; spills"
            f" {before.spill_events:.0f} -> {after.spill_events:.0f}"
        )


def _cmd_tables(args: argparse.Namespace) -> int:
    # run_suite is looked up on its module at call time, so a wrapper
    # installed there (bench/launch.py installs one) sees every run.
    from repro.experiments import pipeline
    from repro.experiments.tables import TABLES

    config = _run_config(args, check=args.check)
    if args.what in ("ablations", "extensions"):
        if args.cache_dir or args.trace or args.metrics_out or args.summary:
            args.parser.error(
                f"{args.what} takes neither --cache-dir nor"
                " --trace/--metrics-out/--summary"
            )
        if args.what == "extensions":
            if config != pipeline.RunConfig(scale=config.scale):
                args.parser.error("extensions takes no run flag but --scale")
            _print_extensions(config.scale)
        else:
            from repro.experiments.ablations import render_ablations

            print(render_ablations(config))
        return 0
    enable_console_logging()
    results = pipeline.run_suite(config, session=_session(args))
    print(TABLES[args.what](results))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz, verify_suite

    failed = False
    reports = verify_suite(
        names=args.benchmarks, scale=args.scale, params=_inline_params(args)
    )
    for report in reports:
        print(report.summary())
        failed = failed or not report.ok
    if args.fuzz:
        fuzz = run_fuzz(args.fuzz, seed=args.seed)
        status = "ok" if fuzz.ok else "FAIL"
        print(
            f"fuzz: {status} ({fuzz.count} programs from seed {fuzz.seed},"
            f" {fuzz.expansions} expansions,"
            f" {len(fuzz.failures)} failures)"
        )
        for failure in fuzz.failures:
            print(
                f"  - program {failure.index} (seed {failure.seed})"
                f" at stage {failure.stage}: {failure.detail}"
            )
            print("    " + failure.source.replace("\n", "\n    "))
        failed = failed or not fuzz.ok
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import CompilationService

    obs = current()
    if not obs.enabled:  # the server keeps telemetry for its stats op
        obs = Observability.create()
    service = CompilationService(
        args.socket,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        obs=obs,
        slow_log=args.slow_log,
        slow_threshold=args.slow_threshold,
    )

    async def main() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(service.shutdown())
                )
            except (ValueError, NotImplementedError, RuntimeError):
                # Not the main thread (tests) or no signal support on
                # this platform; the admin 'shutdown' op still drains.
                break
        print(
            f"serving on {args.socket} ({args.jobs} worker"
            f" process{'es' if args.jobs != 1 else ''});"
            " send SIGINT/SIGTERM or an admin 'shutdown' to drain",
            file=sys.stderr,
        )
        await service.wait_stopped()

    asyncio.run(main())
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError
    from repro.service.ops import OPS

    params: dict = {}
    if args.op in OPS:
        if not args.file:
            print(f"call {args.op} requires a FILE.c", file=sys.stderr)
            return 2
        with open(args.file, encoding="utf-8") as handle:
            params["source"] = handle.read()
        params["filename"] = args.file
        if args.stdin:
            params["stdin"] = args.stdin
        if args.arg:
            params["argv"] = list(args.arg)
        if args.passes:
            params["passes"] = args.passes
        if args.op in ("inline", "check"):
            params["threshold"] = args.threshold
            params["growth"] = args.growth
        if args.dump and args.op == "compile":
            params["dump"] = True
    with ServiceClient(args.socket) as client:
        try:
            envelope = client.request(args.op, params, raw=True)
        except ServiceError as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(envelope, indent=2, sort_keys=True, default=str))
    return 0 if envelope.get("ok") else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observability.export import load_trace, render_flamegraph

    try:
        records = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:  # ValueError: not a trace
        args.parser.error(f"cannot read trace {args.trace_file}: {exc}")
    print(render_flamegraph(records))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="impact-inline",
        description="Profile-guided inline function expansion for C programs"
        " (Hwu & Chang, PLDI 1989 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile and execute a C-subset file")
    run_parser.add_argument("file")
    _add_input_flags(run_parser)
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness before executing",
    )
    _add_obs_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    inline_parser = sub.add_parser(
        "inline", help="profile, inline, and report the improvement"
    )
    inline_parser.add_argument("file")
    _add_input_flags(inline_parser)
    inline_parser.add_argument(
        "--profile-file", default=None,
        help="use a saved profile instead of profiling on the spot",
    )
    _add_inline_flags(inline_parser)
    inline_parser.add_argument(
        "--passes",
        type=_pass_spec_argument,
        default=None,
        metavar="SPEC",
        help="optimization pass spec to run before profiling,"
        " e.g. 'fold,jumpopt' (default: none)",
    )
    inline_parser.add_argument("--dump", action="store_true")
    inline_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness after every inline phase",
    )
    _add_obs_flags(inline_parser)
    inline_parser.set_defaults(func=_cmd_inline)

    profile_parser = sub.add_parser(
        "profile", help="profile a program and emit the profile file"
    )
    profile_parser.add_argument("file")
    _add_input_flags(profile_parser)
    profile_parser.add_argument("-o", "--output", default=None)
    profile_parser.set_defaults(func=_cmd_profile)

    graph_parser = sub.add_parser(
        "graph", help="dump the weighted call graph as Graphviz DOT"
    )
    graph_parser.add_argument("file")
    _add_input_flags(graph_parser)
    graph_parser.add_argument(
        "--profile", action="store_true", help="weight nodes/arcs by a profiling run"
    )
    graph_parser.add_argument(
        "--synthetic", action="store_true", help="include worst-case $$$/### arcs"
    )
    graph_parser.add_argument(
        "--refine", action="store_true", help="narrow ### targets by pointer analysis"
    )
    graph_parser.add_argument("--min-weight", type=float, default=0.0)
    graph_parser.add_argument(
        "--dot",
        action="store_true",
        help="profile + run the selector, coloring arcs by their"
        " inline-audit reason code (ACCEPTED green, BELOW_THRESHOLD"
        " gray, hazard rejections red)",
    )
    _add_inline_flags(graph_parser)
    graph_parser.set_defaults(func=_cmd_graph)

    tables_parser = sub.add_parser(
        "tables",
        help="regenerate the paper's tables (also: python -m repro.experiments)",
        description="Regenerate the tables of Hwu & Chang (PLDI 1989).",
    )
    tables_parser.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=[
            "table1", "table2", "table3", "table4", "breakdown", "all",
            "ablations", "extensions",
        ],
        help="which table to regenerate (default: all)",
    )
    add_run_flags(tables_parser)
    tables_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness after every inline phase",
    )
    _add_obs_flags(tables_parser)
    tables_parser.set_defaults(func=_cmd_tables, parser=tables_parser)

    check_parser = sub.add_parser(
        "check",
        help="differential-correctness harness (oracle + optional fuzzing)",
    )
    check_parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict the differential oracle to named benchmarks",
    )
    check_parser.add_argument("--scale", default="small", choices=["small", "full"])
    check_parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also fuzz N random programs through the full pipeline",
    )
    check_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for the fuzz program generator",
    )
    _add_inline_flags(check_parser)
    _add_obs_flags(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compilation service on a local Unix socket",
    )
    _add_socket_flag(serve_parser)
    serve_parser.add_argument(
        "--jobs",
        type=jobs_argument,
        default=1,
        metavar="N",
        help="number of worker processes (>= 1)",
    )
    # Kept for bench/run.py::Server, its only user, which starts the
    # server with `--executor process`. Every pool is a process pool.
    serve_parser.add_argument(
        "--executor", choices=["process"], help=argparse.SUPPRESS
    )
    _add_cache_dir_flag(
        serve_parser, "content-addressed compile/profile cache shared by all workers"
    )
    serve_parser.add_argument(
        "--slow-log",
        default=None,
        metavar="FILE",
        help="append a JSONL record (trace_id, op, duration, cache"
        " outcome) for every request slower than --slow-threshold and"
        " for every failed request",
    )
    serve_parser.add_argument(
        "--slow-threshold",
        type=float,
        default=DEFAULT_SLOW_THRESHOLD,
        metavar="SECONDS",
        help="slow-request threshold for --slow-log"
        f" (default: {DEFAULT_SLOW_THRESHOLD})",
    )
    _add_obs_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    call_parser = sub.add_parser(
        "call", help="send one request to a running service"
    )
    call_parser.add_argument(
        "op",
        choices=[
            "compile",
            "profile",
            "inline",
            "check",
            "ping",
            "health",
            "stats",
            "shutdown",
        ],
    )
    call_parser.add_argument("file", nargs="?", default=None)
    _add_socket_flag(call_parser)
    _add_input_flags(call_parser)
    call_parser.add_argument(
        "--passes", type=_pass_spec_argument, default=None, metavar="SPEC"
    )
    _add_inline_flags(call_parser)
    call_parser.add_argument("--dump", action="store_true")
    call_parser.set_defaults(func=_cmd_call)

    report_parser = sub.add_parser(
        "report", help="print the text flamegraph of a --trace file"
    )
    # Not dest "trace": main() exports the trace to args.trace.
    report_parser.add_argument(
        "trace_file", metavar="trace", help="a JSONL trace from --trace"
    )
    report_parser.set_defaults(func=_cmd_report, parser=report_parser)

    args = parser.parse_args(argv)
    obs = _make_obs(args)
    with observing(obs or NULL_OBS):
        status = args.func(args)
    _export_obs(args, obs)
    return status


if __name__ == "__main__":
    sys.exit(main())
