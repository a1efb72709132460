"""The ``impact-inline`` command-line tool.

Subcommands::

    impact-inline run FILE.c [--stdin TEXT] [--arg A ...]
        Compile a C-subset file and execute it in the VM.
    impact-inline inline FILE.c [--stdin TEXT] [--arg A ...] [--dump]
        Profile the program on the given input, inline, re-run, and
        report the call decrease / code increase.
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
    impact-inline serve [--socket PATH] [--jobs N] [--executor ...]
        Long-running compilation service on a local Unix socket:
        deduplicates concurrent compile/profile/inline/check requests
        and runs them on a worker pool; SIGINT/SIGTERM drain
        gracefully. ``--slow-log FILE`` appends a JSONL record for
        every slow/failed request. See README "Service mode".
    impact-inline call OP [FILE.c] [--socket PATH] ...
        Client for a running server: compile|profile|inline|check a
        source file, or ping|health|stats|shutdown the server.

``run``, ``inline``, and ``tables`` accept ``--check`` (re-verify IL
well-formedness — for ``inline`` and ``tables`` after every inline
phase) and ``--trace FILE`` (structured
JSONL trace: phase spans, events, inline-decision audit records),
``--metrics-out FILE`` (JSON snapshot of pipeline counters and
histograms), and ``--summary`` (metrics summary table on stderr); see
README "Observability". ``tables`` takes the run flags of
:func:`add_run_flags` — ``--scale``, ``--benchmarks``, ``--jobs N``
(parallel suite execution), ``--executor``, ``--cache-dir [DIR]``
(content-addressed compile/profile cache) and ``--passes SPEC``
(custom pre-optimization pipeline, ``''`` for none); see README
"Pipeline architecture". A ``--passes`` spec that
:func:`~repro.opt.pipeline.parse_pass_spec` rejects is a usage error
(exit 2) on every command that takes the flag. Speed is measured by
``bench/run.py``, not by this tool; see README "Measuring speed and
counts".
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler import compile_program
from repro.il.printer import format_module
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.observability import Observability, enable_console_logging
from repro.opt.pipeline import parse_pass_spec
from repro.pipeline.parallel import jobs_argument
from repro.profiler.profile import RunSpec, profile_module, run_once


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
        help="run benchmarks on N workers (deterministic order; must be"
        " >= 1, 1 = serial)",
    )
    parser.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process"],
        help="worker pool for --jobs: 'thread' starts instantly and"
        " shares the in-memory cache but CPU-bound work serializes on"
        " the GIL; 'process' runs compile/profile/inline work truly in"
        " parallel (output stays byte-identical) at the cost of"
        " per-worker startup and artifact pickling",
    )
    parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help="serve repeat compiles/profiles from a content-addressed"
        " on-disk cache (default DIR: .repro-cache)",
    )
    parser.add_argument(
        "--passes",
        type=_pass_spec_argument,
        default=None,
        metavar="SPEC",
        help="pre-optimization pass spec, e.g. 'fold,copyprop,cse,jumpopt,dce'"
        " ('' for none; default: all five)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    obs = _make_obs(args)
    module = compile_program(source, args.file, obs=obs)
    if args.check:
        from repro.il.verifier import verify_module

        verify_module(module)
    spec = RunSpec.from_text(args.stdin, args.arg)
    result = run_once(module, spec, obs=obs)
    sys.stdout.write(result.stdout)
    counters = result.counters
    print(
        f"\n[exit {result.exit_code}; {counters.il} ILs,"
        f" {counters.ct} CTs, {counters.calls} calls]",
        file=sys.stderr,
    )
    _export_obs(args, obs)
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
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    obs = _make_obs(args)
    module = compile_program(source, args.file, obs=obs, pass_spec=args.passes)
    spec = RunSpec.from_text(args.stdin, args.arg)
    if args.profile_file:
        from repro.profiler.serialize import load_profile

        with open(args.profile_file, encoding="utf-8") as handle:
            profile = load_profile(handle.read(), module)
    else:
        profile = profile_module(module, [spec], check_exit=False, obs=obs)
    params = InlineParameters(
        weight_threshold=args.threshold,
        size_limit_factor=args.growth,
    )
    result = inline_module(module, profile, params, check=args.check, obs=obs)
    if obs is not None and obs.tracer.enabled:
        for decision in result.decisions:
            obs.tracer.record(decision.to_record())
    after = profile_module(result.module, [spec], check_exit=False, obs=obs)
    before_calls = profile.avg_calls
    decrease = 1.0 - after.avg_calls / before_calls if before_calls else 0.0
    print(f"expanded call sites : {len(result.records)}")
    print(f"code increase       : {100 * result.code_increase:.1f}%")
    print(f"call decrease       : {100 * decrease:.1f}%")
    print(f"ILs per call after  : {after.avg_il / after.avg_calls if after.avg_calls else float('inf'):.0f}")
    if args.dump:
        print(format_module(result.module))
    _export_obs(args, obs)
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
        result = inline_module(
            module,
            profile,
            InlineParameters(
                weight_threshold=args.threshold,
                size_limit_factor=args.growth,
            ),
        )
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
        executor=args.executor,
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
    obs = _make_obs(args)
    results = pipeline.run_suite(config, obs=obs, session=_session(args))
    print(TABLES[args.what](results))
    _export_obs(args, obs)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz, verify_suite

    obs = _make_obs(args)
    params = InlineParameters(
        weight_threshold=args.threshold,
        size_limit_factor=args.growth,
    )
    failed = False
    reports = verify_suite(
        names=args.benchmarks, scale=args.scale, params=params, obs=obs
    )
    for report in reports:
        print(report.summary())
        failed = failed or not report.ok
    if args.fuzz:
        fuzz = run_fuzz(args.fuzz, seed=args.seed, obs=obs)
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
    _export_obs(args, obs)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import CompilationService

    obs = _make_obs(args) or Observability.create()
    service = CompilationService(
        args.socket,
        jobs=args.jobs,
        executor=args.executor,
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
            f"serving on {args.socket} ({args.jobs} {args.executor}"
            f" worker{'s' if args.jobs != 1 else ''});"
            " send SIGINT/SIGTERM or an admin 'shutdown' to drain",
            file=sys.stderr,
        )
        await service.wait_stopped()

    asyncio.run(main())
    _export_obs(args, obs)
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
        records = load_trace(args.trace)
    except (OSError, ValueError) as exc:  # ValueError: not a trace
        args.parser.error(f"cannot read trace {args.trace}: {exc}")
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
    run_parser.add_argument("--stdin", default="")
    run_parser.add_argument("--arg", action="append")
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
    inline_parser.add_argument("--stdin", default="")
    inline_parser.add_argument("--arg", action="append")
    inline_parser.add_argument(
        "--profile-file", default=None,
        help="use a saved profile instead of profiling on the spot",
    )
    inline_parser.add_argument("--threshold", type=float, default=10.0)
    inline_parser.add_argument("--growth", type=float, default=1.25)
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
    profile_parser.add_argument("--stdin", default="")
    profile_parser.add_argument("--arg", action="append")
    profile_parser.add_argument("-o", "--output", default=None)
    profile_parser.set_defaults(func=_cmd_profile)

    graph_parser = sub.add_parser(
        "graph", help="dump the weighted call graph as Graphviz DOT"
    )
    graph_parser.add_argument("file")
    graph_parser.add_argument("--stdin", default="")
    graph_parser.add_argument("--arg", action="append")
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
    graph_parser.add_argument("--threshold", type=float, default=10.0)
    graph_parser.add_argument("--growth", type=float, default=1.25)
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
    check_parser.add_argument("--threshold", type=float, default=10.0)
    check_parser.add_argument("--growth", type=float, default=1.25)
    _add_obs_flags(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compilation service on a local Unix socket",
    )
    serve_parser.add_argument(
        "--socket",
        default=".repro-service.sock",
        metavar="PATH",
        help="Unix socket path (default: .repro-service.sock)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=jobs_argument,
        default=1,
        metavar="N",
        help="worker pool size (>= 1)",
    )
    serve_parser.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process"],
        help="worker pool backend: 'thread' shares one in-memory cache"
        " but serializes CPU work on the GIL; 'process' compiles truly"
        " in parallel, sharing the cache through its on-disk store",
    )
    serve_parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help="content-addressed compile/profile cache shared by all"
        " workers (default DIR: .repro-cache)",
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
        default=1.0,
        metavar="SECONDS",
        help="slow-request threshold for --slow-log (default: 1.0)",
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
    call_parser.add_argument(
        "--socket",
        default=".repro-service.sock",
        metavar="PATH",
    )
    call_parser.add_argument("--stdin", default="")
    call_parser.add_argument("--arg", action="append")
    call_parser.add_argument(
        "--passes", type=_pass_spec_argument, default=None, metavar="SPEC"
    )
    call_parser.add_argument("--threshold", type=float, default=10.0)
    call_parser.add_argument("--growth", type=float, default=1.25)
    call_parser.add_argument("--dump", action="store_true")
    call_parser.set_defaults(func=_cmd_call)

    report_parser = sub.add_parser(
        "report", help="print the text flamegraph of a --trace file"
    )
    report_parser.add_argument("trace", help="a JSONL trace from --trace")
    report_parser.set_defaults(func=_cmd_report, parser=report_parser)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
