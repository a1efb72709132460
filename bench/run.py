"""The repository benchmark: table runs and a service mix, timed from outside.

Usage::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE]

Without ``--workload`` every workload runs in turn. Each run sets up,
measures for ``--seconds`` (whole units of work that fit, at least one),
checks every output, prints a table of metrics (median, quartiles,
sample count) and, as its last line, one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 4910.2, "unit": "ms"}, ...}}

Everything a run measures runs on one CPU, beside the speed probe of
``speed.py``, and its times are reported at the probe's reference speed.

Untraced runs (the default) report the end-to-end metrics of
``BENCHMARK.json``; ``--trace`` runs the same work under the layer
timers of ``layers.py`` and reports the per-layer metrics. The exit
status is 0 only when every output was correct. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import speed

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"
EXPECTED_TABLES = BENCH / "expected" / "tables-small.txt"
EXPECTED_FAST_TABLES = BENCH / "expected" / "tables-small-fast-cold.txt"
LAUNCH = BENCH / "launch.py"

WORKLOADS = ("tables-cold", "tables-fast-cold", "tables-warm", "service-mix")
#: The programs of ``tables-fast-cold``: the six whose fast-tier runs are
#: shortest. The whole suite takes 25 to 55 s on the fast tier, longer
#: than a measuring window, and twenty-odd runs of it would not fit the
#: time all runs of the benchmark may take together; these six take about
#: 6 s at the reference speed, and their fast-tier runs are still mostly
#: code generation.
FAST_PROGRAMS = ("cmp", "compress", "eqn", "tar", "tee", "wc")

#: Set-up is repeated and its median reported, so that one slow start
#: (a cold page cache, bytecode compilation) does not decide ``setup_s``.
SETUP_REPEATS = 3
#: The cold workloads' set-up, an import probe, takes a quarter of a
#: second, so single ones scatter by 20%; it is cheap to repeat more.
IMPORT_REPEATS = 9
#: No single process may take longer; the slowest (a table run of the
#: whole suite) takes 5 to 12 s.
PROCESS_TIMEOUT = 120.0

#: The stdin-driven suite programs: the service ops take stdin and argv
#: but no input files.
SERVICE_PROGRAMS = ("cccp", "compress", "eqn", "grep", "tee", "wc")
#: Operation weights: compile:profile:inline:check = 2:3:3:2.
OP_MIX = (("compile", 2), ("profile", 3), ("inline", 3), ("check", 2))
#: Every request pre-optimizes like the table pipeline does.
PASSES = "fold,copyprop,cse,jumpopt,dce"
#: One round holds every program x weighted op once, in seeded order.
ROUND = len(SERVICE_PROGRAMS) * sum(weight for _op, weight in OP_MIX)
#: Share of window requests re-executed in-process after the window.
RECHECK_SHARE = 0.05


# ----------------------------------------------------------------------
# statistics


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of a sample list."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"value": median, "q1": median, "q3": median, "n": len(values)}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    if len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if n <= 10:
        return None
    return int(100 * (n - 10) / n)


class Result:
    """What one workload run attempted, what failed, and what it measured."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.detail: dict = {}

    def check(self, errors: list[str]) -> None:
        """Count one operation, failed when it produced any error."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def add(self, name: str, unit: str, samples) -> None:
        values = samples if isinstance(samples, list) else [samples]
        self.metrics[name] = {"unit": unit, **summarize(values)}

    def add_tail(self, name: str, latencies_ms: list[float], pct: int) -> None:
        """The ``pct``-th percentile of item latency, however few items
        lie beyond it (``tail_percentile`` tells how many may). Its
        quartile fields stay empty."""
        self.metrics[name] = {
            "unit": "ms", "value": percentile(latencies_ms, pct),
            "q1": None, "q3": None, "n": len(latencies_ms),
        }

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": data["value"], "unit": data["unit"]}
                for name, data in self.metrics.items()
            },
        }

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "metrics": self.metrics,
            "detail": self.detail,
        }


# ----------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def measuring_cpu() -> int:
    """The CPU that runs what the benchmark measures: the last one it may
    use, since the first tends to take the machine's interrupts."""
    return max(os.sched_getaffinity(0))


@contextlib.contextmanager
def measuring():
    """Pin this thread, and every process it starts, to one CPU, with
    the speed probe beside it. Yields the probe; its samples are there
    once the block has ended."""
    cpu = measuring_cpu()
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        with speed.Probe(cpu) as probe:
            yield probe
    finally:
        os.sched_setaffinity(0, before)


class Finished:
    """A child process that ran to its end, between two monotonic times."""

    def __init__(self, start: float, end: float, usage, code: int, stdout: bytes, stderr: bytes):
        self.start = start
        self.end = end
        self.wall = end - start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    def reference_s(self, probe: speed.Probe) -> float:
        """CPU seconds of the child and of what it reaped, at the
        reference speed. On one otherwise idle CPU this is the wall time
        less I/O waits; unlike the wall time it leaves out the moments
        the probe, or anything else, held the CPU."""
        return probe.scaled(self.cpu, self.start, self.end)


def run_process(argv: list[str], timeout: float = PROCESS_TIMEOUT) -> Finished:
    """Run one child from spawn to exit; its usage comes from wait4.

    ``os.wait4`` reports this child and the children it reaped, never
    earlier children, unlike ``RUSAGE_CHILDREN``, whose peak RSS is a
    running maximum.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    output: dict[str, bytes] = {}

    def drain(stream, key: str) -> None:
        output[key] = stream.read()

    readers = [
        threading.Thread(target=drain, args=(proc.stdout, "out")),
        threading.Thread(target=drain, args=(proc.stderr, "err")),
    ]
    for reader in readers:
        reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Finished(start, end, usage, proc.returncode, output["out"], output["err"])


def import_probe() -> Finished:
    """Start the interpreter and import what a table run loads."""
    finished = run_process(
        [sys.executable, "-c", "import repro.cli, repro.experiments.__main__"]
    )
    if finished.code != 0:
        raise RuntimeError(finished.stderr.decode(errors="replace")[-500:])
    return finished


# ----------------------------------------------------------------------
# table workloads


def tables_engine(workload: str) -> str:
    """The engine a table workload runs: the fast tier for
    ``tables-fast-cold`` while it exists, else the default engine, so a
    removed tier is measured rather than crashing the benchmark."""
    from repro.vm.machine import ENGINES

    if workload == "tables-fast-cold" and "fast" in ENGINES:
        return "fast"
    return "counting"


def tables_programs(workload: str) -> tuple[list[str] | None, Path]:
    """The programs a table workload runs (``None``: all twelve, as
    ``tables all`` runs them) and the tables they must print, under
    either engine."""
    if workload == "tables-fast-cold":
        return list(FAST_PROGRAMS), EXPECTED_FAST_TABLES
    return None, EXPECTED_TABLES


def tables_command(engine: str, cache_dir: Path | None, names: list[str] | None) -> list[str]:
    """``python -m`` arguments of one table run (all twelve programs by
    default, as ``impact-inline tables all`` runs them)."""
    if names is None:
        argv = ["-m", "repro.cli", "tables", "all", "--scale", "small"]
    else:
        argv = ["-m", "repro.experiments", "all", "--scale", "small",
                "--benchmarks", *names]
    if engine != "counting":
        argv += ["--engine", engine]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    return argv


class TableRun:
    """One ``tables all`` process and what it produced."""

    def __init__(self, tag: str, finished: Finished, programs: dict, errors: list[str], spans):
        self.tag = tag
        self.finished = finished
        self.programs = programs
        self.errors = errors
        self.spans = spans

    def gen(self) -> dict[str, int]:
        """Post-inline dynamic IL, dynamic calls and static code size."""
        return {
            key: sum(program[key] for program in self.programs.values())
            for key in ("gen_il", "gen_calls", "gen_code_size")
        }


def table_run(
    tmp: Path,
    tag: str,
    engine: str,
    names: list[str] | None,
    expected: Path | None,
    cache_dir: Path | None = None,
    spans: bool = False,
    obs: bool = False,
) -> TableRun:
    """Run ``tables all`` once and check its output.

    The stdout must equal the ``expected`` tables, when given, and every
    program's original and inlined binaries must agree on every input.
    ``obs`` turns on the program's own ``--trace``/``--metrics-out``;
    ``spans`` the layer timers.
    """
    results = tmp / f"{tag}.results.json"
    argv = [sys.executable, str(LAUNCH), "--results", str(results)]
    if spans:
        argv += ["--spans", str(tmp / f"{tag}.spans")]
    argv += tables_command(engine, cache_dir, names)
    if obs:
        argv += ["--trace", str(tmp / f"{tag}.trace.jsonl"),
                 "--metrics-out", str(tmp / f"{tag}.metrics.json")]
    finished = run_process(argv)
    errors: list[str] = []
    programs: dict = {}
    if finished.code != 0:
        tail = finished.stderr.decode(errors="replace")[-400:]
        errors.append(f"{tag}: exit code {finished.code}: {tail}")
    if expected is not None and finished.stdout != expected.read_bytes():
        errors.append(f"{tag}: tables differ from {expected.name}")
    try:
        with open(results, encoding="utf-8") as handle:
            programs = json.load(handle)
    except (OSError, ValueError) as exc:
        errors.append(f"{tag}: no run_suite results ({exc})")
    if programs and set(programs) != set(names or layers.PROGRAMS):
        errors.append(f"{tag}: ran {sorted(programs)}")
    for name, program in programs.items():
        if not program["outputs_match"]:
            errors.append(f"{tag}: {name}: inlined binary's outputs differ")
    span_list = layers.load_spans(str(tmp / f"{tag}.spans")) if spans else None
    return TableRun(tag, finished, programs, errors, span_list)


def check_runs(result: Result, runs: list[TableRun]) -> dict[str, int] | None:
    """Count every run; all must report the same post-inline counts,
    which are returned."""
    reference = next((run.gen() for run in runs if run.programs), None)
    for run in runs:
        errors = list(run.errors)
        if run.programs and run.gen() != reference:
            errors.append(f"{run.tag}: post-inline counts {run.gen()} != {reference}")
        result.check(errors)
    return reference


def run_tables(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tmp: Path,
    names: list[str] | None = None,
) -> Result:
    """Drive one table workload; ``names`` replaces its programs, and
    then no tables are recorded to compare the output with.

    The window runs whole table runs while the next one, at the median
    length so far, still fits. The traced pass starts its window with two
    untraced runs: a plain one, the reference of both overheads, and one
    with the program's own ``--trace``/``--metrics-out``, which gives
    ``obs.overhead_frac``.
    """
    result = Result(workload, seed, trace)
    engine = tables_engine(workload)
    expected = None
    if names is None:
        names, expected = tables_programs(workload)
    result.detail["engine"] = engine
    runs: list[TableRun] = []
    setup: list[Finished] = []
    timed: list[TableRun] = []
    cache_dir = None
    with measuring() as probe:
        if workload == "tables-warm":
            # Set-up fills the cache with one cold run; a fresh directory
            # each time so that every repeat is as cold as the first.
            for repeat in range(1 if trace else SETUP_REPEATS):
                if cache_dir is not None:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                cache_dir = tmp / f"cache{repeat}"
                runs.append(
                    table_run(tmp, f"fill{repeat}", engine, names, expected, cache_dir)
                )
                setup.append(runs[-1].finished)
        elif not trace:
            setup = [import_probe() for _ in range(IMPORT_REPEATS)]

        deadline = time.monotonic() + seconds
        if trace:
            plain = table_run(tmp, "plain", engine, names, expected, cache_dir)
            observed = table_run(tmp, "obs", engine, names, expected, cache_dir, obs=True)
            runs += [plain, observed]
        while not timed or (
            time.monotonic() + statistics.median(run.finished.wall for run in timed) <= deadline
        ):
            timed.append(table_run(
                tmp, f"run{len(timed)}", engine, names, expected, cache_dir, spans=trace
            ))
    runs += timed
    gen = check_runs(result, runs)
    result.detail["programs"] = timed[0].programs
    result.detail["wall_s"] = [run.finished.wall for run in timed]
    if trace:
        _table_layers(result, probe, plain, observed, timed)
        return result

    latency = [1000.0 * run.finished.reference_s(probe) for run in timed]
    result.add("setup_s", "s", [finished.reference_s(probe) for finished in setup])
    result.add("latency_p50_ms", "ms", latency)
    # A window holds one to four table runs, too few for a tail: the
    # median stands in.
    result.add("latency_p95_ms", "ms", latency)
    result.add("peak_rss_mb", "MB", max(run.finished.rss_mb for run in timed))
    for key, value in (gen or {}).items():
        result.add(key, "count", value)
    return result


def _table_layers(
    result: Result,
    probe: speed.Probe,
    plain: TableRun,
    observed: TableRun,
    traced: list[TableRun],
) -> None:
    spans = layers.concat(run.spans for run in traced)
    for name, (value, unit) in layers.layer_metrics(spans, len(traced)).items():
        result.add(name, unit, value)
    # The breakdown of a traced run: its wall time, the time inside
    # run_benchmark, and the rest.
    client = [1000.0 * run.finished.wall for run in traced]
    server = [1000.0 * layers.container_seconds(run.spans) for run in traced]
    result.add("front.client_p50_ms", "ms", client)
    result.add("front.server_p50_ms", "ms", server)
    result.add("front.overhead_p50_ms", "ms", [c - s for c, s in zip(client, server)])
    result.add("service.coalesced", "count", 0)
    reference = plain.finished.reference_s(probe)
    result.add(
        "obs.overhead_frac", "ratio", observed.finished.reference_s(probe) / reference - 1.0
    )
    result.add(
        "bench.trace_overhead_frac",
        "ratio",
        statistics.median(run.finished.reference_s(probe) for run in traced) / reference - 1.0,
    )


# ----------------------------------------------------------------------
# the service workload


def service_inputs() -> dict[str, dict]:
    """Source and small-scale inputs of each service program."""
    from repro.workloads.suite import benchmark_by_name

    inputs = {}
    for name in SERVICE_PROGRAMS:
        benchmark = benchmark_by_name(name)
        runs = []
        for spec in benchmark.make_runs("small"):
            if spec.files:
                raise ValueError(f"{name}: service requests cannot carry input files")
            runs.append((spec.stdin.decode("ascii"), list(spec.argv)))
        inputs[name] = {"source": benchmark.source, "runs": runs}
    return inputs


def make_request(op: str, program: str, run: int, inputs: dict) -> dict:
    """One request: ``{"op", "program", "run", "params"}``."""
    params = {
        "source": inputs[program]["source"],
        "filename": f"{program}.c",
        "passes": PASSES,
    }
    if op != "compile":
        stdin, argv = inputs[program]["runs"][run]
        params["stdin"] = stdin
        params["argv"] = argv
    return {"op": op, "program": program, "run": run, "params": params}


def request_stream(seed: int, inputs: dict):
    """The endless, seeded request sequence of ``service-mix``.

    Each round of :data:`ROUND` requests holds every program with every
    op in the 2:3:3:2 ratio, so the mix is exact over each round. The
    seed orders each round and deals each (op, program) pair its inputs
    from a shuffled deck, so every input comes up equally often: drawn
    independently, the few costliest inputs decide the tail latency by
    how often a seed happens to pick them.
    """
    rng = random.Random(f"service-mix/{seed}")
    batch = [
        (op, program)
        for program in SERVICE_PROGRAMS
        for op, weight in OP_MIX
        for _ in range(weight)
    ]
    decks: dict[tuple[str, str], list[int]] = {}
    while True:
        order = list(batch)
        rng.shuffle(order)
        for op, program in order:
            deck = decks.get((op, program))
            if not deck:
                deck = list(range(len(inputs[program]["runs"])))
                rng.shuffle(deck)
                decks[(op, program)] = deck
            yield make_request(op, program, deck.pop(), inputs)


def warm_up_requests(inputs: dict) -> list[dict]:
    """One ``inline`` per program on its first input: it compiles the
    program into the server's cache, and its counts are ``gen_*``."""
    return [make_request("inline", program, 0, inputs) for program in SERVICE_PROGRAMS]


def closed_loop(
    socket_path: str,
    requests,
    deadline: float = float("inf"),
    limit: int | None = None,
) -> list[dict]:
    """Send requests from one connection, each after the reply to the
    one before, until the deadline or the limit.

    Returns one sample per request: the request, its envelope, and its
    monotonic send and receive times.
    """
    from repro.observability.context import TraceContext
    from repro.service.client import ServiceClient, ServiceError

    samples: list[dict] = []
    with ServiceClient(socket_path, timeout=60.0) as client:
        for request in requests:
            if limit is not None and len(samples) >= limit:
                break
            if time.monotonic() >= deadline:
                break
            sent = time.monotonic()
            try:
                envelope = client.request(
                    request["op"], request["params"], raw=True, trace=TraceContext.mint()
                )
            except (OSError, ServiceError, ValueError) as exc:
                envelope = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                client.close()
            samples.append({"request": request, "envelope": envelope,
                            "sent": sent, "received": time.monotonic()})
    return samples


class Server:
    """A ``python -m repro.cli serve`` child with a one-process pool.

    The socket path is relative (to the checkout for the server, to the
    working directory for clients), because AF_UNIX paths are limited to
    108 bytes and the checkout may be deep.
    """

    def __init__(self, tmp: Path, tag: str, spans: str | None = None) -> None:
        path = tmp / f"{tag}.sock"
        self.socket = os.path.relpath(path)
        self.cache = tmp / f"{tag}.cache"
        argv = [sys.executable]
        if spans:
            argv += [str(LAUNCH), "--spans", spans]
        argv += ["-m", "repro.cli", "serve", "--socket", os.path.relpath(path, ROOT),
                 "--jobs", "1", "--executor", "process",
                 "--cache-dir", str(self.cache)]
        self._log_path = tmp / f"{tag}.log"
        with open(self._log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.rss_mb = 0.0

    def log_tail(self) -> str:
        try:
            return self._log_path.read_text(errors="replace")[-400:]
        except OSError:
            return ""

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Return once the server answers ``ping``."""
        from repro.service.client import ServiceClient, ServiceError

        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            try:
                with ServiceClient(self.socket, timeout=5.0) as client:
                    if client.ping() == "pong":
                        return
            except (OSError, ServiceError):
                time.sleep(0.01)
        raise RuntimeError(f"server not ready after {timeout} s")

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.socket, timeout=30.0) as client:
            return client.stats()

    def _reap(self, timeout: float):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            time.sleep(0.02)
        return None

    def stop(self) -> None:
        """Admin ``shutdown``, then SIGTERM after 30 s, then SIGKILL.

        The server drains and joins its pool on ``shutdown``; SIGKILL
        goes to its whole process group, so no worker outlives it.
        """
        from repro.service.client import ServiceClient, ServiceError

        if self.proc.returncode is not None:
            return
        try:
            with ServiceClient(self.socket, timeout=30.0) as client:
                client.shutdown()
        except (OSError, ServiceError):
            pass
        reaped = self._reap(30.0)
        if reaped is None:
            self.proc.terminate()
            reaped = self._reap(10.0)
        if reaped is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            reaped = os.wait4(self.proc.pid, 0)[1:]
        status, usage = reaped
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def start_server(tmp: Path, tag: str, inputs: dict, spans: str | None = None):
    """Spawn a server, wait for ``ping``, warm it up; time all of it.

    Returns the server, the monotonic start and end of its set-up, and
    the warm-up samples.
    """
    start = time.monotonic()
    server = Server(tmp, tag, spans)
    try:
        server.wait_ready()
        warm = closed_loop(server.socket, warm_up_requests(inputs))
    except BaseException:
        server.stop()
        raise
    return server, (start, time.monotonic()), warm


def wc_counts(text: str) -> str:
    """What wc prints: lines, words and characters, with words split at
    space, newline and tab as in wc.c."""
    words = 0
    in_word = False
    for char in text:
        if char in " \n\t":
            in_word = False
        elif not in_word:
            in_word = True
            words += 1
    return f"{text.count(chr(10))} {words} {len(text)}\n"


def oracle_errors(sample: dict) -> list[str]:
    """Checks of a ``profile`` reply that do not trust the compiler:
    wc's counts against Python's, tee's stdout against its stdin."""
    request, envelope = sample["request"], sample["envelope"]
    if request["op"] != "profile" or not envelope.get("ok"):
        return []
    stdin = request["params"]["stdin"]
    stdout = envelope["result"]["stdout"]
    if request["program"] == "wc" and stdout != wc_counts(stdin):
        return [f"wc run {request['run']}: printed {stdout!r}, expected {wc_counts(stdin)!r}"]
    if request["program"] == "tee" and stdout != stdin:
        return [f"tee run {request['run']}: stdout differs from stdin"]
    return []


def envelope_errors(sample: dict) -> list[str]:
    envelope = sample["envelope"]
    if envelope.get("ok"):
        return oracle_errors(sample)
    request = sample["request"]
    return [f"{request['op']} {request['program']}: {envelope.get('error')}"]


def recheck(samples: list[dict], seed: int) -> list[list[str]]:
    """Re-run a seeded share of the window's requests through
    ``repro.service.execute`` in this process; compare with the replies."""
    from repro.pipeline.session import CompilationSession
    from repro.service import execute

    rng = random.Random(f"recheck/{seed}")
    count = max(1, round(RECHECK_SHARE * len(samples)))
    chosen = rng.sample(samples, min(count, len(samples)))
    session = CompilationSession()
    outcomes = []
    for sample in chosen:
        request, envelope = sample["request"], sample["envelope"]
        expected = json.loads(
            json.dumps(execute(request["op"], request["params"], session=session),
                       sort_keys=True, default=str)
        )
        if envelope.get("ok") and envelope["result"] != expected:
            outcomes.append([f"{request['op']} {request['program']} run"
                             f" {request['run']}: reply differs from direct execute"])
        else:
            outcomes.append([])
    return outcomes


def _gen_counts(warm: list[dict]) -> dict[str, int] | None:
    if not all(sample["envelope"].get("ok") for sample in warm):
        return None
    results = [sample["envelope"]["result"] for sample in warm]
    return {
        "gen_il": sum(result["il_after"] for result in results),
        "gen_calls": sum(result["calls_after"] for result in results),
        "gen_code_size": sum(result["code_size_after"] for result in results),
    }


def _by_op(samples: list[dict]) -> dict:
    """Per-op p50 of client latency, server time and their difference."""
    detail = {}
    for op, _weight in OP_MIX:
        chosen = [s for s in samples if s["request"]["op"] == op and s["envelope"].get("ok")]
        if not chosen:
            continue
        client = [1000.0 * (s["received"] - s["sent"]) for s in chosen]
        server = [1000.0 * s["envelope"]["seconds"] for s in chosen]
        detail[op] = {
            "n": len(chosen),
            "client_p50_ms": statistics.median(client),
            "server_p50_ms": statistics.median(server),
            "overhead_p50_ms": statistics.median(c - s for c, s in zip(client, server)),
        }
    return detail


def run_service(
    seed: int,
    seconds: float,
    trace: bool,
    tmp: Path,
    max_requests: int | None = None,
) -> Result:
    """Drive ``service-mix``: one closed-loop client against
    ``serve --jobs 1 --executor process``; ``max_requests`` caps the
    window's length in requests."""
    result = Result("service-mix", seed, trace)
    inputs = service_inputs()
    servers: list[Server] = []
    setup: list[tuple[float, float]] = []
    gens: list[dict | None] = []
    plain_round: list[dict] = []
    with measuring() as probe:
        try:
            if trace:
                # An untraced server answers one round first: the
                # reference for bench.trace_overhead_frac.
                server, _took, warm = start_server(tmp, "plain", inputs)
                servers.append(server)
                plain_round = closed_loop(
                    server.socket, request_stream(seed, inputs),
                    limit=min(ROUND, max_requests or ROUND),
                )
                for sample in warm + plain_round:
                    result.check(envelope_errors(sample))
                server.stop()
            repeats = 1 if trace else SETUP_REPEATS
            spans = str(tmp / "service.spans") if trace else None
            for repeat in range(repeats):
                last = repeat == repeats - 1
                server, took, warm = start_server(
                    tmp, f"setup{repeat}", inputs, spans if last else None
                )
                servers.append(server)
                setup.append(took)
                gens.append(_gen_counts(warm))
                for sample in warm:
                    result.check(envelope_errors(sample))
                if not last:
                    server.stop()
            if any(gen != gens[0] for gen in gens):
                result.errors.append(f"warm-up counts differ between set-ups: {gens}")
            samples = closed_loop(
                server.socket, request_stream(seed, inputs),
                time.monotonic() + seconds, max_requests,
            )
            stats = server.stats()
        finally:
            for each in servers:
                each.stop()
    for sample in samples:
        result.check(envelope_errors(sample))
    for errors in recheck(samples, seed):
        result.check(errors)

    service = stats.get("service", {})
    result.detail.update(
        requests=len(samples),
        ops=_by_op(samples),
        cache_hit_rate=service.get("cache", {}).get("hit_rate"),
        coalesced=service.get("requests", {}).get("coalesced", 0),
        tail_percentile=tail_percentile(len(samples)),
    )
    if trace:
        _trace_service(result, probe, samples, plain_round, spans)
        return result

    latency = [1000.0 * request_seconds(probe, sample) for sample in samples]
    result.add("setup_s", "s", [probe.scaled(end - start, start, end) for start, end in setup])
    result.add("latency_p50_ms", "ms", latency)
    result.add_tail("latency_p95_ms", latency, 95)
    result.add("peak_rss_mb", "MB", server.rss_mb)
    for key, value in (gens[-1] or {}).items():
        result.add(key, "count", value)
    return result


def request_seconds(probe: speed.Probe, sample: dict) -> float:
    """A request's send-to-reply time at the reference speed."""
    return probe.scaled(sample["received"] - sample["sent"], sample["sent"], sample["received"])


def _trace_service(
    result: Result,
    probe: speed.Probe,
    samples: list[dict],
    plain_round: list[dict],
    spans: str,
) -> None:
    span_list = layers.load_spans(spans)
    requests = sum(1 for span in span_list if span[0] == "request")
    for name, (value, unit) in layers.layer_metrics(span_list, requests).items():
        result.add(name, unit, value)
    ok = [s for s in samples if s["envelope"].get("ok")]
    client = [1000.0 * (s["received"] - s["sent"]) for s in ok]
    server = [1000.0 * s["envelope"]["seconds"] for s in ok]
    result.add("front.client_p50_ms", "ms", client)
    result.add("front.server_p50_ms", "ms", server)
    result.add("front.overhead_p50_ms", "ms", [c - s for c, s in zip(client, server)])
    result.add("service.coalesced", "count", result.detail["coalesced"])
    # serve records its own telemetry unconditionally: there is no
    # server without it to compare against.
    result.add("obs.overhead_frac", "ratio", 0.0)
    traced = statistics.median(request_seconds(probe, s) for s in ok)
    plain = statistics.median(request_seconds(probe, s) for s in plain_round)
    result.add("bench.trace_overhead_frac", "ratio", traced / plain - 1.0)


# ----------------------------------------------------------------------
# entry point


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units that ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> Result:
    if workload == "service-mix":
        result = run_service(seed, seconds, trace, tmp)
    else:
        result = run_tables(workload, seed, seconds, trace, tmp)
    measured = {name: data["unit"] for name, data in result.metrics.items()}
    if measured != declared_metrics(trace):
        result.errors.append("metrics differ from BENCHMARK.json")
    return result


def report(result: Result) -> str:
    lines = [
        f"== {result.workload} (seed {result.seed},"
        f" {'traced' if result.trace else 'untraced'},"
        f" {result.attempted} attempted, {result.failed} failed)",
        f"{'metric':32} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'n':>5}",
    ]
    for name, data in result.metrics.items():
        q1, q3 = (
            ("-", "-") if data["q1"] is None
            else (f"{data['q1']:.6g}", f"{data['q3']:.6g}")
        )
        lines.append(
            f"{name:32} {data['unit']:8} {data['value']:14.6g}"
            f" {q1:>14} {q3:>14} {data['n']:5d}"
        )
    for op, data in result.detail.get("ops", {}).items():
        lines.append(
            f"  {op:8} n={data['n']:4d} client p50 {data['client_p50_ms']:9.2f} ms,"
            f" server p50 {data['server_p50_ms']:9.2f} ms,"
            f" overhead p50 {data['overhead_p50_ms']:7.2f} ms"
        )
    for error in result.errors[:10]:
        lines.append(f"  ERROR {error}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the service-mix requests (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default:"
                        " run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write every result, with quartiles, as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    tmp = ROOT / ".bench_run" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        for workload in workloads:
            (tmp / workload).mkdir()
            result = run_workload(
                workload, args.seed, seconds, bool(args.trace), tmp / workload
            )
            print(report(result), flush=True)
            results.append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run is using it
            pass
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "trace": bool(args.trace), "seconds": seconds,
                 "workloads": {r.workload: r.to_json() for r in results}},
                handle, indent=1, sort_keys=True,
            )
            handle.write("\n")
    if len(results) == 1:
        line = results[0].line()
    else:
        line = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}.{name}": value
                for r in results
                for name, value in r.line()["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
