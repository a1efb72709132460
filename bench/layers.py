"""Layer timers for the benchmark's traced pass.

The traced pass runs the program in its own process with a wrapper
around each layer's public functions, installed before
``repro.cli.main`` starts. Nothing under ``src/`` changes: every
wrapper replaces the module attribute its caller looks up, so a
function reached through two names (``repro.compiler.compile_program``
and the copy ``repro.workloads.suite`` imported) is patched at both.

Spans stay in memory, one list per process, and are written to
``<prefix>.<pid>.json`` when the process ends. Process-pool workers are
forked from the patched server, so they inherit the wrappers; each one
drops the spans it inherited and writes its own on exit.

:func:`layer_metrics` turns the spans of one run into the per-layer
metrics: each layer's *self time* (its span's duration minus the spans
nested directly inside it) as a share of the program's compute time,
plus the counts recorded at the same boundaries.
"""

from __future__ import annotations

import atexit
import functools
import glob
import importlib
import json
import multiprocessing.util
import os
import threading
import time
import weakref

#: Spans that contain one unit of the program's work: a benchmark's
#: whole pipeline in a table run, one operation in a service worker.
CONTAINERS = ("program", "request")

#: The twelve suite programs, in Table 1 order.
PROGRAMS = (
    "cccp", "cmp", "compress", "eqn", "espresso", "grep",
    "lex", "make", "tar", "tee", "wc", "yacc",
)

#: Layers reported as a share of compute time, by metric prefix.
SHARE_LAYERS = (
    "frontend", "opt", "profiler", "inliner", "classify", "check", "session",
)


class SpanLog:
    """The spans of one process: ``[layer, start, end, parent, attrs]``.

    ``parent`` is the index of the enclosing open span on the same
    thread, or ``None``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, attrs: dict) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [layer, time.perf_counter(), None, stack[-1] if stack else None, attrs]
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# ----------------------------------------------------------------------
# what each wrapper records besides its duration


def _lines(text: str) -> int:
    return text.count("\n") + 1


def _source_lines(args, kwargs) -> dict:
    """Lines the frontend reads: the program, plus the C-subset libc
    that is compiled into the same translation unit unless
    ``link_libc=False``."""
    from repro.runtime import LIBC_SOURCE

    source = kwargs.get("source", args[0] if args else "")
    lines = _lines(source)
    if kwargs.get("link_libc", args[4] if len(args) > 4 else True):
        lines += _lines(LIBC_SOURCE)
    return {"lines": lines}


def _benchmark_name(args, kwargs) -> dict:
    benchmark = kwargs.get("benchmark", args[0] if args else None)
    return {"program": getattr(benchmark, "name", "")}


def _request_program(args, kwargs) -> dict:
    """The program a service request names through its ``filename``."""
    params = kwargs.get("params", args[1] if len(args) > 1 else None) or {}
    filename = str(params.get("filename") or "")
    return {"program": filename.removesuffix(".c")}


def _profile_runs(args, kwargs) -> dict:
    specs = kwargs.get("specs", args[1] if len(args) > 1 else ())
    return {"runs": len(specs)}


#: Module objects that have already run once in this process.
_SEEN_MODULES: "weakref.WeakSet" = weakref.WeakSet()


def _machine_run_before(args, kwargs) -> dict:
    module = args[0].module
    first = module not in _SEEN_MODULES
    _SEEN_MODULES.add(module)
    return {"first": first}


def _machine_run_after(result, attrs: dict) -> None:
    attrs["il"] = result.counters.il


def _opt_after(result, attrs: dict) -> None:
    attrs["changes"] = result.total_changes


def _inline_after(result, attrs: dict) -> None:
    attrs["expansions"] = len(result.records)
    attrs["growth"] = result.final_size - result.original_size


#: (module, attribute path, layer, before, after). ``before(args,
#: kwargs)`` returns the span's attributes; ``after(result, attrs)``
#: adds what the call returned.
PATCHES = (
    ("repro.experiments.pipeline", "run_benchmark", "program", _benchmark_name, None),
    ("repro.service.ops", "execute", "request", _request_program, None),
    ("repro.compiler", "compile_program", "frontend", _source_lines, None),
    ("repro.workloads.suite", "compile_program", "frontend", _source_lines, None),
    ("repro.opt", "optimize_module", "opt", None, _opt_after),
    ("repro.experiments.pipeline", "optimize_module", "opt", None, _opt_after),
    ("repro.profiler.profile", "profile_module", "profiler", _profile_runs, None),
    ("repro.experiments.pipeline", "profile_module", "profiler", _profile_runs, None),
    ("repro.vm.machine", "Machine.__init__", "vm.link", None, None),
    ("repro.vm.machine", "Machine.run", "vm", _machine_run_before, _machine_run_after),
    ("repro.inliner.manager", "InlineExpander.run", "inliner", None, _inline_after),
    ("repro.callgraph.build", "build_call_graph", "classify", None, None),
    ("repro.experiments.pipeline", "build_call_graph", "classify", None, None),
    ("repro.inliner.classify", "classify_sites", "classify", None, None),
    ("repro.experiments.pipeline", "classify_sites", "classify", None, None),
    ("repro.experiments.pipeline", "compare_outputs", "check", None, None),
    ("repro.pipeline.session", "CompilationSession.compiled_module", "session", None, None),
    ("repro.pipeline.session", "CompilationSession.profile", "session", None, None),
)


def _wrap(log: SpanLog, fn, layer: str, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        index = log.open(layer, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if after:
            after(result, attrs)
        return result

    return wrapper


def install(log: SpanLog) -> None:
    """Patch every layer boundary in :data:`PATCHES` to record into ``log``."""
    for module_name, path, layer, before, after in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = getattr(owner, attribute)
        setattr(owner, attribute, _wrap(log, original, layer, before, after))


def record_to(prefix: str) -> SpanLog:
    """Install the timers and write spans to ``<prefix>.<pid>.json`` on exit.

    A forked multiprocessing worker leaves through ``os._exit``, which
    skips ``atexit``; it writes its spans from a multiprocessing
    finalizer instead, registered after the fork.
    """
    log = SpanLog()
    install(log)

    def dump(_log=None) -> None:
        log.write(f"{prefix}.{os.getpid()}.json")

    def after_fork(_log) -> None:
        log.reset()
        multiprocessing.util.Finalize(log, dump, exitpriority=100)

    atexit.register(dump)
    multiprocessing.util.register_after_fork(log, after_fork)
    return log


def concat(span_lists) -> list[list]:
    """Several span lists as one, parent indices rebased."""
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        merged.extend(
            [layer, start, end, None if parent is None else parent + offset, attrs]
            for layer, start, end, parent, attrs in spans
        )
    return merged


def _closed(spans: list[list]) -> list[list]:
    """Drop spans still open when their process ended; their children
    become roots."""
    moved: dict[int, int] = {}
    kept: list[list] = []
    for index, (layer, start, end, parent, attrs) in enumerate(spans):
        if end is not None:
            moved[index] = len(kept)
            kept.append([layer, start, end, moved.get(parent), attrs])
    return kept


def load_spans(prefix: str) -> list[list]:
    """Every process's spans under ``prefix``, as one list."""
    lists = []
    for path in sorted(glob.glob(f"{glob.escape(prefix)}.*.json")):
        with open(path, encoding="utf-8") as handle:
            lists.append(_closed(json.load(handle)))
    return concat(lists)


# ----------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _layer, start, end, _parent, _attrs in spans]
    for _layer, start, end, parent, _attrs in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ancestors(spans: list[list], index: int):
    parent = spans[index][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def container_seconds(spans: list[list]) -> float:
    """Total duration of the container spans: the program's compute time."""
    return sum(
        end - start
        for layer, start, end, _parent, _attrs in spans
        if layer in CONTAINERS
    )


def layer_metrics(spans: list[list], items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: ``{name: (value, unit)}``.

    ``items`` is the number of units of work the spans cover (table runs,
    or service requests executed); counts are reported per item. Shares
    are of the total duration of the container spans, that is of the
    time the program spent computing.
    """
    own = self_times(spans)
    total = container_seconds(spans)
    layer_self: dict[str, float] = {}
    for index, span in enumerate(spans):
        layer_self[span[0]] = layer_self.get(span[0], 0.0) + own[index]

    def share(seconds: float) -> float:
        return seconds / total if total else 0.0

    def per_item(count: float) -> float:
        return count / items if items else 0.0

    def attr_sum(layer: str, key: str) -> float:
        return sum(s[4].get(key, 0) for s in spans if s[0] == layer)

    def count(layer: str) -> int:
        return sum(1 for s in spans if s[0] == layer)

    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)

    def has_descendant(index: int, wanted: tuple[str, ...]) -> bool:
        pending = list(children.get(index, ()))
        while pending:
            child = pending.pop()
            if spans[child][0] in wanted:
                return True
            pending.extend(children.get(child, ()))
        return False

    program_time = {name: 0.0 for name in PROGRAMS}
    program_vm = {name: 0.0 for name in PROGRAMS}
    vm_check = vm_first = vm_total = 0.0
    later_il = later_s = all_il = 0.0
    for index, (layer, start, end, _parent, attrs) in enumerate(spans):
        if layer in CONTAINERS and attrs.get("program") in program_time:
            program_time[attrs["program"]] += end - start
        if layer != "vm":
            continue
        vm_total += own[index]
        all_il += attrs.get("il", 0)
        ancestors = list(_ancestors(spans, index))
        if any(spans[a][0] == "check" for a in ancestors):
            vm_check += own[index]
        if attrs.get("first"):
            vm_first += own[index]
        else:
            later_il += attrs.get("il", 0)
            later_s += own[index]
        for a in ancestors:
            if spans[a][0] in CONTAINERS:
                name = spans[a][4].get("program")
                if name in program_vm:
                    program_vm[name] += own[index]
                break

    sessions = [i for i, s in enumerate(spans) if s[0] == "session"]
    hits = sum(
        1 for i in sessions if not has_descendant(i, ("frontend", "profiler"))
    )
    frontend_self = layer_self.get("frontend", 0.0)
    # The fast tier generates code on a module's first run; the rate of
    # the later runs is its steady state. Where every run is a first run
    # (a service request gets a fresh module), all runs count.
    rate_il, rate_s = (later_il, later_s) if later_s else (all_il, vm_total)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = (share(layer_self.get(layer, 0.0)), "ratio")
    metrics.update(
        {
            "vm.share": (share(vm_total), "ratio"),
            "vm.profile_share": (share(vm_total - vm_check), "ratio"),
            "vm.check_share": (share(vm_check), "ratio"),
            "vm.first_run_share": (share(vm_first), "ratio"),
            "vm.link_share": (share(layer_self.get("vm.link", 0.0)), "ratio"),
            "frontend.calls": (per_item(count("frontend")), "count"),
            "frontend.lines_per_s": (
                attr_sum("frontend", "lines") / frontend_self if frontend_self else 0.0,
                "lines/s",
            ),
            "opt.changes": (per_item(attr_sum("opt", "changes")), "count"),
            "profiler.runs": (per_item(attr_sum("profiler", "runs")), "count"),
            "vm.runs": (per_item(count("vm")), "count"),
            "vm.il": (per_item(all_il), "count"),
            "vm.il_per_s": (rate_il / rate_s if rate_s else 0.0, "1/s"),
            "inliner.expansions": (per_item(attr_sum("inliner", "expansions")), "count"),
            "inliner.code_growth": (per_item(attr_sum("inliner", "growth")), "count"),
            "session.calls": (per_item(len(sessions)), "count"),
            "session.hit_rate": (hits / len(sessions) if sessions else 0.0, "ratio"),
        }
    )
    for name in PROGRAMS:
        metrics[f"program.{name}.share"] = (share(program_time[name]), "ratio")
        metrics[f"program.{name}.vm_share"] = (
            program_vm[name] / vm_total if vm_total else 0.0,
            "ratio",
        )
    return metrics
