"""Multi-run profiling of IL modules."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.il.module import ILModule
from repro.observability import Observability, resolve
from repro.vm.counters import Counters
from repro.vm.machine import Machine, RunResult
from repro.vm.os import VirtualOS


def _latin1(text: str, name: str) -> bytes:
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as error:
        bad = text[error.start]
        raise ValueError(
            f"{name} holds {bad!r} (U+{ord(bad):04X}); the VM's text is"
            " latin-1, one byte per character up to U+00FF"
        ) from None


@dataclass
class RunSpec:
    """One profiling input: stdin bytes, a file system, and argv."""

    stdin: bytes = b""
    files: dict[str, bytes] = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    #: Free-form tag, used in experiment logs.
    label: str = ""

    @classmethod
    def from_text(
        cls, stdin: str | None = None, argv: list[str] | None = None
    ) -> "RunSpec":
        """The run of a text ``stdin`` and ``argv`` (the CLI's and the
        service's inputs); ``None`` stands for no input and no arguments.

        ``stdin`` must be a string and ``argv`` a list of strings. The
        VM's bytes are latin-1 text: it decodes stdout, argv and file
        paths one byte per character, so stdin is encoded the same way.
        A value of the wrong type, or a character above U+00FF (which
        has no such byte), raises :class:`ValueError` naming the
        parameter that holds it.
        """
        if stdin is None:
            stdin = ""
        if not isinstance(stdin, str):
            raise ValueError(
                f"stdin must be a string, got {type(stdin).__name__}"
            )
        if argv is None:
            argv = []
        if not isinstance(argv, list):
            raise ValueError(
                f"argv must be a list of strings, got {type(argv).__name__}"
            )
        for index, arg in enumerate(argv):
            if not isinstance(arg, str):
                raise ValueError(
                    "argv must be a list of strings, but"
                    f" argv[{index}] is {type(arg).__name__}"
                )
            _latin1(arg, "argv")
        return cls(stdin=_latin1(stdin, "stdin"), argv=list(argv))

    def make_os(self) -> VirtualOS:
        return VirtualOS(stdin=self.stdin, files=dict(self.files), argv=list(self.argv))


@dataclass(frozen=True)
class Observation:
    """What one run showed the outside world, reduced to digests.

    Two runs with equal observations exited alike, printed the same
    stdout and stderr bytes and wrote the same files with the same
    contents; the digests keep the record a few hundred bytes at any
    output size. :func:`run_differences` names what differs between
    two runs whose observations disagree.
    """

    exit_code: int
    stdout_sha256: str
    stderr_sha256: str
    #: Sorted ``(path, sha256)`` pairs of every file the run wrote.
    files: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, result: RunResult) -> "Observation":
        return cls(
            exit_code=result.exit_code,
            stdout_sha256=hashlib.sha256(result.os.stdout).hexdigest(),
            stderr_sha256=hashlib.sha256(result.os.stderr).hexdigest(),
            files=tuple(
                sorted(
                    (path, hashlib.sha256(data).hexdigest())
                    for path, data in result.os.written_files.items()
                )
            ),
        )


def _first_difference(a: bytes, b: bytes) -> int:
    return next(
        (index for index, (x, y) in enumerate(zip(a, b)) if x != y),
        min(len(a), len(b)),
    )


def run_differences(a: RunResult, b: RunResult) -> list[str]:
    """Every channel on which two runs of one input differ (empty: none).

    ``a`` is the original's run and ``b`` the inlined module's. Compares
    the exit code, stdout and stderr (first differing byte and both
    lengths) and the written files (missing after inlining, only written
    after inlining, or first differing byte).
    """
    problems: list[str] = []
    if a.exit_code != b.exit_code:
        problems.append(f"exit code {a.exit_code} != {b.exit_code}")
    for stream in ("stdout", "stderr"):
        data_a = bytes(getattr(a.os, stream))
        data_b = bytes(getattr(b.os, stream))
        if data_a != data_b:
            problems.append(
                f"{stream} differs at byte {_first_difference(data_a, data_b)}"
                f" (lengths {len(data_a)} vs {len(data_b)})"
            )
    files_a, files_b = a.os.written_files, b.os.written_files
    if files_a != files_b:
        parts: list[str] = []
        for path in sorted(set(files_a) | set(files_b)):
            if path not in files_b:
                parts.append(f"{path} missing after inlining")
            elif path not in files_a:
                parts.append(f"{path} only written after inlining")
            elif files_a[path] != files_b[path]:
                parts.append(
                    f"{path} content differs at byte"
                    f" {_first_difference(files_a[path], files_b[path])}"
                )
        problems.append("written files differ: " + ", ".join(parts))
    return problems


@dataclass
class ProfileData:
    """Averaged dynamic statistics over a set of runs.

    ``node_weights`` maps function names to expected execution counts
    per typical run; ``arc_weights`` maps static call-site ids to
    expected invocation counts — exactly the weighted-call-graph inputs
    of §2.2. Totals over all runs are kept in ``total``, and
    ``observations`` holds one :class:`Observation` per profiled input,
    in input order (empty for estimated or deserialized profiles).
    """

    runs: int
    total: Counters
    node_weights: dict[str, float] = field(default_factory=dict)
    arc_weights: dict[int, float] = field(default_factory=dict)
    observations: tuple[Observation, ...] = ()

    @property
    def avg_il(self) -> float:
        return self.total.il / self.runs if self.runs else 0.0

    @property
    def avg_ct(self) -> float:
        return self.total.ct / self.runs if self.runs else 0.0

    @property
    def avg_calls(self) -> float:
        return self.total.calls / self.runs if self.runs else 0.0

    def node_weight(self, name: str) -> float:
        return self.node_weights.get(name, 0.0)

    def arc_weight(self, site: int) -> float:
        return self.arc_weights.get(site, 0.0)

    @classmethod
    def from_counters(
        cls,
        total: Counters,
        runs: int,
        observations: tuple[Observation, ...] = (),
    ) -> "ProfileData":
        profile = cls(runs=runs, total=total, observations=observations)
        divisor = runs if runs else 1
        profile.node_weights = {
            name: count / divisor for name, count in total.func_counts.items()
        }
        profile.arc_weights = {
            site: count / divisor for site, count in total.site_counts.items()
        }
        return profile


def run_once(
    module: ILModule,
    spec: RunSpec | None = None,
    fuel: int = 2_000_000_000,
    collect_branches: bool = False,
    obs: Observability | None = None,
) -> RunResult:
    """Execute ``module`` once under ``spec`` and return the result."""
    obs = resolve(obs)
    os = spec.make_os() if spec is not None else VirtualOS()
    machine = Machine(
        module,
        os,
        fuel=fuel,
        collect_branches=collect_branches,
        metrics=obs.metrics if obs.metrics.enabled else None,
    )
    return machine.run()


def profile_module(
    module: ILModule,
    specs: list[RunSpec],
    fuel: int = 2_000_000_000,
    check_exit: bool = True,
    obs: Observability | None = None,
) -> ProfileData:
    """Profile ``module`` over every input in ``specs``.

    Raises RuntimeError when a run exits non-zero and ``check_exit`` is
    set, because a crashed run would silently poison the weights.
    """
    if not specs:
        raise ValueError("profiling requires at least one input")
    obs = resolve(obs)
    total = Counters()
    observations: list[Observation] = []
    with obs.tracer.span("profile.module", runs=len(specs)):
        for index, spec in enumerate(specs):
            label = spec.label or f"run {index}"
            with obs.tracer.span("profile.run", label=label) as attrs:
                result = run_once(module, spec, fuel=fuel, obs=obs)
                attrs["exit_code"] = result.exit_code
                attrs["il"] = result.counters.il
                attrs["calls"] = result.counters.calls
            if check_exit and result.exit_code != 0:
                raise RuntimeError(
                    f"profiling input {label!r} exited with {result.exit_code};"
                    f" stderr: {result.os.stderr_text()[:200]!r}"
                )
            total.merge(result.counters)
            observations.append(Observation.of(result))
    if obs.metrics.enabled:
        obs.metrics.inc("profiler.runs", len(specs))
    return ProfileData.from_counters(total, len(specs), tuple(observations))
