"""CompilationSession: content-addressed caching of pipeline artifacts.

A session maps stable hash keys to the two expensive artifacts of the
experiment pipeline:

- **compiled modules**, keyed over (source text, canonical
  pre-optimization pass spec) — the cached module already has the pass
  pipeline applied, and lookups return a :meth:`~repro.il.module.
  ILModule.clone` so callers can mutate freely;
- **profiles**, keyed over (module content, input specs) — what
  :func:`~repro.profiler.profile.profile_module` reads. The module
  content key covers every instruction (including call-site ids), so a
  profile (and the output observations it carries) is only ever
  replayed against the exact code it was measured on.

An optional on-disk store (``.repro-cache/`` by convention) makes the
cache survive across processes — and is **shared between concurrent
processes** (``tables --jobs N`` and service workers). A worker process
reaches the session as its cache directory and opens it once through
:func:`open_session`. The store is
versioned under ``v<FORMAT>/``, sharded as
``v<FORMAT>/<kind>/<first-two-hex-chars>/<key>.pkl`` so no single
directory grows unbounded, and process-safe by construction:

- writes go to a temp file and land via atomic ``os.replace``, so a
  killed writer can never leave a truncated entry under the final name;
- a store-wide advisory lock (``fcntl.flock`` on ``.lock`` where
  available) serializes writers, so two processes storing the same key
  never interleave.

The store stays corruption-tolerant by design: an unreadable,
truncated, or wrong-format entry is silently a miss — never an error —
so a stale or damaged cache directory can always be reused or simply
deleted.

Hit/miss/evict counts are reported as ``pipeline.cache.*`` metrics
into the observability current at each lookup
(:func:`repro.observability.current`), so a pool worker's session
counts into the task it serves.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any

try:  # advisory locking is POSIX-only; elsewhere atomic rename suffices
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.observability import current
from repro.opt.pipeline import parse_pass_spec

#: Bump when the pickled artifact layout changes; old entries become
#: invisible (a different subdirectory), not errors. Format 2 profiles
#: carry the per-input output observations; format 3 observations
#: include a stderr digest.
CACHE_FORMAT = 3

#: Default on-disk store location (created on first use).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Most in-memory entries a session keeps per artifact kind; the least
#: recently used is dropped first.
MAX_ENTRIES = 256


def _digest(payload: Any) -> str:
    """A stable sha256 over any JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def module_cache_key(source: str, *, pass_spec: str | None = None) -> str:
    """The content-addressed key of a compiled (and pre-optimized) module:
    its source text and canonical pass spec.

    The pass spec is keyed in canonical form, so an alias and the name
    it stands for share an entry; ``None`` and ``""`` (no
    pre-optimization) key alike.
    """
    return _digest(
        {
            "format": CACHE_FORMAT,
            "kind": "module",
            "source": source,
            "pass_spec": ",".join(parse_pass_spec(pass_spec or "")),
        }
    )


def module_content_key(module) -> str:
    """A stable hash over everything that affects a module's execution.

    Unlike :func:`repro.profiler.serialize.module_fingerprint` (which
    deliberately survives body edits), this covers every instruction
    field — including call-site ids — plus globals with their
    initializers, so two modules share a key only when they run (and
    profile) identically.
    """
    digest = hashlib.sha256()
    digest.update(f"entry={module.entry};".encode())
    digest.update(("ext=" + ",".join(sorted(module.externals)) + ";").encode())
    digest.update(
        ("addr=" + ",".join(sorted(module.address_taken)) + ";").encode()
    )
    for data in module.globals.values():
        digest.update(f"g {data.name} {data.size} {data.align}".encode())
        for item in data.init:
            digest.update(
                f" {item.offset}:{item.kind}:{item.value}:{item.size}"
                f":{item.symbol}".encode()
            )
            digest.update(item.data)
        digest.update(b"\n")
    for function in module.functions.values():
        digest.update(
            f"f {function.name}({','.join(function.params)})"
            f" ret={function.returns_value}\n".encode()
        )
        for slot in function.slots.values():
            digest.update(
                f" s {slot.name} {slot.size} {slot.align} {slot.offset}\n".encode()
            )
        for instr in function.body:
            digest.update(
                repr(
                    (
                        int(instr.op), instr.dst, instr.op2, instr.a, instr.b,
                        instr.name, tuple(instr.args), instr.label,
                        instr.label2, tuple(instr.cases), instr.size,
                        instr.site,
                    )
                ).encode()
            )
            digest.update(b"\n")
    return digest.hexdigest()


def _spec_fingerprint(spec) -> dict:
    """A JSON-stable fingerprint of one profiling input."""
    return {
        "stdin": hashlib.sha256(spec.stdin).hexdigest(),
        "files": sorted(
            (path, hashlib.sha256(data).hexdigest())
            for path, data in spec.files.items()
        ),
        "argv": list(spec.argv),
    }


def profile_cache_key(module, specs) -> str:
    """The content-addressed key of a profile over an input set.

    The specs fingerprint every input, so the scale that chose them
    and the inliner's knobs are not part of the key.
    """
    return _digest(
        {
            "format": CACHE_FORMAT,
            "kind": "profile",
            "module": module_content_key(module),
            "specs": [_spec_fingerprint(spec) for spec in specs],
        }
    )


def _copy_profile(profile):
    """An isolated copy so cached weights can never be mutated back."""
    return copy.deepcopy(profile)


class CompilationSession:
    """Content-addressed artifact cache for compiles and profiles.

    In-memory entries are LRU-bounded by :data:`MAX_ENTRIES` per
    artifact kind; with ``cache_dir`` set, entries are also pickled to
    disk and found again by later sessions (and later processes).
    """

    def __init__(self, cache_dir: str | None = None):
        self._modules: OrderedDict[str, Any] = OrderedDict()
        self._profiles: OrderedDict[str, Any] = OrderedDict()
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._dir = (
            os.path.join(cache_dir, f"v{CACHE_FORMAT}") if cache_dir else None
        )

    # ------------------------------------------------------------------
    # generic keyed store

    @staticmethod
    def _count(what: str) -> None:
        current().metrics.inc(f"pipeline.cache.{what}")

    def _lookup(self, table: OrderedDict, kind: str, key: str) -> Any:
        with self._lock:
            if key in table:
                table.move_to_end(key)
                self._count("hits")
                return table[key]
        value = self._disk_load(kind, key)
        if value is not None:
            self._count("hits")
            self._count("disk_hits")
            self._remember(table, key, value)
            return value
        self._count("misses")
        return None

    def _remember(self, table: OrderedDict, key: str, value: Any) -> None:
        with self._lock:
            table[key] = value
            table.move_to_end(key)
            while len(table) > MAX_ENTRIES:
                table.popitem(last=False)
                self._count("evictions")

    def _store(self, table, kind: str, key: str, value: Any) -> None:
        self._remember(table, key, value)
        self._disk_store(kind, key, value)

    # ------------------------------------------------------------------
    # the on-disk store (sharded, process-safe, corruption-tolerant)

    def _disk_path(self, kind: str, key: str) -> str:
        """Sharded entry path: ``v<FORMAT>/<kind>/<first-2-hex>/<key>.pkl``."""
        return os.path.join(self._dir, kind, key[:2], f"{key}.pkl")

    @contextmanager
    def _store_lock(self):
        """Store-wide advisory write lock (no-op where flock is missing).

        Readers never take it — atomic rename means a read sees either
        the old entry, the new entry, or nothing, all of which are
        valid. Writers serialize on it across processes.
        """
        if fcntl is None or self.cache_dir is None:
            yield
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(os.path.join(self.cache_dir, ".lock"), "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _disk_load(self, kind: str, key: str) -> Any:
        if self._dir is None:
            return None
        try:
            with open(self._disk_path(kind, key), "rb") as handle:
                payload = pickle.load(handle)
            if (
                isinstance(payload, dict)
                and payload.get("format") == CACHE_FORMAT
                and payload.get("kind") == kind
            ):
                return payload["value"]
        except Exception:
            pass
        return None

    def _disk_store(self, kind: str, key: str, value: Any) -> None:
        if self._dir is None:
            return
        try:
            path = self._disk_path(kind, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with self._store_lock():
                with open(tmp, "wb") as handle:
                    pickle.dump(
                        {"format": CACHE_FORMAT, "kind": kind, "value": value},
                        handle,
                    )
                os.replace(tmp, path)
        except Exception:
            # A cache that cannot be written is a slow cache, not a bug.
            return

    # ------------------------------------------------------------------
    # artifacts

    def compiled_module(
        self, source: str, filename: str = "<input>", *, pass_spec: str | None = None
    ):
        """Compile (and pre-optimize, when ``pass_spec`` is set) once.

        Returns a clone of the cached module, so the caller owns it.
        ``None`` or an empty ``pass_spec`` means "no pre-optimization";
        any other spec is run to fixpoint by the one
        :func:`~repro.compiler.compile_program` call that compiles the
        module, whose libc part comes pre-optimized from the process's
        libc prefix.
        """
        key = module_cache_key(source, pass_spec=pass_spec)
        cached = self._lookup(self._modules, "module", key)
        if cached is None:
            from repro.compiler import compile_program

            cached = compile_program(source, filename, pass_spec=pass_spec)
            self._store(self._modules, "module", key, cached)
        return cached.clone()

    def profile(self, module, specs):
        """Cached :func:`~repro.profiler.profile.profile_module` call.

        The cached profile keeps its per-input output observations, so
        a warm pipeline checks outputs without executing either module.
        """
        key = profile_cache_key(module, specs)
        cached = self._lookup(self._profiles, "profile", key)
        if cached is None:
            from repro.profiler.profile import profile_module

            cached = profile_module(module, specs)
            self._store(self._profiles, "profile", key, cached)
        return _copy_profile(cached)


#: The sessions this process opened by cache directory (see
#: :func:`open_session`).
_OPEN_SESSIONS: dict[str, CompilationSession] = {}


def open_session(cache_dir: str | None) -> CompilationSession | None:
    """This process's session over ``cache_dir`` (``None``: no session).

    A live session cannot cross a process boundary (it holds a lock and
    its in-memory tables), so pool workers receive the cache directory
    instead. Each process opens the directory once and keeps the
    session, so its in-memory tables serve every later task it runs;
    the disk store is shared between processes regardless.
    """
    if cache_dir is None:
        return None
    session = _OPEN_SESSIONS.get(cache_dir)
    if session is None:
        session = _OPEN_SESSIONS[cache_dir] = CompilationSession(cache_dir)
    return session
