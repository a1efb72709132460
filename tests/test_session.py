"""Tests for the CompilationSession content-addressed artifact cache."""

import os
import shutil

import pytest

from repro.il.printer import format_module
from repro.observability import Observability, observing
from repro.pipeline import (
    CompilationSession,
    module_cache_key,
    module_content_key,
    profile_cache_key,
)
from repro.pipeline import session as session_module
from repro.pipeline.session import CACHE_FORMAT, _copy_profile, open_session
from repro.profiler.profile import RunSpec, profile_module
from repro.vm.machine import Machine

SOURCE = """
#include <sys.h>
int triple(int x) { return 3 * x; }
int main(void) { print_int(triple(14)); putchar(10); return 0; }
"""

OTHER_SOURCE = """
#include <sys.h>
int main(void) { putchar('z'); return 0; }
"""

#: The versioned store directory under a session's ``cache_dir``.
STORE = f"v{CACHE_FORMAT}"


def _cache_counters(obs):
    return {
        k.removeprefix("pipeline.cache."): v
        for k, v in obs.metrics.counters.items()
        if k.startswith("pipeline.cache.")
    }


class TestKeys:
    def test_module_key_stable_and_sensitive(self):
        key = module_cache_key(SOURCE, pass_spec="fold")
        assert key == module_cache_key(SOURCE, pass_spec="fold")
        assert key != module_cache_key(SOURCE + " ", pass_spec="fold")
        assert key != module_cache_key(SOURCE, pass_spec="dce")

    def test_content_key_tracks_code_changes(self):
        session = CompilationSession()
        module = session.compiled_module(SOURCE)
        key = module_content_key(module)
        assert key == module_content_key(module.clone())
        mutated = module.clone()
        mutated.functions["main"].body.pop()
        assert module_content_key(mutated) != key

    def test_profile_key_depends_on_inputs(self):
        session = CompilationSession()
        module = session.compiled_module(SOURCE)
        spec_a = [RunSpec(stdin=b"a")]
        spec_b = [RunSpec(stdin=b"b")]
        assert profile_cache_key(module, spec_a) != profile_cache_key(
            module, spec_b
        )
        assert profile_cache_key(module, spec_a) == profile_cache_key(
            module.clone(), [RunSpec(stdin=b"a")]
        )


class TestMemoryCache:
    def test_second_compile_is_a_hit(self):
        session = CompilationSession()
        with observing(Observability.create()) as obs:
            session.compiled_module(SOURCE)
            assert _cache_counters(obs) == {"misses": 1}
            session.compiled_module(SOURCE)
        assert _cache_counters(obs) == {"misses": 1, "hits": 1}

    def test_returned_module_is_isolated_clone(self):
        session = CompilationSession()
        first = session.compiled_module(SOURCE)
        text = format_module(first)
        first.functions["main"].body.pop()  # vandalize the caller's copy
        second = session.compiled_module(SOURCE)
        assert format_module(second) == text
        assert Machine(second).run().exit_code == 0

    def test_profile_cached_and_copied(self):
        session = CompilationSession()
        specs = [RunSpec()]
        with observing(Observability.create()) as obs:
            module = session.compiled_module(SOURCE)
            profile = session.profile(module, specs)
            profile.node_weights["main"] = -1.0  # vandalize the caller's copy
            again = session.profile(module, specs)
        assert again.node_weights["main"] != -1.0
        assert _cache_counters(obs)["hits"] == 1

    def test_eviction_counted(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_ENTRIES", 1)
        session = CompilationSession()
        with observing(Observability.create()) as obs:
            session.compiled_module(SOURCE)
            session.compiled_module(OTHER_SOURCE)
            assert _cache_counters(obs)["evictions"] == 1
            # The first entry is gone: compiling it again is a miss.
            session.compiled_module(SOURCE)
        assert _cache_counters(obs)["misses"] == 3


class TestDiskStore:
    def test_roundtrip_across_sessions(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        producer = CompilationSession(cache_dir=cache_dir)
        baseline = format_module(producer.compiled_module(SOURCE))

        consumer = CompilationSession(cache_dir=cache_dir)
        with observing(Observability.create()) as warm_obs:
            module = consumer.compiled_module(SOURCE)
        counters = _cache_counters(warm_obs)
        assert counters.get("disk_hits") == 1
        assert counters.get("misses") is None
        assert format_module(module) == baseline

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        CompilationSession(cache_dir=cache_dir).compiled_module(SOURCE)
        store = tmp_path / "cache" / STORE
        entries = list(store.rglob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"\x00garbage not pickle")

        session = CompilationSession(cache_dir=cache_dir)
        with observing(Observability.create()) as obs:
            module = session.compiled_module(SOURCE)  # must not raise
        assert Machine(module).run().exit_code == 0
        assert _cache_counters(obs)["misses"] == 1

    def test_unwritable_dir_never_breaks_compiles(self, tmp_path, monkeypatch):
        session = CompilationSession(cache_dir=str(tmp_path / "cache"))
        monkeypatch.setattr(os, "makedirs", _raise_oserror)
        module = session.compiled_module(SOURCE)  # store fails silently
        assert Machine(module).run().exit_code == 0

    def test_clear_disk(self, tmp_path):
        # The store is cleared by deleting the directory.
        cache_dir = str(tmp_path / "cache")
        session = CompilationSession(cache_dir=cache_dir)
        session.compiled_module(SOURCE)
        assert list((tmp_path / "cache" / STORE).iterdir())
        shutil.rmtree(cache_dir)
        again = CompilationSession(cache_dir=cache_dir)
        with observing(Observability.create()) as obs:
            again.compiled_module(SOURCE)
        assert _cache_counters(obs)["misses"] == 1


class TestProfileObservations:
    def test_observations_survive_copy_and_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        specs = [RunSpec(label="empty"), RunSpec(stdin=b"x")]
        producer = CompilationSession(cache_dir=cache_dir)
        module = producer.compiled_module(SOURCE)
        expected = profile_module(module, specs).observations
        assert len(expected) == len(specs)
        assert producer.profile(module, specs).observations == expected

        consumer = CompilationSession(cache_dir=cache_dir)
        with observing(Observability.create()) as obs:
            loaded = consumer.profile(consumer.compiled_module(SOURCE), specs)
        assert _cache_counters(obs)["disk_hits"] == 2
        assert loaded.observations == expected
        assert _copy_profile(loaded).observations == expected


def _raise_oserror(*args, **kwargs):
    raise OSError("read-only file system")


class TestShardedLayout:
    def test_entries_live_in_two_hex_shards(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        CompilationSession(cache_dir=cache_dir).compiled_module(SOURCE)
        entries = list((tmp_path / "cache" / STORE).rglob("*.pkl"))
        assert len(entries) == 1
        entry = entries[0]
        assert entry.parent.name == entry.stem[:2]
        assert entry.parent.parent.name == "module"


class TestOpenSession:
    def test_one_session_per_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = open_session(cache_dir)
        assert session.cache_dir == cache_dir
        assert open_session(cache_dir) is session
        assert open_session(str(tmp_path / "other")) is not session
        assert open_session(None) is None


def _hammer_cache(args):
    """Worker for the concurrency test: compile both sources repeatedly."""
    cache_dir, rounds = args
    digests = set()
    for _ in range(rounds):
        session = CompilationSession(cache_dir=cache_dir)
        for source in (SOURCE, OTHER_SOURCE):
            digests.add(format_module(session.compiled_module(source)))
    return sorted(digests)


class TestCrossProcessSafety:
    def test_concurrent_processes_never_corrupt_the_store(self, tmp_path):
        import multiprocessing

        cache_dir = str(tmp_path / "cache")
        context = multiprocessing.get_context("fork")
        with context.Pool(4) as pool:
            digest_sets = pool.map(_hammer_cache, [(cache_dir, 5)] * 4)
        # Every process saw the same two modules...
        assert all(digests == digest_sets[0] for digests in digest_sets)
        assert len(digest_sets[0]) == 2
        # ...and the store they all wrote is intact and readable.
        session = CompilationSession(cache_dir=cache_dir)
        with observing(Observability.create()) as obs:
            for source in (SOURCE, OTHER_SOURCE):
                module = session.compiled_module(source)
                assert Machine(module).run().exit_code == 0
        counters = _cache_counters(obs)
        assert counters.get("disk_hits") == 2
        assert counters.get("misses") is None


class TestPreOptimizedCaching:
    def test_pass_spec_distinguishes_entries(self):
        session = CompilationSession()
        with observing(Observability.create()) as obs:
            plain = session.compiled_module(SOURCE, pass_spec="")
            optimized = session.compiled_module(
                SOURCE,
                pass_spec="constant-fold,copy-propagate,cse,jump-optimize,dead-code",
            )
        assert _cache_counters(obs)["misses"] == 2
        assert optimized.total_code_size() <= plain.total_code_size()
