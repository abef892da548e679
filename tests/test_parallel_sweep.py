"""Tests for repro.parallel: the executor and the result cache.

The properties under test are the tentpole guarantees:

* serial, parallel and cache-restored executions of the same task are
  event-digest-identical;
* the cache key covers everything that determines a result, so a warm
  cache re-run is pure lookups and a changed input is a miss;
* an interrupted campaign resumes from its completed cells.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core import ClusterConfig, TraceJob
from repro.core.engine import SimulatorEngine
from repro.parallel import (
    ResultCache,
    SchedulerSpec,
    SimTask,
    cache_key,
    default_cache_path,
    simulate_many,
)
from repro.parallel import executor
from repro.parallel.executor import _derive_seed, spec_kinds
from repro.sanitize import Sanitizer
from repro.sanitize.digest import DigestRecorder, EventDigest, trace_digest
from repro.schedulers import FIFOScheduler, make_scheduler

from conftest import make_constant_profile, make_random_profile


@pytest.fixture
def trace(rng):
    profile = make_random_profile(rng, num_maps=24, num_reduces=8)
    return [
        TraceJob(profile, 0.0, deadline=400.0),
        TraceJob(profile, 10.0),
        TraceJob(profile, 30.0, deadline=900.0),
    ]


def grid_tasks(n_schedulers=2, n_clusters=2):
    names = ["fifo", "maxedf", "minedf"][:n_schedulers]
    clusters = [ClusterConfig(16, 16), ClusterConfig(64, 64)][:n_clusters]
    return [
        SimTask(trace_id="t", scheduler=SchedulerSpec(name=name), cluster=cluster)
        for name in names
        for cluster in clusters
    ]


# --------------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------------- #

class TestResultCache:
    def run_one(self, trace):
        engine = SimulatorEngine(ClusterConfig(16, 16), FIFOScheduler())
        return engine.run(trace)

    def test_put_get_roundtrip(self, trace):
        result = self.run_one(trace)
        with ResultCache(":memory:") as cache:
            cache.put("k1", result, trace_digest="td", scheduler_id="sid")
            restored = cache.get("k1")
        assert restored is not None
        assert restored.makespan == result.makespan
        assert restored.completion_times() == result.completion_times()
        assert restored.events_processed == result.events_processed

    def test_miss_and_stats(self, trace):
        with ResultCache(":memory:") as cache:
            assert cache.get("absent") is None
            cache.put("k", self.run_one(trace))
            assert cache.get("k") is not None
            assert cache.stats.hits == 1
            assert cache.stats.misses == 1
            assert cache.stats.stores == 1
            assert cache.stats.hit_rate == 0.5

    def test_contains_delete_clear_len(self, trace):
        result = self.run_one(trace)
        with ResultCache(":memory:") as cache:
            cache.put("a", result)
            cache.put("b", result)
            assert cache.contains("a")
            assert len(cache) == 2
            assert list(cache.keys()) == ["a", "b"]
            cache.delete("a")
            assert not cache.contains("a")
            assert cache.clear() == 1
            assert len(cache) == 0

    def test_corrupt_row_is_a_miss(self, trace):
        with ResultCache(":memory:") as cache:
            cache.put("k", self.run_one(trace))
            cache._conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?", ("{not json", "k")
            )
            cache._conn.commit()
            assert cache.get("k") is None
            assert cache.stats.misses == 1
            assert not cache.contains("k")  # corrupt row was evicted

    @staticmethod
    def _filled(result):
        """A cache holding ``a`` and ``b`` (hits), ``text`` (a TEXT row
        that is not JSON) and ``blob`` (a BLOB that is not a result)."""
        cache = ResultCache(":memory:")
        for key in ("a", "b", "text", "blob"):
            cache.put(key, result)
        for key, payload in (("text", "{not json"), ("blob", b"SIMMRR\x02")):
            cache._conn.execute("UPDATE results SET payload = ? WHERE key = ?", (payload, key))
        cache._conn.commit()
        return cache

    def test_get_many_is_repeated_get(self, trace):
        result = self.run_one(trace)
        keys = ["a", "absent", "a", "text", "b", "text", "blob", "blob", "a"]
        with self._filled(result) as one_by_one, self._filled(result) as batched:
            expected = [one_by_one.get(key) for key in keys]
            got = batched.get_many(keys)
            assert got == expected
            assert [r is not None for r in got] == [1, 0, 1, 0, 1, 0, 0, 0, 1]
            assert batched.stats.to_dict() == one_by_one.stats.to_dict()
            assert (batched.stats.hits, batched.stats.misses) == (4, 5)
            assert list(batched.keys()) == list(one_by_one.keys()) == ["a", "b"]
            assert got[0] is not got[2]  # each hit is its own result, as with get
            assert batched.get_many([]) == [] and batched.stats.lookups == len(keys)

    def test_get_many_reads_in_chunks(self, trace, monkeypatch):
        from repro.parallel import cache as cache_module

        monkeypatch.setattr(cache_module, "_KEYS_PER_QUERY", 2)
        with self._filled(self.run_one(trace)) as cache:
            statements = []
            cache._conn.set_trace_callback(statements.append)
            got = cache.get_many(["a", "b", "a", "absent", "b", "x", "y"])
            cache._conn.set_trace_callback(None)
        assert [r is not None for r in got] == [True, True, True, False, True, False, False]
        assert sum(sql.startswith("SELECT") for sql in statements) == 3  # 5 distinct keys

    @pytest.mark.skipif(not hasattr(sqlite3.Connection, "setlimit"),
                        reason="Connection.setlimit is new in Python 3.11")
    def test_get_many_past_the_variable_limit(self, trace):
        keys = [f"k{i}" for i in range(2500)]
        with ResultCache(":memory:") as cache:
            cache._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
            cache.put("k1234", self.run_one(trace))
            got = cache.get_many(keys)
        assert [i for i, r in enumerate(got) if r is not None] == [1234]
        assert (cache.stats.hits, cache.stats.misses) == (1, 2499)

    def test_persists_across_connections(self, trace, tmp_path):
        path = tmp_path / "cache.sqlite"
        result = self.run_one(trace)
        with ResultCache(path) as cache:
            cache.put("k", result)
        with ResultCache(path) as cache:
            restored = cache.get("k")
        assert restored is not None
        assert restored.makespan == result.makespan

    def test_default_path_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SIMMR_CACHE_DIR", str(tmp_path / "xdg"))
        assert default_cache_path() == tmp_path / "xdg" / "results.sqlite"


class TestCacheKey:
    CONFIG = {"map_slots": 64, "reduce_slots": 64, "slowstart": 0.05}

    def test_stable(self):
        assert cache_key("td", "sid", self.CONFIG) == cache_key("td", "sid", self.CONFIG)

    def test_key_order_irrelevant(self):
        reordered = dict(reversed(list(self.CONFIG.items())))
        assert cache_key("td", "sid", self.CONFIG) == cache_key("td", "sid", reordered)

    def test_sensitive_to_every_part(self):
        base = cache_key("td", "sid", self.CONFIG)
        assert cache_key("other", "sid", self.CONFIG) != base
        assert cache_key("td", "other", self.CONFIG) != base
        assert cache_key("td", "sid", {**self.CONFIG, "slowstart": 1.0}) != base


    def test_executor_key_and_seed_are_pinned(self):
        """The executor canonicalizes each task's engine config once and
        reuses the text for the key and the seed; the bytes it hashes are
        those of the separate ``cache_key`` call it replaced (values
        recorded before that change), so existing cache rows still hit."""
        trace = [TraceJob(make_constant_profile(num_maps=2, num_reduces=1), 0.0, deadline=50.0)]
        task = SimTask("t", SchedulerSpec(kind="registry", name="fifo"), ClusterConfig(4, 2), 0.05)
        [outcome] = simulate_many({"t": trace}, [task])
        assert outcome.key == "06e589083be197c8083cd9a0e37e167b"
        assert outcome.seed == 1688417959396434421
        assert outcome.key == cache_key(
            trace_digest(trace), task.scheduler.identity(), task.engine_config()
        )


class TestTraceDigest:
    def test_stable_and_content_addressed(self, rng, trace):
        assert trace_digest(trace) == trace_digest(list(trace))
        shorter = trace[:2]
        assert trace_digest(shorter) != trace_digest(trace)
        shifted = [TraceJob(trace[0].profile, 1.0)] + list(trace[1:])
        assert trace_digest(shifted) != trace_digest(trace)


# --------------------------------------------------------------------------- #
# digest recorder
# --------------------------------------------------------------------------- #

class TestDigestRecorder:
    def test_matches_full_sanitizer_digest(self, trace):
        def run(sanitizer):
            engine = SimulatorEngine(
                ClusterConfig(16, 16), FIFOScheduler(), sanitizer=sanitizer
            )
            engine.run(trace)

        full = Sanitizer(digest=EventDigest(keep_events=False))
        run(full)
        light = DigestRecorder()
        run(light)
        assert light.hexdigest() == full.digest.hexdigest()

    def test_reset_between_runs(self, trace):
        recorder = DigestRecorder()
        engine = SimulatorEngine(
            ClusterConfig(16, 16), FIFOScheduler(), sanitizer=recorder
        )
        engine.run(trace)
        first = recorder.hexdigest()
        engine2 = SimulatorEngine(
            ClusterConfig(16, 16), FIFOScheduler(), sanitizer=recorder
        )
        engine2.run(trace)
        assert recorder.hexdigest() == first  # begin_run resets state


# --------------------------------------------------------------------------- #
# scheduler specs
# --------------------------------------------------------------------------- #

def _record_seed_resolver(name, kwargs):
    scheduler = make_scheduler("fifo")
    scheduler.received_seed = kwargs.pop("seed", None)
    return scheduler


class TestSchedulerSpec:
    def test_identity_is_stable_and_kwargs_sensitive(self):
        a = SchedulerSpec(name="minedf", kwargs=(("bound", "upper"),))
        b = SchedulerSpec(name="minedf", kwargs=(("bound", "lower"),))
        assert a.identity() == a.identity()
        assert a.identity() != b.identity()
        assert json.loads(a.identity().split(":", 2)[2]) == {"bound": "upper"}

    def test_inline_has_no_identity(self):
        spec = SchedulerSpec.inline("custom", FIFOScheduler)
        assert not spec.cacheable
        with pytest.raises(ValueError, match="no identity"):
            spec.identity()
        assert isinstance(spec.build(0), FIFOScheduler)

    def test_registry_and_zoo_kinds(self):
        assert SchedulerSpec(name="fifo").build(0).__class__.__name__ == "FIFOScheduler"
        zoo = SchedulerSpec(kind="zoo", name="Fair")
        assert zoo.build(0).__class__.__name__ == "FairScheduler"
        with pytest.raises(ValueError, match="unknown zoo policy"):
            SchedulerSpec(kind="zoo", name="nope").build(0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scheduler spec kind"):
            SchedulerSpec(kind="martian", name="x").build(0)

    def test_kind_table_is_closed(self):
        assert spec_kinds() == ("policy", "registry", "zoo")

    def test_registered_kind_receives_seed(self, trace, monkeypatch):
        monkeypatch.setitem(executor._SPEC_KINDS, "test-seeded", _record_seed_resolver)
        spec = SchedulerSpec(kind="test-seeded", name="any", seeded=True)
        scheduler = spec.build(1234)
        assert scheduler.received_seed == 1234
        unseeded = SchedulerSpec(kind="test-seeded", name="any").build(1234)
        assert unseeded.received_seed is None

    def test_derived_seed_deterministic(self):
        a = _derive_seed("td", "sid", "{}")
        assert a == _derive_seed("td", "sid", "{}")
        assert a != _derive_seed("td2", "sid", "{}")
        assert 0 <= a < 2**63


# --------------------------------------------------------------------------- #
# simulate_many: the digest-identity contract
# --------------------------------------------------------------------------- #

class TestSimulateMany:
    def test_serial_parallel_cached_identical(self, trace):
        tasks = grid_tasks()
        traces = {"t": trace}
        serial = simulate_many(traces, tasks, workers=0, cache=None)
        parallel = simulate_many(traces, tasks, workers=2, cache=None)
        with ResultCache(":memory:") as cache:
            cold = simulate_many(traces, tasks, workers=2, cache=cache)
            warm = simulate_many(traces, tasks, workers=0, cache=cache)

        digests = [o.result.event_digest for o in serial]
        assert all(d is not None for d in digests)
        for other in (parallel, cold, warm):
            assert [o.result.event_digest for o in other] == digests
        assert [o.result.makespan for o in parallel] == [
            o.result.makespan for o in serial
        ]
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)

    def test_warm_run_is_one_query(self, trace):
        tasks = grid_tasks(n_schedulers=3)
        tasks = tasks + tasks[:2]  # repeated tasks count a lookup each
        inline = SimTask("t", SchedulerSpec.inline("own", FIFOScheduler))
        with ResultCache(":memory:") as cache:
            # Every lookup comes before any run: a repeated task misses too.
            simulate_many({"t": trace}, tasks, cache=cache)
            assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 8, 8)
            statements = []
            cache._conn.set_trace_callback(statements.append)
            warm = simulate_many({"t": trace}, [*tasks, inline], cache=cache)
            cache._conn.set_trace_callback(None)
            assert (cache.stats.hits, cache.stats.misses) == (8, 8)
        assert [o.cached for o in warm] == [True] * 8 + [False]
        assert sum(sql.startswith("SELECT") for sql in statements) == 1

    def test_outcomes_in_task_order(self, trace):
        tasks = grid_tasks(n_schedulers=3)
        outcomes = simulate_many({"t": trace}, tasks, workers=2)
        assert [o.task for o in outcomes] == tasks

    def test_resume_from_partial_cache(self, trace):
        tasks = grid_tasks()
        with ResultCache(":memory:") as cache:
            simulate_many({"t": trace}, tasks[:2], cache=cache)
            assert len(cache) == 2
            # "Interrupted" after two cells: the re-run of the full grid
            # only executes the remaining cells.
            outcomes = simulate_many({"t": trace}, tasks, cache=cache)
            assert [o.cached for o in outcomes] == [True, True, False, False]
            assert cache.stats.hits == 2
            assert len(cache) == 4

    def test_fresh_reexecutes_but_stores(self, trace):
        tasks = grid_tasks()
        with ResultCache(":memory:") as cache:
            first = simulate_many({"t": trace}, tasks, cache=cache)
            refreshed = simulate_many({"t": trace}, tasks, cache=cache, fresh=True)
            assert all(not o.cached for o in refreshed)
            assert cache.stats.stores == 2 * len(tasks)
        assert [o.result.event_digest for o in refreshed] == [
            o.result.event_digest for o in first
        ]

    def test_changed_trace_misses(self, trace, rng):
        task = grid_tasks(n_schedulers=1, n_clusters=1)
        with ResultCache(":memory:") as cache:
            simulate_many({"t": trace}, task, cache=cache)
            other = [TraceJob(make_constant_profile(), 0.0)]
            outcomes = simulate_many({"t": other}, task, cache=cache)
            assert not outcomes[0].cached

    def test_inline_tasks_run_uncached(self, trace):
        tasks = grid_tasks() + [
            SimTask(trace_id="t", scheduler=SchedulerSpec.inline("adhoc", FIFOScheduler))
        ]
        with ResultCache(":memory:") as cache:
            outcomes = simulate_many({"t": trace}, tasks, workers=2, cache=cache)
            assert outcomes[-1].key is None
            assert len(cache) == len(tasks) - 1
            again = simulate_many({"t": trace}, tasks, cache=cache)
            assert [o.cached for o in again] == [True] * (len(tasks) - 1) + [False]

    def test_progress_callback(self, trace):
        seen = []
        tasks = grid_tasks()
        simulate_many(
            {"t": trace}, tasks, workers=2,
            progress=lambda done, total, outcome: seen.append((done, total)),
        )
        assert seen == [(i + 1, len(tasks)) for i in range(len(tasks))]

    def test_unknown_trace_id(self, trace):
        with pytest.raises(ValueError, match="unknown trace_id"):
            simulate_many({"t": trace}, [SimTask(trace_id="nope", scheduler=SchedulerSpec())])

    def test_no_digest_mode(self, trace):
        outcomes = simulate_many(
            {"t": trace}, grid_tasks(n_schedulers=1, n_clusters=1), digest=False
        )
        assert outcomes[0].result.event_digest is None


# --------------------------------------------------------------------------- #
# resource-safety regressions (the simlint CONC/RES findings fixed in
# cache.py / executor.py — each fix must preserve digest identity)
# --------------------------------------------------------------------------- #

class TestResourceSafetyRegressions:
    def _digest_of(self, trace):
        [outcome] = simulate_many(
            {"t": trace}, grid_tasks(n_schedulers=1, n_clusters=1), cache=None
        )
        return outcome

    def test_publish_failure_cleans_up_earlier_spill_files(self, trace, monkeypatch):
        """Failing to pack trace N must not strand spill files already
        published for earlier traces (RES003 fix in _PublishedTraces)."""
        import os
        import tempfile as _tempfile

        from repro.parallel import executor as ex
        from repro.trace import binfmt

        created = []
        real_mkstemp = _tempfile.mkstemp

        def recording_mkstemp(*args, **kwargs):
            fd, path = real_mkstemp(*args, **kwargs)
            created.append(path)
            return fd, path

        monkeypatch.setattr(_tempfile, "mkstemp", recording_mkstemp)
        real_pack = binfmt.pack_columns
        calls = {"n": 0}

        def failing_pack(columns, digest):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return real_pack(columns, digest)

        monkeypatch.setattr(binfmt, "pack_columns", failing_pack)
        digest = trace_digest(trace)
        with pytest.raises(OSError, match="disk full"):
            ex._PublishedTraces(
                {"a": trace, "b": trace}, {"a": digest, "b": digest}, 2
            )
        assert created, "first trace should have been written to a spill file"
        assert all(not os.path.exists(p) for p in created)

    def test_legacy_schema_migrates_and_preserves_digest(self, trace, tmp_path):
        """Opening a pre-``created_at`` cache file migrates it in place
        (now under the instance lock — CONC003 fix in _migrate) and a
        restored result keeps its event digest bit-for-bit."""
        import sqlite3

        path = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE results ("
            " key TEXT PRIMARY KEY, trace_digest TEXT NOT NULL,"
            " scheduler TEXT NOT NULL, config TEXT NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        conn.commit()
        conn.close()

        fresh = self._digest_of(trace)
        assert fresh.result.event_digest is not None
        with ResultCache(path) as cache:
            cache.put(fresh.key, fresh.result)
            restored = cache.get(fresh.key)
        assert restored is not None
        assert restored.event_digest == fresh.result.event_digest

    def test_migrate_is_safe_under_concurrent_use(self, trace, tmp_path):
        """_migrate takes the (reentrant) lock itself, so it can run
        while other threads are mid-operation without corruption."""
        import threading

        fresh = self._digest_of(trace)
        with ResultCache(tmp_path / "cache.sqlite") as cache:
            errors = []

            def hammer():
                try:
                    for i in range(10):
                        cache._migrate()
                        cache.put(f"k{i}", fresh.result)
                        cache.get(f"k{i}")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            restored = cache.get("k0")
        assert restored is not None
        assert restored.event_digest == fresh.result.event_digest

    def test_clear_and_prune_close_their_cursors(self, trace):
        """clear/prune read rowcount then close the cursor (RES002 fix)
        — the reported counts stay exact."""
        result = SimulatorEngine(ClusterConfig(16, 16), FIFOScheduler()).run(trace)
        with ResultCache(":memory:") as cache:
            for i in range(3):
                cache.put(f"k{i}", result)
            assert cache.prune_older_than(10_000) == 0
            assert cache.clear() == 3
            assert len(cache) == 0
