"""Columnar storage, the binary trace format, and zero-copy fan-out.

The correctness contract of the whole columnar/binary subsystem is a
single sentence: *every representation of a trace is the same trace* —
same ``trace_digest``, bit-for-bit identical durations, and identical
``event_digest`` when replayed.  These tests pin that sentence across
JSON ↔ binary ↔ columnar ↔ sqlite round-trips, the executor's
spill-file fan-out, the service's trace cache, and the error paths of the
binary parser.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import TraceColumns, TraceJob
from repro.core.columns import columns_from_trace, trace_from_columns
from repro.parallel.executor import (
    SchedulerSpec,
    SimTask,
    last_fanout_stats,
    simulate_many,
)
from repro.sanitize.digest import trace_digest
from repro.service.tracecache import TraceCache
from repro.trace.binfmt import (
    BINARY_MAGIC,
    BINARY_VERSION,
    is_binary_trace_file,
    is_packed,
    load_columns,
    load_trace_auto,
    load_trace_bin,
    pack_trace,
    packed_digest,
    save_trace_bin,
    unpack_columns,
)
from repro.trace.database import TraceDatabase
from repro.trace.schema import load_trace, save_trace

from conftest import make_constant_profile, make_random_profile


def make_trace(rng, jobs=6, *, deadlines=True, depends=True, dedup=True):
    """A trace exercising every encoding edge the formats must carry."""
    trace = []
    shared = make_random_profile(rng, name="shared", num_maps=12, num_reduces=6)
    for i in range(jobs):
        if dedup and i % 3 == 0:
            profile = shared  # byte-identical vectors -> dedup path
        elif i % 3 == 1:
            profile = make_constant_profile(name=f"const{i}", num_maps=4, num_reduces=2)
        else:
            profile = make_random_profile(rng, name=f"rand{i}", num_maps=7, num_reduces=3)
        trace.append(
            TraceJob(
                profile=profile,
                submit_time=float(i) * 7.5,
                deadline=(float(i) * 7.5 + 500.0) if deadlines and i % 2 else None,
                depends_on=(i - 1) if depends and i % 4 == 3 else None,
            )
        )
    return trace


def assert_same_trace(a, b):
    """Bit-for-bit equality of everything the digest (and engine) sees."""
    assert trace_digest(a) == trace_digest(b)
    assert len(a) == len(b)
    for ja, jb in zip(a, b):
        assert ja.submit_time == jb.submit_time
        assert ja.deadline == jb.deadline
        assert ja.depends_on == jb.depends_on
        pa, pb = ja.profile, jb.profile
        assert (pa.name, pa.num_maps, pa.num_reduces) == (pb.name, pb.num_maps, pb.num_reduces)
        for phase in ("map", "first_shuffle", "typical_shuffle", "reduce"):
            va = getattr(pa, f"{phase}_durations")
            vb = getattr(pb, f"{phase}_durations")
            assert va.tobytes() == vb.tobytes()  # bit-for-bit, incl. NaN-safe


# --------------------------------------------------------------------------- #
# columnar storage
# --------------------------------------------------------------------------- #

class TestColumns:
    def test_round_trip_preserves_digest_and_bits(self, rng):
        trace = make_trace(rng)
        rebuilt = trace_from_columns(columns_from_trace(trace))
        assert_same_trace(trace, rebuilt)

    def test_views_share_one_buffer(self, rng):
        trace = make_trace(rng, dedup=True)
        columns = columns_from_trace(trace)
        jobs = columns.jobs()
        # Jobs 0 and 3 reuse the same profile: their views must alias
        # the same float64 span, not hold copies.
        a = jobs[0].profile.map_durations
        b = jobs[3].profile.map_durations
        assert np.shares_memory(a, b)
        assert not a.flags.writeable  # JobProfile's immutability holds

    def test_dedup_stores_identical_vectors_once(self, rng):
        trace = make_trace(rng, jobs=9, dedup=True)
        deduped = columns_from_trace(trace)
        total = sum(
            getattr(j.profile, f"{p}_durations").size
            for j in trace
            for p in ("map", "first_shuffle", "typical_shuffle", "reduce")
        )
        assert deduped.total_durations < total

    def test_none_deadline_and_dependency_encodings(self):
        profile = make_constant_profile()
        trace = [
            TraceJob(profile, 0.0, deadline=None, depends_on=None),
            TraceJob(profile, 1.0, deadline=50.0, depends_on=0),
        ]
        columns = columns_from_trace(trace)
        assert math.isnan(columns.deadlines[0]) and columns.depends_on[0] == -1
        rebuilt = columns.jobs()
        assert rebuilt[0].deadline is None and rebuilt[0].depends_on is None
        assert rebuilt[1].deadline == 50.0 and rebuilt[1].depends_on == 0

    def test_engine_accepts_columnar_views(self, rng, cluster64):
        from repro.core import simulate
        from repro.schedulers import make_scheduler

        trace = make_trace(rng, depends=False)
        direct = simulate(trace, make_scheduler("fifo"), cluster64)
        viewed = simulate(
            trace_from_columns(columns_from_trace(trace)),
            make_scheduler("fifo"),
            cluster64,
        )
        assert viewed.makespan == direct.makespan
        assert viewed.events_processed == direct.events_processed

    def test_column_length_mismatch_rejected(self, rng):
        columns = columns_from_trace(make_trace(rng, jobs=2))
        with pytest.raises(ValueError, match="lengths disagree"):
            TraceColumns(
                names=columns.names + ("extra",),
                submit_times=columns.submit_times,
                deadlines=columns.deadlines,
                depends_on=columns.depends_on,
                num_maps=columns.num_maps,
                num_reduces=columns.num_reduces,
                spans=columns.spans,
                data=columns.data,
            )


# --------------------------------------------------------------------------- #
# the binary format
# --------------------------------------------------------------------------- #

class TestBinaryFormat:
    def test_pack_unpack_round_trip(self, rng):
        trace = make_trace(rng)
        payload = pack_trace(trace)
        assert is_packed(payload)
        assert packed_digest(payload) == trace_digest(trace)
        columns, digest = unpack_columns(payload)
        assert digest == trace_digest(trace)
        assert_same_trace(trace, columns.jobs())

    def test_packing_is_deterministic(self, rng):
        trace = make_trace(rng)
        assert pack_trace(trace) == pack_trace(trace)

    def test_file_round_trip_mmap_and_read(self, rng, tmp_path):
        trace = make_trace(rng)
        path = tmp_path / "t.simmr"
        nbytes = save_trace_bin(trace, path)
        assert path.stat().st_size == nbytes
        assert is_binary_trace_file(path)
        assert_same_trace(trace, load_trace_bin(path))
        read, _ = unpack_columns(path.read_bytes())
        assert_same_trace(trace, read.jobs())
        columns, digest = load_columns(path)
        assert digest == trace_digest(trace)

    def test_load_trace_auto_sniffs_both_formats(self, rng, tmp_path):
        trace = make_trace(rng)
        save_trace(trace, tmp_path / "t.json")
        save_trace_bin(trace, tmp_path / "t.simmr")
        assert_same_trace(
            load_trace_auto(tmp_path / "t.json"),
            load_trace_auto(tmp_path / "t.simmr"),
        )

    def test_json_binary_columnar_sqlite_cycle(self, rng, tmp_path):
        # The full satellite tour: JSON -> binary -> columnar -> sqlite.
        # The TraceDatabase leg does not persist depends_on, so run it
        # on a dependency-free trace.
        trace = make_trace(rng, depends=False)
        digest = trace_digest(trace)

        save_trace(trace, tmp_path / "t.json")
        from_json = load_trace(tmp_path / "t.json")
        assert trace_digest(from_json) == digest

        save_trace_bin(from_json, tmp_path / "t.simmr")
        from_bin = load_trace_bin(tmp_path / "t.simmr")
        assert trace_digest(from_bin) == digest

        columns = columns_from_trace(from_bin)
        from_columns = columns.jobs()
        assert trace_digest(from_columns) == digest

        with TraceDatabase(tmp_path / "t.sqlite") as db:
            db.save_trace("t", from_columns)
            from_db = db.load_trace("t")
        assert_same_trace(trace, from_db)

    def test_bad_magic_rejected(self, rng):
        payload = bytearray(pack_trace(make_trace(rng, jobs=2)))
        payload[:8] = b"NOTSIMMR"
        with pytest.raises(ValueError, match="bad magic"):
            unpack_columns(bytes(payload))

    def test_unknown_version_rejected(self, rng):
        payload = bytearray(pack_trace(make_trace(rng, jobs=2)))
        payload[8:10] = (BINARY_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version"):
            unpack_columns(bytes(payload))

    @pytest.mark.parametrize("retired", [1, 2])
    def test_retired_version_refused_with_repack_hint(self, rng, retired):
        # Their headers hold digests of retired layouts; version 2's hashed
        # every duration instead of each profile's digest.
        payload = bytearray(pack_trace(make_trace(rng, jobs=2)))
        payload[8:10] = retired.to_bytes(2, "little")
        with pytest.raises(ValueError, match=(
            f"version {retired} carries a retired trace digest; "
            "re-pack it from its JSON trace"
        )):
            unpack_columns(bytes(payload))

    def test_truncation_rejected(self, rng):
        payload = pack_trace(make_trace(rng, jobs=2))
        with pytest.raises(ValueError, match="truncated"):
            unpack_columns(payload[: len(payload) // 2])
        with pytest.raises(ValueError, match="truncated"):
            unpack_columns(payload[:20])

    def test_malformed_digest_rejected(self, rng):
        payload = bytearray(pack_trace(make_trace(rng, jobs=2)))
        payload[40:72] = b"z" * 32  # not hex
        with pytest.raises(ValueError, match="digest"):
            unpack_columns(bytes(payload))

    def test_is_binary_trace_file_on_json_and_missing(self, rng, tmp_path):
        save_trace(make_trace(rng, jobs=2), tmp_path / "t.json")
        assert not is_binary_trace_file(tmp_path / "t.json")
        assert not is_binary_trace_file(tmp_path / "nope.simmr")
        assert BINARY_MAGIC == b"SIMMRBIN"


# --------------------------------------------------------------------------- #
# executor fan-out through spill files
# --------------------------------------------------------------------------- #

class TestTransports:
    @pytest.fixture
    def sweep(self, rng):
        trace = make_trace(rng, depends=False)
        tasks = [
            SimTask(trace_id="t", scheduler=SchedulerSpec(name=name))
            for name in ("fifo", "minedf", "maxedf", "fair")
        ]
        return {"t": trace}, tasks

    def _serial_digests(self, traces, tasks):
        reference = [
            o.result.event_digest
            for o in simulate_many(traces, tasks, workers=0, cache=None)
        ]
        assert all(reference)
        return reference

    def test_pool_digests_identical_to_serial(self, sweep):
        traces, tasks = sweep
        reference = self._serial_digests(traces, tasks)
        pooled = simulate_many(traces, tasks, workers=2, cache=None)
        assert [o.result.event_digest for o in pooled] == reference

    def test_shared_transports_ship_o1_bytes(self, sweep):
        import pickle

        traces, tasks = sweep
        simulate_many(traces, tasks, workers=2, cache=None)
        stats = last_fanout_stats()
        # The trace is written once; per-worker bytes are just the spill
        # file paths — orders of magnitude below the pickled job list
        # each worker would otherwise receive.
        assert stats.traces == 1 and stats.workers == 2
        assert stats.bytes_per_worker < len(pickle.dumps(list(traces["t"]))) / 10

    def test_no_shared_storage_leaks(self, sweep, spill_files):
        import os

        traces, tasks = sweep
        simulate_many(traces, tasks, workers=2, cache=None)
        assert len(spill_files) == 1
        assert not os.path.exists(spill_files[0])

    def test_spawn_workers_digest_identical_and_leave_no_spill_file(
        self, sweep, spill_files, monkeypatch
    ):
        """A spawned worker runs fresh imports and its own resource
        tracker; the fan-out must not depend on inheriting the parent."""
        import multiprocessing
        import os

        from repro.parallel import executor

        real_get_context = multiprocessing.get_context
        contexts = []

        def spawn_context(method=None):
            contexts.append(real_get_context("spawn"))
            return contexts[-1]

        monkeypatch.setattr(executor.multiprocessing, "get_context", spawn_context)
        traces, tasks = sweep
        reference = self._serial_digests(traces, tasks)
        pooled = simulate_many(traces, tasks, workers=2, cache=None)
        assert [c.get_start_method() for c in contexts] == ["spawn"]
        assert [o.result.event_digest for o in pooled] == reference
        assert len(spill_files) == 1
        assert not os.path.exists(spill_files[0])


# --------------------------------------------------------------------------- #
# the service trace cache
# --------------------------------------------------------------------------- #

class TestTraceCache:
    def test_hit_serves_same_objects_and_digest(self, rng, tmp_path):
        trace = make_trace(rng)
        save_trace(trace, tmp_path / "t.json")
        cache = TraceCache(4)
        first, digest1 = cache.load(tmp_path / "t.json")
        second, digest2 = cache.load(tmp_path / "t.json")
        assert second is first and digest2 == digest1 == trace_digest(trace)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_binary_and_json_agree(self, rng, tmp_path):
        trace = make_trace(rng)
        save_trace(trace, tmp_path / "t.json")
        save_trace_bin(trace, tmp_path / "t.simmr")
        cache = TraceCache(4)
        from_json, digest_json = cache.load(tmp_path / "t.json")
        from_bin, digest_bin = cache.load(tmp_path / "t.simmr")
        assert digest_json == digest_bin
        assert_same_trace(list(from_json), list(from_bin))

    def test_mtime_change_invalidates(self, rng, tmp_path):
        import os

        trace = make_trace(rng, jobs=3)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        cache = TraceCache(4)
        _, old_digest = cache.load(path)
        save_trace(make_trace(rng, jobs=5), path)
        os.utime(path, ns=(1, 1))  # force a distinct mtime_ns
        reloaded, new_digest = cache.load(path)
        assert len(reloaded) == 5 and new_digest != old_digest

    def test_lru_eviction(self, rng, tmp_path):
        cache = TraceCache(2)
        paths = []
        for i in range(3):
            path = tmp_path / f"t{i}.json"
            save_trace(make_trace(rng, jobs=2), path)
            paths.append(path)
            cache.load(path)
        assert len(cache) == 2
        assert paths[0] not in cache and paths[2] in cache
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self, rng, tmp_path):
        path = tmp_path / "t.json"
        save_trace(make_trace(rng, jobs=2), path)
        cache = TraceCache(0)
        cache.load(path)
        cache.load(path)
        assert len(cache) == 0
        assert cache.stats().misses == 2

    def test_digest_entries_share_the_capacity(self, rng, tmp_path):
        path = tmp_path / "t.json"
        save_trace(make_trace(rng, jobs=2), path)
        held = tuple(make_trace(rng, jobs=3))
        cache = TraceCache(2)
        cache.load(path)
        assert cache.lookup("0" * 32) is None
        cache.remember(held, "a" * 32)
        cache.remember(held, "b" * 32)
        assert path not in cache and len(cache) == 2
        assert cache.lookup("a" * 32) is held
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 1)

    def test_zero_capacity_remembers_nothing(self, rng):
        cache = TraceCache(0)
        cache.remember(tuple(make_trace(rng, jobs=2)), "a" * 32)
        assert cache.lookup("a" * 32) is None and len(cache) == 0

    def test_concurrent_remember_and_lookup_keep_the_books(self, rng):
        """Handler threads share one cache: no count or bound is lost."""
        import sys
        import threading

        held = tuple(make_trace(rng, jobs=2))
        cache = TraceCache(5)
        threads, rounds, keys = 8, 10000, 7
        errors: list[BaseException] = []

        def client(t: int) -> None:
            try:
                for i in range(rounds):
                    # More digests than places, shared by every thread.
                    digest = f"{(t + i) % keys:032x}"
                    cache.remember(held, digest)
                    found = cache.lookup(digest)
                    assert found is None or found is held
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == threads * rounds
        assert stats.entries == len(cache) == 5

    def test_service_end_to_end_binary_trace_path(self, rng, tmp_path):
        """A served binary trace replays digest-identical to a local run."""
        from repro.core import ClusterConfig
        from repro.service import ServiceClient, ServiceConfig, SimulationServer

        trace = make_trace(rng, depends=False)
        save_trace_bin(trace, tmp_path / "t.simmr")
        [local] = simulate_many(
            {"t": trace},
            [SimTask(trace_id="t", scheduler=SchedulerSpec(name="fifo"))],
            cache=None,
        )
        config = ServiceConfig(
            port=0, workers=1, trace_root=tmp_path, cache=False
        )
        with SimulationServer(config) as server:
            server.start()
            client = ServiceClient(server.url)
            replies = [
                client.replay(
                    trace_path="t.simmr",
                    scheduler="fifo",
                    cluster=ClusterConfig(64, 64),
                )
                for _ in range(2)
            ]
            trace_stats = server.trace_cache.stats()
        assert [r.event_digest for r in replies] == [local.result.event_digest] * 2
        # Second request must have been served from the parsed-trace LRU.
        assert trace_stats.hits >= 1 and trace_stats.misses == 1
