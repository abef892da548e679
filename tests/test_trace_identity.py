"""Trace identity: one digest per logical trace, checked on every load.

``trace_digest`` hashes a canonical byte layout of the jobs, not JSON
text.  These tests pin what that identity promises:

* two traces digest equally iff their canonical JSON documents are the
  same text (generated traces with ``-0.0`` durations, deduplicated
  vectors, empty shuffle vectors, unicode names, optional deadlines and
  dependencies);
* the digest does not depend on where the durations live: job objects,
  ``TraceColumns`` views, a ``.simmr`` file read or ``mmap``-ed, and the
  executor's shared-memory segment all give one digest;
* a trace's digest survives the service's wire, ``trace_to_dict`` ->
  JSON text -> ``trace_from_dict`` (a client names a trace by the
  digest it computes, and the server holds it under the digest of what
  it parsed, so a difference would make every reference miss);
* a fixed small trace has a pinned hex digest, so the layout cannot
  drift silently;
* each profile digests its durations once: a trace digests as the same
  trace rebuilt from fresh array copies, and a repeat digest (a second
  ``trace_digest``, a fresh service client's reference) reads no
  duration;
* a ``.simmr`` whose content disagrees with its header is rejected on
  every load path, and version-1 and version-2 files are refused;
* non-finite deadlines are rejected with one message naming
  ``deadline`` at ``TraceJob``, ``trace_from_dict`` and ``/simulate``;
* result-cache keys are salted so rows keyed on retired digests miss.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, JobProfile, TraceColumns, TraceJob, simulate
from repro.parallel import cache as cache_module
from repro.parallel import executor
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.executor import SchedulerSpec, SimTask, simulate_many
from repro.sanitize.digest import trace_digest
from repro.schedulers import make_scheduler
from repro.core import job as job_module
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    SimulationServer,
    parse_request,
    request_document,
)
from repro.service.tracecache import TraceCache
from repro.trace import binfmt
from repro.trace.binfmt import (
    load_columns,
    load_trace_auto,
    load_trace_bin,
    pack_trace,
    save_trace_bin,
    unpack_columns,
)
from repro.trace.schema import trace_from_dict, trace_to_dict

MISMATCH = "header digest does not match content"


def canonical_text(trace) -> str:
    return json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))


def profile(name, maps, first, typical, reduce, *, num_maps=None, num_reduces=None):
    return JobProfile(
        name=name,
        num_maps=len(maps) if num_maps is None else num_maps,
        num_reduces=len(reduce) if num_reduces is None else num_reduces,
        map_durations=np.array(maps, dtype=np.float64),
        first_shuffle_durations=np.array(first, dtype=np.float64),
        typical_shuffle_durations=np.array(typical, dtype=np.float64),
        reduce_durations=np.array(reduce, dtype=np.float64),
    )


def golden_trace() -> list[TraceJob]:
    """Two small jobs covering every field of the layout."""
    return [
        TraceJob(profile("wc", [1.0, 2.5], [0.5], [0.75], [3.0]), 0.0, deadline=40.0),
        TraceJob(profile("sört", [-0.0, 4.0], [], [1.25], [2.0, 2.0]), 5.0, depends_on=0),
    ]


#: trace_digest(golden_trace()); changing the byte layout moves it.
#: Re-pinned when per-job profile digests replaced the raw durations.
GOLDEN_DIGEST = "2c93dc924a2840509a9f5d3f206a8532"


def rich_trace() -> list[TraceJob]:
    """Deduplicated vectors, an empty shuffle vector, both encodings."""
    shared = [3.0, 1.0, -0.0, 7.5]
    return [
        TraceJob(profile("a", shared, shared[:1], [], shared), 0.0),
        TraceJob(profile("b", shared, [], shared, [2.0]), 1.0, deadline=90.0),
        TraceJob(profile("a", [9.0] * 6, [1.0], [1.0], [1.0]), 2.0, depends_on=1),
        TraceJob(profile("map-only", shared, [], [], [], num_reduces=0), 3.0),
    ]


# --------------------------------------------------------------------------- #
# generated traces: digest equality is canonical-JSON text equality
# --------------------------------------------------------------------------- #

# A narrow value pool so generated traces collide, plus free floats.
durations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
vectors = st.lists(durations, min_size=1, max_size=4)
# Multi-byte UTF-8 and a lone surrogate (JSON carries one, so must the
# digest), plus any other character.
names = st.text(st.one_of(st.sampled_from("aé€\ud800"), st.characters()), max_size=3)


@st.composite
def traces(draw):
    pool = draw(st.lists(vectors, min_size=1, max_size=3))
    vector = st.one_of(st.sampled_from(pool), vectors)  # reuse -> dedup
    jobs = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        num_reduces = draw(st.integers(min_value=0, max_value=3))
        if num_reduces:
            first = draw(st.one_of(st.just([]), vector))
            typical = draw(vector) if not first else draw(st.one_of(st.just([]), vector))
            reduce = draw(vector)
        else:
            first = typical = reduce = []
        maps = draw(vector)
        submit = draw(st.sampled_from([0.0, -0.0, 1.0, 12.5]))
        deadline = draw(st.one_of(st.none(), st.sampled_from([0.0, 3.0])))
        jobs.append(
            TraceJob(
                profile(
                    draw(names), maps, first, typical, reduce,
                    num_maps=draw(st.integers(min_value=1, max_value=5)),
                    num_reduces=num_reduces,
                ),
                submit,
                deadline=None if deadline is None else submit + deadline,
                # Edges point backward only, so every trace is acyclic.
                depends_on=draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
            )
        )
    return jobs


# Any finite non-negative value: zeros of both signs, subnormals, the
# float maximum.
wire_durations = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
wire_vectors = st.lists(wire_durations, min_size=1, max_size=3)


@st.composite
def wire_traces(draw):
    """Traces as a service client may send them: deadlines, dependency
    chains, map-less and reduce-less jobs and zero durations."""
    chain = draw(st.booleans())
    jobs = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        shape = draw(st.sampled_from(["both", "map-less", "reduce-less"]))
        maps = [] if shape == "map-less" else draw(wire_vectors)
        if shape == "reduce-less":
            first = typical = reduce = []
        else:
            first = draw(st.one_of(st.just([]), wire_vectors))
            typical = draw(wire_vectors) if not first else draw(
                st.one_of(st.just([]), wire_vectors))
            reduce = draw(wire_vectors)
        submit = draw(st.one_of(st.sampled_from([0, 0.0, -0.0]), wire_durations))
        deadline = draw(st.one_of(st.none(), st.floats(
            min_value=float(submit), allow_nan=False, allow_infinity=False)))
        if chain:
            depends_on = i - 1 if i else None
        else:
            depends_on = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        jobs.append(
            TraceJob(
                profile(
                    draw(names), maps, first, typical, reduce,
                    num_maps=0 if shape == "map-less" else draw(st.integers(1, 2**40)),
                    num_reduces=0 if shape == "reduce-less" else draw(st.integers(1, 9)),
                ),
                submit,
                deadline=deadline,
                depends_on=depends_on,
            )
        )
    return jobs


def _mutate(doc, kind, index):
    """Edit one field of a trace document (or none); may be a no-op."""
    jobs = doc["jobs"]
    job = jobs[index % len(jobs)]
    prof = job["profile"]
    if kind == "flip-zero-sign":
        for key in ("map_durations", "reduce_durations"):
            vec = prof[key]
            for k, value in enumerate(vec):
                if value == 0.0:
                    vec[k] = math.copysign(0.0, -math.copysign(1.0, value))
                    return doc
    elif kind == "move-boundary" and len(prof["map_durations"]) > 1:
        # Same flat duration sequence, different phase split.
        prof["first_shuffle_durations"].insert(0, prof["map_durations"].pop())
    elif kind == "toggle-deadline":
        job["deadline"] = job["submit_time"] if job["deadline"] is None else None
    elif kind == "toggle-dependency":
        # Job 0 has no earlier job to depend on.
        job["depends_on"] = 0 if job["depends_on"] is None and job is not jobs[0] else None
    elif kind == "move-name-char":
        # Same concatenated names, different split between two jobs.
        for this, nxt in zip(jobs, jobs[1:]):
            this, nxt = this["profile"], nxt["profile"]
            if this["name"]:
                nxt["name"] = this["name"][-1] + nxt["name"]
                this["name"] = this["name"][:-1]
                return doc
    elif kind == "swap-jobs" and len(jobs) > 1:
        # Edges are indices: the swapped pair drops theirs so no edge
        # points at its own job or closes a cycle.
        jobs[0], jobs[-1] = jobs[-1], jobs[0]
        jobs[0]["depends_on"] = jobs[-1]["depends_on"] = None
    elif kind == "bump-num-maps":
        prof["num_maps"] += 1
    return doc


MUTATIONS = [
    "none", "flip-zero-sign", "move-boundary", "toggle-deadline",
    "toggle-dependency", "move-name-char", "swap-jobs", "bump-num-maps",
]


class TestDigestIsCanonicalText:
    @settings(max_examples=150, deadline=None)
    @given(
        a=traces(),
        kind=st.sampled_from(MUTATIONS),
        index=st.integers(min_value=0, max_value=3),
        other=traces(),
        independent=st.booleans(),
    )
    def test_digest_equal_iff_canonical_text_equal(self, a, kind, index, other, independent):
        if independent:
            b = other
        else:
            b = trace_from_dict(_mutate(json.loads(canonical_text(a)), kind, index))
        same_text = canonical_text(a) == canonical_text(b)
        assert (trace_digest(a) == trace_digest(b)) == same_text

    @settings(max_examples=60, deadline=None)
    @given(trace=traces())
    def test_digest_ignores_dedup_and_buffer(self, trace):
        digest = trace_digest(trace)
        assert trace_digest(TraceColumns.from_trace(trace).jobs()) == digest
        columns, header = unpack_columns(pack_trace(trace))
        assert header == digest
        assert trace_digest(columns.jobs()) == digest

    def test_negative_zero_duration_is_its_own_trace(self):
        plus = [TraceJob(profile("z", [0.0], [], [], [], num_reduces=0), 0.0)]
        minus = [TraceJob(profile("z", [-0.0], [], [], [], num_reduces=0), 0.0)]
        assert canonical_text(plus) != canonical_text(minus)
        assert trace_digest(plus) != trace_digest(minus)

    def test_int_and_float_times_are_one_trace(self):
        prof = profile("p", [1.0], [], [], [], num_reduces=0)
        as_int = [TraceJob(prof, 0, deadline=10)]
        as_float = [TraceJob(prof, 0.0, deadline=10.0)]
        assert type(as_int[0].submit_time) is float and type(as_int[0].deadline) is float
        assert trace_digest(as_int) == trace_digest(as_float)

    def test_golden_digest(self):
        assert trace_digest(golden_trace()) == GOLDEN_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(trace=wire_traces())
    def test_digest_survives_the_json_wire(self, trace):
        wire = json.loads(json.dumps(trace_to_dict(trace)))
        assert trace_digest(trace_from_dict(wire)) == trace_digest(trace)


# --------------------------------------------------------------------------- #
# per-profile digests, computed once
# --------------------------------------------------------------------------- #

def fresh_copy(trace) -> list[TraceJob]:
    """The same trace with every profile and array built anew."""
    return [
        TraceJob(
            JobProfile(
                name=tj.profile.name,
                num_maps=tj.profile.num_maps,
                num_reduces=tj.profile.num_reduces,
                map_durations=tj.profile.map_durations.copy(),
                first_shuffle_durations=tj.profile.first_shuffle_durations.copy(),
                typical_shuffle_durations=tj.profile.typical_shuffle_durations.copy(),
                reduce_durations=tj.profile.reduce_durations.copy(),
            ),
            tj.submit_time,
            deadline=tj.deadline,
            depends_on=tj.depends_on,
        )
        for tj in trace
    ]


@pytest.fixture
def profile_digests(monkeypatch):
    """One entry per profile digest computed while the test runs."""
    calls: list[int] = []
    real = job_module._phases_digest

    def counting(phases):
        calls.append(len(phases))
        return real(phases)

    monkeypatch.setattr(job_module, "_phases_digest", counting)
    return calls


class TestProfileDigestComputedOnce:
    @settings(max_examples=100, deadline=None)
    @given(trace=traces())
    def test_cached_digest_equals_digest_of_fresh_copies(self, trace):
        digest = trace_digest(trace)
        assert trace_digest(trace) == digest
        copy = fresh_copy(trace)
        assert trace_digest(copy) == digest
        for a, b in zip(trace, copy):
            assert a.profile.durations_digest == b.profile.durations_digest

    def test_repeat_digest_reads_no_duration(self, profile_digests):
        trace = rich_trace()
        digest = trace_digest(trace)
        assert len(profile_digests) == len(trace)
        del profile_digests[:]
        assert trace_digest(trace) == digest
        assert profile_digests == []

    def test_fresh_client_on_a_digested_trace_reads_no_duration(
        self, tmp_path, profile_digests
    ):
        trace = rich_trace()
        config = ServiceConfig(port=0, workers=1, cache=tmp_path / "s.sqlite")
        with SimulationServer(config).start() as server:
            first = ServiceClient(server.url, timeout=60.0).replay(trace)
            del profile_digests[:]
            again = ServiceClient(server.url, timeout=60.0).replay(trace)
        assert not first.cached and again.cached
        assert again.event_digest == first.event_digest
        assert profile_digests == []


# --------------------------------------------------------------------------- #
# one digest on every representation
# --------------------------------------------------------------------------- #

class TestOneDigestEverywhere:
    def test_jobs_columns_and_files(self, tmp_path):
        trace = rich_trace()
        digest = trace_digest(trace)
        assert trace_digest(TraceColumns.from_trace(trace).jobs()) == digest
        path = tmp_path / "t.simmr"
        save_trace_bin(trace, path)
        columns, header = load_columns(path)
        assert header == digest
        assert trace_digest(columns.jobs()) == digest

    def test_pool_fanout_digests_each_trace_once(self, monkeypatch):
        """The parent packs under the digest it keyed the cache with."""
        from repro.sanitize import digest as digest_module

        calls = []

        def counting(trace):
            calls.append(len(trace))
            return trace_digest(trace)

        monkeypatch.setattr(executor, "trace_digest", counting)
        monkeypatch.setattr(digest_module, "trace_digest", counting)
        tasks = [
            SimTask(trace_id="t", scheduler=SchedulerSpec(name=name))
            for name in ("fifo", "maxedf")
        ]
        simulate_many({"t": rich_trace()}, tasks, workers=2, cache=None)
        assert calls == [4]

    def test_executor_spill_file(self, monkeypatch):
        trace = rich_trace()
        digest = trace_digest(trace)
        monkeypatch.setattr(executor, "_WORKER_OWNERS", [])
        with executor._PublishedTraces({"t": trace}, {"t": digest}, 2) as published:
            attached = executor._attach_file(published.sources["t"])
            assert trace_digest(attached) == digest


# --------------------------------------------------------------------------- #
# corrupted and retired .simmr files
# --------------------------------------------------------------------------- #

def corrupt(payload: bytes) -> bytes:
    """Flip the low mantissa bit of the last duration: still a valid
    duration, so only the digest check can notice."""
    flipped = bytearray(payload)
    flipped[-8] ^= 0x01
    return bytes(flipped)


class TestHeaderDigestVerified:
    def test_unpack_rejects_content_mismatch(self):
        with pytest.raises(ValueError, match=MISMATCH):
            unpack_columns(corrupt(pack_trace(rich_trace())))

    @pytest.mark.parametrize("sniff", [True, False])
    def test_file_loads_reject_content_mismatch(self, tmp_path, sniff):
        path = tmp_path / "bad.simmr"
        path.write_bytes(corrupt(pack_trace(rich_trace())))
        with pytest.raises(ValueError, match=MISMATCH):
            (load_trace_auto if sniff else load_trace_bin)(path)

    def test_service_trace_path_rejects_content_mismatch(self, tmp_path):
        (tmp_path / "bad.simmr").write_bytes(corrupt(pack_trace(rich_trace())))
        with pytest.raises(ValueError, match=MISMATCH):
            TraceCache(4).load(tmp_path / "bad.simmr")
        with pytest.raises(ProtocolError, match=MISMATCH) as excinfo:
            parse_request(
                request_document(trace_path="bad.simmr"),
                trace_root=tmp_path,
                trace_cache=TraceCache(4),
            )
        assert excinfo.value.status == 400

    def test_spill_file_fanout_rejects_content_mismatch(self, monkeypatch, spill_files):
        real_pack = binfmt.pack_columns
        monkeypatch.setattr(
            binfmt, "pack_columns", lambda columns, digest: corrupt(real_pack(columns, digest))
        )
        trace = rich_trace()
        tasks = [
            SimTask(trace_id="t", scheduler=SchedulerSpec(name=name))
            for name in ("fifo", "maxedf")
        ]
        with pytest.raises(ValueError, match=MISMATCH):
            simulate_many({"t": trace}, tasks, workers=2, cache=None)
        # The worker's error reaches the parent only after the spill
        # file it refused has been deleted.
        assert len(spill_files) == 1
        assert not os.path.exists(spill_files[0])

    def test_version_one_is_refused_with_repack_hint(self):
        payload = bytearray(pack_trace(rich_trace()))
        payload[8:10] = (1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="re-pack it from its JSON trace"):
            unpack_columns(bytes(payload))
        assert binfmt.BINARY_VERSION == 3


# --------------------------------------------------------------------------- #
# non-finite deadlines (the NaN-deadline witness)
# --------------------------------------------------------------------------- #

def witness(deadline):
    """Three jobs on 1x1 under MaxEDF; job 1 carries ``deadline``."""
    return [
        TraceJob(profile("a", [3.0], [], [], [], num_reduces=0), 0.0, deadline=9.0),
        TraceJob(profile("b", [1.0], [], [], [], num_reduces=0), 1.0, deadline=deadline),
        TraceJob(profile("c", [2.0], [], [], [], num_reduces=0), 1.0, deadline=4.0),
    ]


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteDeadlines:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_trace_job_rejects(self, bad):
        with pytest.raises(ValueError, match="deadline must be finite"):
            witness(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_trace_from_dict_rejects(self, bad):
        doc = trace_to_dict(witness(None))
        doc["jobs"][1]["deadline"] = bad
        with pytest.raises(ValueError, match="deadline must be finite"):
            trace_from_dict(doc)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_simulate_request_rejects_with_400(self, bad):
        doc = request_document(trace=witness(None), scheduler="maxedf")
        doc["trace"]["jobs"][1]["deadline"] = bad
        # Through JSON text, as a client would send it (NaN/Infinity literals).
        with pytest.raises(ProtocolError, match="deadline must be finite") as excinfo:
            parse_request(json.loads(json.dumps(doc)))
        assert excinfo.value.status == 400

    def test_none_deadline_survives_binary_round_trip(self, tmp_path):
        trace = witness(None)
        save_trace_bin(trace, tmp_path / "w.simmr")
        loaded = load_trace_bin(tmp_path / "w.simmr")
        assert loaded[1].deadline is None
        assert trace_digest(loaded) == trace_digest(trace)
        cluster = ClusterConfig(1, 1)
        direct = simulate(trace, make_scheduler("maxedf"), cluster)
        replayed = simulate(loaded, make_scheduler("maxedf"), cluster)
        assert [j.completion_time for j in replayed.jobs] == [
            j.completion_time for j in direct.jobs
        ]


# --------------------------------------------------------------------------- #
# result-cache salt
# --------------------------------------------------------------------------- #

class TestCacheSalt:
    def test_old_salt_key_differs(self, monkeypatch, tmp_path):
        config = {"map_slots": 64, "reduce_slots": 64}
        current = cache_key("0" * 32, "fifo", config)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 1)
        old = cache_key("0" * 32, "fifo", config)
        monkeypatch.undo()
        assert cache_module.CACHE_SCHEMA_VERSION == 2
        assert old != current
        trace = rich_trace()
        [outcome] = simulate_many(
            {"t": trace}, [SimTask(trace_id="t", scheduler=SchedulerSpec(name="fifo"))],
            cache=None,
        )
        with ResultCache(tmp_path / "c.sqlite") as store:
            store.put(old, outcome.result, trace_digest="0" * 32, scheduler_id="fifo")
            assert store.get(current) is None
