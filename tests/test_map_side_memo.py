"""Pass mode's map-side memo: a hit is a cold run, bit for bit.

The map side of a pass-mode run (the map chain, the map finishes, each
job's map-stage end and final map) depends on the map slots, the
submits, the priority keys and the map durations only, so
:class:`~repro.core.kernel.ColumnarEngine` keeps the last one and hands
it to the next run with the same inputs.  These tests pin that a run
served from the memo is indistinguishable from a cold run, that only an
exact input match hits, and that threads sharing the memo keep every
digest.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, JobProfile, TraceJob
from repro.core import kernel
from repro.core.kernel import ColumnarEngine
from repro.experiments.scheduler_zoo import ZOO_POLICIES
from repro.sanitize.digest import DigestRecorder, EventDigest

from test_columnar_kernel import _PASS_SCHEDULERS, _tie_traces
from test_heap_golden import CASES, make_case

#: The kernel tests' static policies hold every static zoo policy (see
#: ``test_static_zoo_policies_covered``); the capped ones take replay
#: mode whenever their cap is set.
_UNCAPPED = ("FIFO", "MaxEDF", "MinEDF")


@pytest.fixture
def computed(monkeypatch):
    """Counts :func:`kernel._map_side` calls, on an empty memo."""
    calls = []
    original = kernel._map_side

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(kernel, "_MAP_MEMO", None)
    monkeypatch.setattr(kernel, "_map_side", counting)
    return calls


def _run(trace, policy, cluster, slowstart) -> tuple:
    """One run's digest, event count and result columns, plus its mode.

    The columns are compared as ``repr`` text, so ``-0.0`` and ``0.0``
    differ.  A stalled run (reduces without reduce slots) gives its
    message."""
    recorder = DigestRecorder(EventDigest(keep_events=False))
    engine = ColumnarEngine(
        ClusterConfig(*cluster), _PASS_SCHEDULERS[policy](),
        min_map_percent_completed=slowstart, record_tasks=True, sanitizer=recorder,
    )
    try:
        result = engine.run(trace)
    except RuntimeError as exc:
        return ("stall", str(exc)), engine.last_kernel_mode
    return (
        recorder.hexdigest(),
        recorder.digest.count,
        result.events_processed,
        repr(result.makespan),
        repr(result.job_columns.values()),
        repr(result.record_columns.values()),
    ), engine.last_kernel_mode


def _cold(trace, policy, cluster, slowstart) -> tuple:
    kernel._MAP_MEMO = None
    return _run(trace, policy, cluster, slowstart)


def _assert_hit_is_cold(trace, policy, cluster, slowstarts, computed) -> bool:
    """Run ``slowstarts`` in turn on one memo; each run must equal its
    cold run.  Returns whether the runs took pass mode."""
    colds = [_cold(trace, policy, cluster, s)[0] for s in slowstarts]
    kernel._MAP_MEMO = None
    del computed[:]
    warm = [_run(trace, policy, cluster, s) for s in slowstarts]
    for cold, (got, _) in zip(colds, warm):
        assert got == cold
    passes = {mode for _, mode in warm} == {"passes"}
    # Pass mode computes the map side once; replay mode never.
    assert len(computed) == (1 if passes else 0)
    return passes


class TestHitIsColdRun:
    def test_static_zoo_policies_covered(self):
        static = {
            factory for factory in ZOO_POLICIES.values() if factory().static_priority
        }
        assert static and static <= set(_PASS_SCHEDULERS.values())

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_heap_corpus(self, computed, order):
        """Every corpus trace under FIFO, MaxEDF and MinEDF on its case's
        cluster, at its slow-start, 0.05 and 1."""
        passes = 0
        for index in range(CASES):
            case = make_case(index)
            slowstarts = sorted({case["slowstart"], 0.05, 1.0})
            if order == "descending":
                slowstarts.reverse()
            for policy in _UNCAPPED:
                passes += _assert_hit_is_cold(
                    case["trace"], policy, tuple(case["cluster"]), slowstarts, computed
                )
        assert passes >= 300

    @given(
        trace=_tie_traces(),
        policy=st.sampled_from(sorted(_PASS_SCHEDULERS)),
        cluster=st.sampled_from(((1, 1), (2, 1), (3, 2), (128, 128))),
        slowstarts=st.lists(
            st.sampled_from((0.0, 0.05, 0.5, 1.0)), min_size=2, max_size=3, unique=True
        ),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_tie_traces(self, trace, policy, cluster, slowstarts):
        calls = []
        original = kernel._map_side
        kernel._map_side = lambda *args: calls.append(args[0]) or original(*args)
        try:
            _assert_hit_is_cold(trace, policy, cluster, slowstarts, calls)
            _assert_hit_is_cold(trace, policy, cluster, slowstarts[::-1], calls)
        finally:
            kernel._map_side = original
            kernel._MAP_MEMO = None


def _job(submit, maps=(2.0, 1.0, 3.0), deadline=None):
    profile = JobProfile(
        name="j", num_maps=4, num_reduces=2, map_durations=list(maps),
        first_shuffle_durations=[1.0], typical_shuffle_durations=[2.0],
        reduce_durations=[1.5],
    )
    return TraceJob(profile, submit, deadline=deadline)


def _trace(first_submit=0.0, maps=(2.0, 1.0, 3.0), deadlines=(None, None, None)):
    return [
        _job(first_submit, deadline=deadlines[0]),
        _job(0.0, maps, deadline=deadlines[1]),
        _job(1.0, deadline=deadlines[2]),
    ]


class TestMemoKey:
    def test_reduce_slots_alone_hit(self, computed):
        trace = _trace()
        got = [_run(trace, "FIFO", (2, r), 0.05)[0] for r in (1, 3, 8)]
        assert computed == [2]
        assert got == [_cold(trace, "FIFO", (2, r), 0.05)[0] for r in (1, 3, 8)]

    def test_slowstarts_alone_hit(self, computed):
        trace = _trace()
        for s in (0.0, 0.5, 1.0):
            _run(trace, "MaxEDF", (2, 2), s)
        assert computed == [2]

    def test_signed_zero_submit_misses(self, computed):
        """``-0.0 == 0.0``, but the chain starts the first job at the
        submit's bit pattern, so the two runs differ."""
        negative, positive = _trace(first_submit=-0.0), _trace(first_submit=0.0)
        cold_negative = _cold(negative, "FIFO", (2, 2), 0.05)[0]
        cold_positive = _cold(positive, "FIFO", (2, 2), 0.05)[0]
        assert cold_negative[0] != cold_positive[0]
        kernel._MAP_MEMO = None
        del computed[:]
        assert _run(negative, "FIFO", (2, 2), 0.05)[0] == cold_negative
        assert _run(positive, "FIFO", (2, 2), 0.05)[0] == cold_positive
        assert len(computed) == 2

    def test_one_map_duration_misses(self, computed):
        base, changed = _trace(), _trace(maps=(2.0, 1.0, 3.5))
        _run(base, "FIFO", (2, 2), 0.05)
        assert _run(changed, "FIFO", (2, 2), 0.05)[0] == _cold(changed, "FIFO", (2, 2), 0.05)[0]
        assert len(computed) == 3

    def test_map_slots_miss(self, computed):
        trace = _trace()
        for m in (2, 3, 2):
            _run(trace, "FIFO", (m, 2), 0.05)
        assert computed == [2, 3, 2]

    def test_one_key_misses(self, computed):
        """MaxEDF keys on the deadline: moving one reorders dispatch."""
        early, late = _trace(deadlines=(9.0, 30.0, 20.0)), _trace(deadlines=(9.0, 10.0, 20.0))
        _run(early, "MaxEDF", (2, 2), 0.05)
        got = _run(late, "MaxEDF", (2, 2), 0.05)[0]
        assert len(computed) == 2
        assert got == _cold(late, "MaxEDF", (2, 2), 0.05)[0]


class TestMemoEntry:
    def test_one_read_only_entry(self, computed):
        for m in (2, 3):
            _run(_trace(), "FIFO", (m, 2), 0.05)
        key, side = kernel._MAP_MEMO
        assert key[0] == 3
        log = side.log
        for name in ("start", "job", "task", "pos", "seq_of", "offsets", "end"):
            assert not getattr(log, name).flags.writeable, name
        assert not side.dep.flags.writeable
        assert isinstance(side.mse, tuple) and isinstance(side.fm, tuple)
        # The dispatch lists are dropped once the columns are built.
        for name in ("starts", "runs"):
            assert not hasattr(log, name)


def _thread_trace() -> list[TraceJob]:
    rng = np.random.default_rng(3)
    return [
        TraceJob(
            JobProfile(
                name="t", num_maps=int(rng.integers(1, 30)), num_reduces=int(rng.integers(0, 6)),
                map_durations=rng.uniform(1.0, 9.0, 5).tolist(),
                first_shuffle_durations=[1.0], typical_shuffle_durations=[2.0],
                reduce_durations=rng.uniform(1.0, 4.0, 3).tolist(),
            ),
            float(rng.integers(0, 40)),
        )
        for _ in range(30)
    ]


#: Event digests of ``_thread_trace()`` under FIFO on (map slots, 3)
#: clusters, pinned from the kernel before it had a map-side memo.
_THREAD_PINS = {
    ((2, 3), 0.05): "7cc6579cfd503d2f57f27af000d2bd59",
    ((2, 3), 1.0): "fc86bdff8eaca46aace325ebc4eb5e96",
    ((5, 3), 0.05): "de5ba10c8a99c0804dd81ce8b402132a",
    ((5, 3), 1.0): "c9c2b1c38889a916957d51bf6b21213d",
    ((9, 3), 0.05): "35f6081d359da90209f82fb18d04bd07",
    ((9, 3), 1.0): "01a810fb675525ffeeb662e801e29589",
}


class TestThreads:
    def test_interleaved_map_slots_keep_digests(self, computed):
        """More threads than cores share the memo, each cycling through
        the map-slot counts from its own offset, with a short switch
        interval; every run reproduces its pinned digest."""
        trace = _thread_trace()
        cells = list(_THREAD_PINS)
        assert {cell: _cold(trace, "FIFO", *cell)[0][0] for cell in cells} == _THREAD_PINS
        kernel._MAP_MEMO = None
        n_threads, reps = 4, 4
        got: dict[int, list] = {t: [] for t in range(n_threads)}
        barrier = threading.Barrier(n_threads)

        def work(t: int) -> None:
            barrier.wait(timeout=60)
            for rep in range(reps):
                for i in range(len(cells)):
                    cell = cells[(i + 3 * t + rep) % len(cells)]
                    got[t].append((cell, _run(trace, "FIFO", *cell)[0][0]))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(n_threads):
            assert len(got[t]) == reps * len(cells)
            for cell, digest in got[t]:
                assert digest == _THREAD_PINS[cell], (t, cell)
        assert len(computed) > 1
