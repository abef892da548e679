#!/usr/bin/env python3
"""End-to-end SimMR benchmark: what-if sweeps and ``simmr submit`` traffic.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--json PATH]

Without ``--workload`` every workload runs, one after another, each in
a fresh interpreter.  Every metric is printed as ``workload metric value
unit``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` (the default) the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run (see
``spans.py``).  The exit code is non-zero when any operation failed.

A run replays performance traces made from ``--seed``.  Each workload
pays the program's first-call costs on a small trace, sets up once for
each of its first few traces (``setup_s`` is the median), then
repeats a fixed unit of work until ``--seconds`` of timed work have
passed.  Every output is checked against the pinned event digests in
``digests.json`` (seeds 0 and 1) or, for other seeds, against the
first time the run saw the same cell.  Timings are reported at a
nominal host speed measured by :class:`HostProbe`.  README.md says what
each workload stresses and why.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable, Optional
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("sweep-cold", "sweep-dynamic", "sweep-warm", "service-submit")
#: ``run_seconds`` in BENCHMARK.json, whose command line passes it to
#: every run as ``--seconds``.
DEFAULT_SECONDS = 15
#: A run with ``--seed S`` replays one trace per offset (see
#: :func:`performance_trace`).  Several traces per run average out most
#: of what one trace's shape does to the timings, so runs with different
#: seeds compare.  Each workload sets up the first ``Workload.setups``
#: traces (``setup_s`` is the median of those set-ups), and the sweeps
#: and the service cycle over them.  A sweep-dynamic pass gives each of its
#: cells a trace of its own: even at a fixed task count, a Fair+P or DP
#: cell's cost spreads by 12-15% (quartile distance over median) across
#: traces, and three traces averaged too little of that.  ``--seed 0``
#: includes the trace behind the sweep numbers in the ROADMAP, and seed
#: 1 is held out.
TRACE_OFFSETS = tuple(range(0, 15_000, 1000))
TRACE_IDS = tuple(f"t{i}" for i in range(len(TRACE_OFFSETS)))
SETUP_TRACES = 3
#: Each trace has ``JOBS`` jobs and, within ``TASKS_BAND``, ``TASKS``
#: tasks: the seed-0 trace's count, ~95k events per cell.
JOBS = 120
TASKS = 47_480
TASKS_BAND = 0.01
MEAN_INTERARRIVAL = 50.0
PINNED_PATH = HERE / "digests.json"
WORK_ROOT = HERE / ".work"

#: End-to-end metrics and their units (BENCHMARK.json carries the bounds).
E2E_UNITS = {
    "events_per_s": "events/s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CLUSTERS = ((32, 32), (64, 64), (128, 128))
SLOWSTARTS = (0.05, 1.0)
STATIC = ("fifo", "maxedf", "minedf")
#: Each service client sends requests in segments of this many; the
#: first of each segment asks for a cell no earlier request asked for
#: (it simulates and writes the cache), the others repeat a warmed cell.
NEW_EVERY = 5
SERVICE_THREADS = 2


def performance_trace(seed: int, index: int, jobs: int = JOBS) -> list:
    """Trace ``index`` of a run with ``seed``.

    The first of ``make_performance_trace(jobs, seed=seed + offset + k *
    10**6)``, k = 0, 1, ..., with ``TASKS`` tasks (within the band).
    Simulation and trace-handling costs grow with the task count, which
    varies by 6% from seed to seed; holding it keeps a seed's trace
    shapes, but not its size, in the measurement.  Shrunk traces
    (``jobs`` other than ``JOBS``) take k = 0.
    """
    from repro.experiments.performance import make_performance_trace

    for k in itertools.count():
        trace = make_performance_trace(
            jobs, mean_interarrival=MEAN_INTERARRIVAL,
            seed=seed + TRACE_OFFSETS[index] + k * 10**6,
        )
        tasks = sum(job.profile.num_maps + job.profile.num_reduces for job in trace)
        if jobs != JOBS or abs(tasks - TASKS) <= TASKS_BAND * TASKS:
            return trace


def sim_task(name: str, cluster: tuple[int, int], slowstart: float,
             trace_id: str = "t0", **kwargs: Any) -> Any:
    """A registry-scheduler task; ``preemption`` goes to the engine, the
    rest to the scheduler's constructor."""
    from repro.core.cluster import ClusterConfig
    from repro.parallel.executor import SchedulerSpec, SimTask

    preemption = kwargs.pop("preemption", False)
    spec = SchedulerSpec(kind="registry", name=name, kwargs=tuple(sorted(kwargs.items())))
    return SimTask(trace_id, spec, ClusterConfig(*cluster), slowstart, preemption=preemption)


def cell_id(task: Any) -> str:
    """Name of one simulated cell; the key of the pinned digests."""
    return (
        f"{task.trace_id}|{task.scheduler.identity()}|{task.cluster.map_slots}x"
        f"{task.cluster.reduce_slots}|{task.slowstart!r}|{'P' if task.preemption else '-'}"
    )


def sweep_tasks(schedulers: tuple[str, ...], trace_id: str) -> list:
    """The cells :func:`repro.sweep.run_sweep` runs for a sweep grid."""
    return [
        sim_task(s, c, ss, trace_id)
        for s in schedulers for c in CLUSTERS for ss in SLOWSTARTS
    ]


def dynamic_warm_tasks(trace_id: str) -> list:
    """The cells a sweep-dynamic set-up runs on ``trace_id``."""
    return [sim_task("fair", (64, 64), 0.05, trace_id), sim_task("dp", (64, 64), 0.05, trace_id)]


def dynamic_tasks(traces: list[str]) -> list:
    """One sweep-dynamic pass: Fair, Fair+P and DynamicPriority cells,
    spread over ``traces`` in turn."""
    cells = (
        [("fair", c, s, {}) for c in CLUSTERS for s in SLOWSTARTS]
        + [("fair", c, s, {"preemptive": True, "preemption": True})
           for c in CLUSTERS for s in SLOWSTARTS]
        # DynamicPriority lacks the columnar contract: object-engine fallback.
        + [("dp", c, 0.05, {}) for c in CLUSTERS]
    )
    return [
        sim_task(name, c, s, traces[i % len(traces)], **kwargs)
        for i, (name, c, s, kwargs) in enumerate(cells)
    ]


def service_warm_tasks(trace_id: str) -> list:
    """The cells service set-up warms; repeated requests ask for these."""
    return [sim_task(s, (64, 64), ss, trace_id) for s in STATIC for ss in SLOWSTARTS]


def service_new_cell(k: int, traces: list[str]) -> Any:
    """The ``k``-th new cell a service run asks for: a cluster shape no
    warmed cell has (map and reduce slots differ)."""
    return sim_task(STATIC[k % 3], (40 + k, 20 + k), 0.05, traces[k // 3 % len(traces)])


def load_pinned(seed: int, jobs: int = JOBS) -> dict[str, Any]:
    """Pinned digests and replay error for ``seed`` ({} when none)."""
    if jobs != JOBS or not PINNED_PATH.exists():
        return {}
    return json.loads(PINNED_PATH.read_text())["seeds"].get(str(seed), {})


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


# --------------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------------- #

class HostProbe:
    """A fixed piece of reference work, timed between operations.

    The benchmark's host shares its cores with other machines, and its
    speed drifts: on a 2-vCPU VM the median of one simulation cell over
    successive 15-second windows ranged from 89 ms to 159 ms.  The probe
    mixes the kinds of work the program does but calls no SimMR code.
    Most of it is ``json.dumps(sort_keys=True)`` of nested records, the
    work behind a trace digest; the rest is a Python loop, a JSON round
    trip, BLAKE2b and a numpy sort.  Contention slows kinds of work
    unequally: against a probe of the latter four alone, a cached sweep
    slowed as the probe's slowdown to the power 1.4 and a FIFO cell to
    the power 1.2.  With the records the powers are about 1.1 and 0.9.
    The probe runs with the garbage collector off: a collection inside
    it would walk the program's live objects, and a program keeping
    more of them would read as a slower host.  Every timed operation,
    and every step of a set-up, is followed by a probe, and its time is
    reported at the nominal speed: multiplied by ``NOMINAL_S / mean(the
    nine probes nearest it)``.  A mean, not a median: contention that
    comes in bursts shorter than an operation slows the operation by
    its average, which a median of short probes misses.  The probe
    measures the CPU it runs on, so a run is held to one CPU
    (:func:`hold_to_one_cpu`).
    """

    #: The probe's duration on that VM when nothing else ran (the 5th
    #: percentile of 1,200 probes over seven minutes).
    NOMINAL_S = 0.0049

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(2011)
        self._records = [
            {"id": i, "m": rng.random(40).tolist(), "r": {"a": float(a), "b": [1, 2, 3]}}
            for i, a in enumerate(rng.random(130))
        ]
        self._doc = [
            {"t": float(t), "j": int(j), "d": rng.random(8).tolist()}
            for t, j in zip(rng.random(60), rng.integers(0, 1000, 60))
        ]
        self._keys = (rng.random(4_000), rng.integers(0, 50, 4_000))
        self._buf = rng.bytes(1 << 18)
        self._lexsort = np.lexsort
        self.samples: list[float] = []
        #: While set, each probe is recorded as a ``host.probe`` span, so
        #: traced layers do not absorb its time.
        self.recorder: Any = None
        for _ in range(5):  # the first runs in a process are slower
            self._work()

    def _work(self) -> None:
        json.dumps(self._records, sort_keys=True)
        total = 0
        for i in range(7_500):
            total += i * i % 7
        json.loads(json.dumps(self._doc))
        blake2b(self._buf).digest()
        self._lexsort(self._keys)

    def __call__(self) -> int:
        """Run the probe once; returns the index of its sample."""
        span = self.recorder.begin("host.probe") if self.recorder is not None else None
        collecting = gc.isenabled()
        gc.disable()  # a collection would walk the program's heap
        try:
            start = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        if span is not None:
            self.recorder.end(span)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Nominal over measured speed around sample ``index``."""
        return self.NOMINAL_S / statistics.fmean(self.samples[max(0, index - 4):index + 5])


def hold_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A probe measures the CPU it ran on.  Free to move, the process may
    run an operation on one vCPU of a shared host and the probe that
    corrects it on another, busier or quieter one.  On one CPU both run
    on the same.  The service's server shares that CPU with the
    clients, so ``service-submit`` measures one CPU's worth of service.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# --------------------------------------------------------------------------- #
# correctness bookkeeping
# --------------------------------------------------------------------------- #

class Tally:
    """Operations attempted and failed; thread-safe.

    A cell's digest must equal its pinned digest, or, when none is
    pinned, the digest the run saw first for that cell.
    """

    def __init__(self, pinned_cells: dict[str, str]) -> None:
        self._lock = threading.Lock()
        self._expected = dict(pinned_cells)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _note(self, what: str) -> None:
        with self._lock:
            if len(self.errors) < 20:
                self.errors.append(what)

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            self.failed += not ok
        if not ok:
            self._note(what)
        return ok

    def digest_matches(self, task: Any, digest: Optional[str]) -> bool:
        cell = cell_id(task)
        with self._lock:
            expected = self._expected.setdefault(cell, digest)
        if digest is None or digest != expected:
            self._note(f"{cell}: digest {digest} != {expected}")
            return False
        return True

    def check_outcomes(self, outcomes: list, *, cached: bool) -> None:
        """One operation per executor outcome."""
        for outcome in outcomes:
            digest_ok = self.digest_matches(outcome.task, outcome.result.event_digest)
            self.record(
                digest_ok and outcome.cached == cached,
                f"{cell_id(outcome.task)}: cached={outcome.cached}, expected {cached}",
            )


@dataclass
class Timed:
    """One timed region."""

    #: Seconds of work, probes excluded.
    wall: float = 0.0
    units: int = 0
    #: Per operation: (latency in seconds, index of the nearest probe,
    #: kind of operation).
    ops: list[tuple[float, int, str]] = field(default_factory=list)
    #: Intervals tiling the region: (seconds, index of the nearest probe).
    busy: list[tuple[float, int]] = field(default_factory=list)
    #: Simulated events in every result delivered (cached ones included).
    events: int = 0
    #: Per-request (queue, server) seconds, from the service's replies.
    replies: list[tuple[float, float]] = field(default_factory=list)

    def nominal_busy(self, probe: HostProbe) -> float:
        return sum(seconds * probe.scale(i) for seconds, i in self.busy)

    def op_ms(self, scale: Callable[[int], float] = lambda i: 1.0) -> float:
        """Mean operation latency in ms, each kind of operation counted
        at its median; ``scale`` (:meth:`HostProbe.scale`) corrects for
        the host's speed.

        A run mixes traces and kinds of cell whose latencies differ up
        to threefold, so the median of all operations jumps from one
        kind to the next as the mix shifts; a median per kind does not.
        """
        by_kind: dict[str, list[float]] = {}
        for seconds, i, kind in self.ops:
            by_kind.setdefault(kind, []).append(seconds * scale(i))
        total = sum(len(v) * statistics.median(v) for v in by_kind.values())
        return 1000.0 * total / len(self.ops)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #

class Workload:
    """Per-trace set-up, a repeatable unit of timed work, post-run checks."""

    name = ""
    #: Load-generating threads (the per-layer accounting base multiplies
    #: the wall time by this).
    threads = 1
    #: Operations one unit counts (used when a unit raises).
    ops_per_unit = 1
    #: Timed set-ups per run, one per trace; ``setup_s`` is their median.
    setups = SETUP_TRACES
    #: Traces the unit replays, if more than are set up.
    min_traces = 0

    def __init__(self, *, seed: int, jobs: int, workdir: Path, tally: Tally,
                 pinned: dict[str, Any], probe: HostProbe) -> None:
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.tally = tally
        self.pinned = pinned
        self.probe = probe
        #: trace id -> trace, filled by :meth:`timed_setups`.
        self.traces: dict[str, list] = {}
        self._files = 0
        self._mark = 0.0

    def cache_file(self) -> Path:
        self._files += 1
        return self.workdir / f"cache-{self._files}.sqlite"

    def op_done(self, timed: Timed, kind: str = "") -> None:
        """End one operation of ``kind``: time it since the last one,
        then probe."""
        latency = time.perf_counter() - self._mark
        index = self.probe()
        timed.ops.append((latency, index, kind))
        timed.busy.append((latency, index))
        self._mark = time.perf_counter()

    def prime(self) -> None:
        """Pay the program's first-call costs (imports, lazy set-up) on a
        12-job trace, untimed, so that no timed set-up carries them."""
        from repro.core.cluster import ClusterConfig
        from repro.service.client import ServiceClient  # noqa: F401
        from repro.sweep import run_sweep

        run_sweep(
            performance_trace(self.seed, 0, jobs=12), schedulers=("fifo", "fair", "dp"),
            clusters=[ClusterConfig(32, 32)], slowstarts=(0.05,), cache=self.cache_file(),
        )

    def setup(self, trace_id: str, steps: Timed) -> None:
        """Prepare to replay trace ``trace_id``, ending each step with
        :meth:`op_done` on ``steps``."""
        raise NotImplementedError

    def timed_setups(self, count: int) -> list[float]:
        """Make the traces, then set up the first ``count``; returns each
        set-up's seconds at the nominal host speed."""
        self.traces = {
            TRACE_IDS[i]: performance_trace(self.seed, i, self.jobs)
            for i in range(max(count, self.min_traces))
        }
        self.prime()
        seconds = []
        for index, trace_id in enumerate(TRACE_IDS[:count]):
            if index:
                self.teardown()
            steps = Timed()
            self._mark = time.perf_counter()
            self.setup(trace_id, steps)
            self.op_done(steps)
            seconds.append(steps.nominal_busy(self.probe))
        return seconds

    def teardown(self) -> None:
        """Undo what a set-up left running before the next one (untimed)."""

    def unit(self, timed: Timed) -> None:
        raise NotImplementedError

    def run(self, *, seconds: Optional[float] = None, units: Optional[int] = None) -> Timed:
        """Repeat :meth:`unit` until ``seconds`` of work (at least one
        unit), or ``units`` times."""
        timed = Timed()
        first = len(self.probe.samples)
        start = self._mark = time.perf_counter()
        while True:
            try:
                self.unit(timed)
            except Exception as exc:  # noqa: BLE001 - count it and keep measuring
                traceback.print_exc(file=sys.stderr)
                for _ in range(self.ops_per_unit):
                    self.tally.record(False, f"{self.name}: {exc!r}")
            timed.units += 1
            timed.wall = time.perf_counter() - start - sum(self.probe.samples[first:])
            if timed.units >= units if units is not None else timed.wall >= seconds:
                return timed

    def traced_run(self, units: int) -> tuple[Timed, list]:
        """The same work as an untraced run of ``units`` units, traced."""
        from spans import SpanRecorder, install_layers

        recorder = self.probe.recorder = SpanRecorder()
        install_layers(recorder)
        try:
            timed = self.run(units=units)
        finally:
            recorder.uninstall()
            self.probe.recorder = None
        return timed, recorder.spans

    def finish(self) -> None:
        """Checks made after the timed region."""

    def close(self) -> None:
        """Release what set-up acquired."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self, timed: Timed, nominal_busy: float) -> dict[str, tuple[float, str]]:
        """Workload-specific numbers printed beside the metrics."""
        return {"cells_per_s": (len(timed.ops) / nominal_busy, "1/s")}


class _SweepWorkload(Workload):
    """A grid swept with :func:`repro.sweep.run_sweep`, cache on."""

    schedulers: tuple[str, ...] = STATIC

    @property
    def cells(self) -> int:
        return len(self.schedulers) * len(CLUSTERS) * len(SLOWSTARTS)

    def sweep(self, trace_id: str, cache: Path, progress: Any) -> tuple[Any, list]:
        """Sweep one trace; returns the result and its outcomes, whose
        tasks carry ``trace_id``.  ``progress``, if given, is called as
        each cell ends, with the cell's kind."""
        from repro.core.cluster import ClusterConfig
        from repro.sweep import run_sweep

        outcomes: list = []

        def collect(done: int, total: int, outcome: Any) -> None:
            if progress is not None:
                progress(f"{trace_id}|{cell_id(outcome.task)}")
            outcomes.append(outcome)

        result = run_sweep(
            self.traces[trace_id],
            schedulers=self.schedulers,
            clusters=[ClusterConfig(*c) for c in CLUSTERS],
            slowstarts=SLOWSTARTS,
            cache=cache,
            progress=collect,
        )
        for outcome in outcomes:
            outcome.task = dataclasses.replace(outcome.task, trace_id=trace_id)
        return result, outcomes

    def next_trace(self, timed: Timed) -> str:
        ids = list(self.traces)
        return ids[timed.units % len(ids)]


class SweepCold(_SweepWorkload):
    """FIFO/MaxEDF/MinEDF grid, every cell simulated into a fresh cache.

    One unit sweeps one trace; one operation is one cell, timed from the
    previous cell's ``progress`` callback to its own.
    """

    name = "sweep-cold"
    ops_per_unit = len(STATIC) * len(CLUSTERS) * len(SLOWSTARTS)

    def setup(self, trace_id: str, steps: Timed) -> None:
        _, outcomes = self.sweep(  # warm-up
            trace_id, self.cache_file(), lambda kind: self.op_done(steps)
        )
        self.tally.check_outcomes(outcomes, cached=False)

    def unit(self, timed: Timed) -> None:
        _, outcomes = self.sweep(
            self.next_trace(timed), self.cache_file(), lambda kind: self.op_done(timed, kind)
        )
        self.tally.check_outcomes(outcomes, cached=False)
        timed.events += sum(o.result.events_processed for o in outcomes)

    def finish(self) -> None:
        from repro.experiments.accuracy import run_accuracy
        from repro.parallel.executor import simulate_many

        # Fig. 5 FIFO replay error against the emulated testbed.
        self.replay_error_pct, _ = run_accuracy(
            "FIFO", executions_per_app=3, seed=self.seed
        ).simmr_errors()
        pinned = self.pinned.get("replay_error_pct")
        self.tally.record(
            pinned is None or self.replay_error_pct == pinned,
            f"replay_error_pct {self.replay_error_pct!r} != pinned {pinned!r}",
        )
        # The object engine must reproduce the kernel's digest on any seed.
        task = sim_task("fifo", (64, 64), 0.05)
        [outcome] = simulate_many(
            {task.trace_id: self.traces[task.trace_id]}, [dataclasses.replace(task, engine="object")]
        )
        self.tally.record(
            self.tally.digest_matches(task, outcome.result.event_digest),
            "object engine digest differs from the kernel's",
        )

    def extras(self, timed: Timed, nominal_busy: float) -> dict[str, tuple[float, str]]:
        return {
            **super().extras(timed, nominal_busy),
            "replay_error_pct": (self.replay_error_pct, "%"),
        }


class SweepWarm(_SweepWorkload):
    """The canonical 24-cell grid, every repetition served from the cache.

    One unit, and one operation, is one repetition of the whole sweep of
    one trace.
    """

    name = "sweep-warm"
    schedulers = STATIC + ("fair",)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.cache = self.cache_file()

    def setup(self, trace_id: str, steps: Timed) -> None:
        _, outcomes = self.sweep(trace_id, self.cache, lambda kind: self.op_done(steps))
        self.tally.check_outcomes(outcomes, cached=False)

    def unit(self, timed: Timed) -> None:
        trace_id = self.next_trace(timed)
        result, outcomes = self.sweep(trace_id, self.cache, None)
        self.op_done(timed, trace_id)
        digests_ok = all(
            self.tally.digest_matches(o.task, o.result.event_digest) for o in outcomes
        )
        self.tally.record(
            digests_ok and result.cache_hits == len(result.cells) == self.cells,
            f"warm repetition: {result.cache_hits}/{len(result.cells)} cache hits",
        )
        timed.events += sum(o.result.events_processed for o in outcomes)

    def extras(self, timed: Timed, nominal_busy: float) -> dict[str, tuple[float, str]]:
        return {"cells_per_s": (self.cells * len(timed.ops) / nominal_busy, "1/s")}


class SweepDynamic(Workload):
    """Fair, Fair+P and DynamicPriority cells through ``simulate_many``.

    One unit is one pass over :func:`dynamic_tasks` into a fresh cache;
    one operation is one cell, as in sweep-cold.
    """

    name = "sweep-dynamic"
    ops_per_unit = min_traces = len(CLUSTERS) * (2 * len(SLOWSTARTS) + 1)
    #: The DP cell's cost moves with the trace, so three set-ups left
    #: ``setup_s`` spread by 12% over ten seeds.
    setups = 5

    def setup(self, trace_id: str, steps: Timed) -> None:
        from repro.parallel.executor import simulate_many

        outcomes = simulate_many(
            {trace_id: self.traces[trace_id]}, dynamic_warm_tasks(trace_id),
            progress=lambda done, total, o: self.op_done(steps),
        )
        self.tally.check_outcomes(outcomes, cached=False)

    def unit(self, timed: Timed) -> None:
        from repro.parallel.executor import simulate_many

        outcomes: list = []

        def progress(done: int, total: int, outcome: Any) -> None:
            self.op_done(timed, cell_id(outcome.task))
            outcomes.append(outcome)

        simulate_many(
            self.traces, dynamic_tasks(list(self.traces)), cache=self.cache_file(),
            progress=progress,
        )
        self.tally.check_outcomes(outcomes, cached=False)
        timed.events += sum(o.result.events_processed for o in outcomes)


class ServiceSubmit(Workload):
    """``simmr serve`` under two closed-loop clients sending inline traces.

    Each set-up (re)starts the server on one cache file and warms the
    cells of one more trace into it.  One unit is a segment of
    ``NEW_EVERY`` steps.  In each step both clients send one request at
    once, and the host is probed when both replies are in: probing
    after every few hundred ms, as the sweeps do, and not once per
    segment, halved the spread of ``events_per_s`` over ten seeds.  One
    operation is one request, timed as the client sees it.
    """

    name = "service-submit"
    threads = SERVICE_THREADS
    ops_per_unit = SERVICE_THREADS * NEW_EVERY

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.cache = self.cache_file()
        self.warm: list = []
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self._new_cells = 0
        self._lock = threading.Lock()

    def _env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if k != "SIMMR_SANITIZE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["SIMMR_CACHE_DIR"] = str(self.workdir)
        return env

    def _launch(self, entry: list[str], cache: Path, warm: list, steps: Timed) -> None:
        """Start one server on ``cache`` and warm the cells ``warm`` into it."""
        from repro.service.client import ServiceClient

        argv = [sys.executable, *entry, "serve", "--port", "0",
                "--workers", "2", "--cache-path", str(cache)]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=self._env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop_server()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = match.group(1)
        self._new_cells = 0
        self.op_done(steps)
        client = ServiceClient(self.url)
        for task in warm:
            reply = client.replay(
                self.traces[task.trace_id], scheduler=task.scheduler,
                cluster=task.cluster, slowstart=task.slowstart,
            )
            self.tally.record(
                self.tally.digest_matches(task, reply.event_digest), f"warming {cell_id(task)}"
            )
            self.op_done(steps)

    def stop_server(self) -> None:
        """SIGTERM (the service drains), then wait for the process."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def setup(self, trace_id: str, steps: Timed) -> None:
        warm = service_warm_tasks(trace_id)
        self.warm += warm
        self._launch(["-m", "repro"], self.cache, warm, steps)

    def teardown(self) -> None:
        self.stop_server()

    def close(self) -> None:
        self.stop_server()

    def _request(self, thread: int, segment: int, step: int,
                 latencies: list[tuple[float, str]], timed: Timed) -> None:
        """One client's request in one step of a segment."""
        from repro.service.client import ServiceClient

        if step == 0:
            with self._lock:
                task = service_new_cell(self._new_cells, list(self.traces))
                self._new_cells += 1
        else:
            task = self.warm[(segment * NEW_EVERY + step + thread) % len(self.warm)]
        kind = f"{'new' if step == 0 else 'cached'}|{task.trace_id}"
        start = time.perf_counter()
        try:
            reply = ServiceClient(self.url, timeout=120.0).replay(
                self.traces[task.trace_id], scheduler=task.scheduler,
                cluster=task.cluster, slowstart=task.slowstart,
            )
        except Exception as exc:  # noqa: BLE001 - non-200 or transport error
            self.tally.record(False, f"{cell_id(task)}: {exc!r}")
            return
        latency = time.perf_counter() - start
        self.tally.record(
            self.tally.digest_matches(task, reply.event_digest)
            and reply.result.event_digest == reply.event_digest,
            f"reply for {cell_id(task)}",
        )
        with self._lock:
            latencies.append((latency, kind))
            timed.events += reply.result.events_processed
            timed.replies.append((reply.queue_seconds, reply.server_seconds))

    def unit(self, timed: Timed) -> None:
        for step in range(NEW_EVERY):
            latencies: list[tuple[float, str]] = []
            start = time.perf_counter()
            threads = [
                threading.Thread(target=self._request,
                                 args=(t, timed.units, step, latencies, timed))
                for t in range(self.threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            index = self.probe()
            timed.busy.append((seconds, index))
            timed.ops += [(latency, index, kind) for latency, kind in latencies]

    def traced_run(self, units: int) -> tuple[Timed, list]:
        """Replay ``units`` segments against a server started through
        ``serve_traced.py`` on a fresh cache, joining its spans with the
        client's."""
        from spans import SpanRecorder, install_client, install_layers, link_requests, \
            spans_from_json

        spans_path = self.workdir / "server-spans.json"
        self.stop_server()
        self._launch(
            [str(HERE / "serve_traced.py"), str(spans_path)], self.cache_file(), self.warm,
            Timed(),
        )
        recorder = self.probe.recorder = SpanRecorder()
        install_layers(recorder)
        install_client(recorder)
        try:
            timed = self.run(units=units)
        finally:
            recorder.uninstall()
            self.probe.recorder = None
        self.stop_server()
        offset = max((s.id for s in recorder.spans), default=-1) + 1
        server = spans_from_json(json.loads(spans_path.read_text()), id_offset=offset)
        return timed, link_requests(recorder.spans, server)

    def peak_rss_mb(self) -> float:
        # The servers this process started and waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def extras(self, timed: Timed, nominal_busy: float) -> dict[str, tuple[float, str]]:
        return {"req_per_s": (len(timed.ops) / nominal_busy, "1/s")}


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (SweepCold, SweepDynamic, SweepWarm, ServiceSubmit)
}


# --------------------------------------------------------------------------- #
# one workload, end to end
# --------------------------------------------------------------------------- #

def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    jobs: int = JOBS,
    traces: Optional[int] = None,
    pinned: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Set up, measure and check one workload; returns its report.

    ``jobs`` and ``traces`` (the set-ups, default ``Workload.setups``)
    shrink the run for tests; ``pinned`` replaces the pinned digests of
    ``seed``.
    """
    pinned = load_pinned(seed, jobs) if pinned is None else pinned
    tally = Tally(pinned.get("cells", {}))
    probe = HostProbe()
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp, mock.patch.dict(
        os.environ, {"SIMMR_CACHE_DIR": tmp}
    ):
        os.environ.pop("SIMMR_SANITIZE", None)
        workload = WORKLOAD_CLASSES[name](
            seed=seed, jobs=jobs, workdir=Path(tmp), tally=tally, pinned=pinned, probe=probe
        )
        try:
            setup_seconds = workload.timed_setups(traces or workload.setups)
            if trace:
                plain = workload.run(seconds=seconds / 2)
                timed, spans = workload.traced_run(plain.units)
            else:
                timed = workload.run(seconds=seconds)
            workload.finish()
        finally:
            workload.close()

    nominal_busy = timed.nominal_busy(probe)
    latencies_ms = [s * probe.scale(i) * 1000.0 for s, i, _ in timed.ops]
    if trace:
        from spans import LAYER_METRICS, layer_metrics

        values = layer_metrics(
            spans,
            wall=timed.wall * workload.threads,
            overhead_frac=nominal_busy / plain.nominal_busy(probe) - 1.0,
            queue_s=sum(q for q, _ in timed.replies),
            server_s=sum(s for _, s in timed.replies),
        )
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()}
    else:
        values = {
            "events_per_s": timed.events / nominal_busy,
            "op_ms": timed.op_ms(probe.scale),
            "peak_rss_mb": workload.peak_rss_mb(),
            "setup_s": statistics.median(setup_seconds),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    extra = {
        "ops_timed": (len(timed.ops), "count"),
        "op_ms_p90": (percentile(latencies_ms, 90), "ms"),
        "timed_s": (timed.wall, "s"),
        "raw_events_per_s": (timed.events / timed.wall, "events/s"),
        "raw_op_ms": (timed.op_ms(), "ms"),
        "host_slowdown": (statistics.median(probe.samples) / probe.NOMINAL_S, "ratio"),
        **workload.extras(timed, nominal_busy),
    }
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "errors": tally.errors,
    }


def print_report(name: str, report: dict[str, Any]) -> None:
    rows = {**report["metrics"], **report["extra"]}
    for metric, entry in rows.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    rate = report["failed"] / max(report["attempted"], 1)
    print(f"{name} error_rate {rate:.6g} failed/attempted "
          f"({report['failed']}/{report['attempted']})")
    for error in report["errors"]:
        print(f"{name} error: {error}", file=sys.stderr)


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #

def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace seed (0 is the default, 1 is held out)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds of timed work per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--json", type=Path, help="also write the full report here")
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> dict[str, Any]:
    """Each workload in its own interpreter, one after another."""
    reports = {}
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name in WORKLOADS:
            out = Path(tmp) / f"{name}.json"
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--json", str(out)]
            with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                try:
                    stdout, _ = proc.communicate()
                finally:
                    if proc.poll() is None:  # interrupted: let it stop its server
                        proc.terminate()
                        proc.wait()
            print("\n".join(stdout.splitlines()[:-1]), flush=True)
            if not out.exists():
                raise SystemExit(f"workload {name} exited {proc.returncode} without a report")
            reports.update(json.loads(out.read_text())["workloads"])
    return reports


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a started server is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no SimMR sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        reports = _run_all(args)
    else:
        hold_to_one_cpu()
        report = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
        print_report(args.workload, report)
        reports = {args.workload: report}
    if args.json is not None:
        args.json.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workloads": reports,
        }, indent=1))
    if args.workload is None:
        metrics = {
            f"{name}.{metric}": entry
            for name, report in reports.items()
            for metric, entry in report["metrics"].items()
        }
    else:
        metrics = reports[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
