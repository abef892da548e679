"""Parameter sweeps: the "what-if questions" harness.

The paper's closing pitch: "SimMR can quickly replay production cluster
workloads with different scenarios of interest, assess various what-if
questions, and help avoiding error-prone decisions."  This module runs
the cartesian product of (scheduler, cluster shape, slow-start) over one
trace and tabulates the decision metrics, each cell being a sub-second
replay.

Two layers:

* :func:`expand_grid` — the sweep grid: validated, deduplicated,
  deterministic-order cartesian expansion of the three axes into
  :class:`GridPoint` cells.
* :func:`run_sweep` — replay every cell, optionally fanned out over a
  worker pool and backed by the content-addressed result cache
  (:mod:`repro.parallel`): ``workers=N`` parallelizes, ``cache=`` makes
  re-runs incremental (only cells whose trace/scheduler/config changed
  re-execute), and every cell carries a BLAKE2b event digest so the
  serial, parallel and cached paths can be asserted identical.

Use :class:`ClusterPlanner` when the question is "how big a cluster";
use a sweep when it is "which configuration of this cluster".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .core.cluster import ClusterConfig
from .core.job import TraceJob
from .experiments.common import format_table
from .parallel.cache import ResultCache
from .parallel.executor import ProgressFn, SchedulerSpec, SimTask, simulate_many
from .schedulers import Scheduler

__all__ = [
    "GridPoint",
    "SweepCell",
    "SweepResult",
    "expand_grid",
    "run_sweep",
]

SchedulerFactory = Callable[[], Scheduler]
SchedulerAxis = Union[
    Mapping[str, SchedulerFactory], Sequence[Union[str, SchedulerSpec]]
]


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid, before execution."""

    scheduler: SchedulerSpec
    cluster: ClusterConfig
    slowstart: float


def _scheduler_axis(schedulers: SchedulerAxis) -> list[SchedulerSpec]:
    """Normalize the scheduler axis to :class:`SchedulerSpec` entries.

    Accepts registry names (``"fifo"``), prebuilt specs (e.g.
    ``SchedulerSpec(kind="zoo", name="Fair")``), or a mapping of display
    name to zero-argument factory (wrapped as inline specs, which run
    in-process and bypass the cache — a closure has no content address).
    """
    if isinstance(schedulers, Mapping):
        return [
            SchedulerSpec.inline(name, factory)
            for name, factory in schedulers.items()
        ]
    specs: list[SchedulerSpec] = []
    for entry in schedulers:
        if isinstance(entry, SchedulerSpec):
            specs.append(entry)
        else:
            specs.append(SchedulerSpec(kind="registry", name=entry))
    return specs


def expand_grid(
    schedulers: SchedulerAxis,
    clusters: Sequence[ClusterConfig],
    slowstarts: Sequence[float],
) -> list[GridPoint]:
    """Expand the three sweep axes into an ordered list of grid points.

    * An **empty axis** is rejected with a :class:`ValueError` naming
      the axis — an empty cartesian product would silently sweep
      nothing.
    * **Duplicate configurations** (e.g. the same cluster shape listed
      twice, or two names resolving to equal specs) are dropped,
      keeping the first occurrence, so a duplicated axis entry cannot
      double-count a cell or double its cost.
    * Order is deterministic: schedulers outermost, then clusters, then
      slow-starts, each in the order given.
    """
    specs = _scheduler_axis(schedulers)
    if not specs:
        raise ValueError("at least one scheduler is required (empty schedulers axis)")
    if not clusters:
        raise ValueError("at least one cluster is required (empty clusters axis)")
    if not slowstarts:
        raise ValueError("at least one slow-start is required (empty slowstarts axis)")
    points: list[GridPoint] = []
    seen: set[tuple] = set()
    for spec in specs:
        for cluster in clusters:
            for slowstart in slowstarts:
                point = GridPoint(spec, cluster, float(slowstart))
                dedup_key = (spec.kind, spec.name, spec.kwargs, cluster, point.slowstart)
                if dedup_key in seen:
                    continue
                seen.add(dedup_key)
                points.append(point)
    return points


@dataclass(frozen=True, slots=True)
class SweepCell:
    """Metrics of one configuration's replay."""

    scheduler: str
    map_slots: int
    reduce_slots: int
    slowstart: float
    makespan: float
    mean_duration: float
    p95_duration: float
    deadline_utility: float
    #: True when this cell was restored from the result cache.
    cached: bool = False
    #: BLAKE2b fingerprint of the replay's event stream (None when the
    #: sweep ran with ``digest=False``).
    event_digest: Optional[str] = None
    #: Which execution path produced this cell: ``"kernel"`` or
    #: ``"object"`` (None on results predating the accounting).
    engine_path: Optional[str] = None

    def row(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "map_slots": self.map_slots,
            "reduce_slots": self.reduce_slots,
            "slowstart": self.slowstart,
            "makespan_s": self.makespan,
            "mean_T_J_s": self.mean_duration,
            "p95_T_J_s": self.p95_duration,
            "deadline_utility": self.deadline_utility,
            "engine_path": self.engine_path or "",
        }


@dataclass
class SweepResult:
    """All swept cells, with ranking helpers and cache accounting."""

    cells: list[SweepCell]
    #: Number of cells served from the result cache (0 without a cache).
    cache_hits: int = 0

    @property
    def executed(self) -> int:
        """Cells that actually ran a simulation this time."""
        return len(self.cells) - self.cache_hits

    def rows(self) -> list[dict]:
        return [c.row() for c in self.cells]

    def best_by(self, metric: str) -> SweepCell:
        """The cell minimizing ``makespan`` / ``mean_duration`` /
        ``p95_duration`` / ``deadline_utility``."""
        if not self.cells:
            raise ValueError("empty sweep")
        try:
            return min(self.cells, key=lambda c: getattr(c, metric))
        except AttributeError:
            raise ValueError(
                f"unknown metric {metric!r}; one of makespan, mean_duration, "
                "p95_duration, deadline_utility"
            ) from None

    def __str__(self) -> str:
        return format_table(self.rows(), title=f"What-if sweep ({len(self.cells)} cells)")


def _p95(values: np.ndarray) -> float:
    """``float(np.percentile(values, 95))`` bit for bit, without its
    per-call machinery (~34 µs on a 120-value cell).

    numpy's default "linear" method: the virtual index ``(n - 1) * 0.95``
    into the sorted values, then the same two-sided interpolation, which
    counts from the upper neighbour once the weight reaches one half.
    """
    ordered = np.sort(values)
    last = ordered.size - 1
    virtual = last * 0.95
    below = int(virtual)
    if below >= last:  # one value: numpy returns it
        return float(ordered[last])
    lo = float(ordered[below])
    hi = float(ordered[below + 1])
    weight = virtual - below
    step = hi - lo
    if weight >= 0.5:
        return hi - step * (1 - weight)
    return lo + step * weight


def run_sweep(
    trace: Sequence[TraceJob],
    *,
    schedulers: SchedulerAxis = ("fifo",),
    clusters: Sequence[ClusterConfig] = (ClusterConfig(64, 64),),
    slowstarts: Sequence[float] = (0.05,),
    workers: int = 0,
    cache: "ResultCache | str | Path | bool | None" = None,
    fresh: bool = False,
    digest: bool = True,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Replay ``trace`` under every configuration combination.

    ``schedulers`` is either registry names (see
    :func:`repro.schedulers.make_scheduler`), prebuilt
    :class:`~repro.parallel.executor.SchedulerSpec` entries, or a
    mapping of display name to zero-argument factory (in-process only).

    ``workers``, ``cache``, ``fresh``, ``digest`` and ``progress`` are
    forwarded to :func:`repro.parallel.executor.simulate_many`:
    ``workers=N`` fans the grid out over ``N`` processes, ``cache=``
    enables the content-addressed result cache (``True`` = the default
    cache file, or a path / open :class:`ResultCache`), ``fresh=True``
    forces re-execution while still repopulating the cache.  Results
    are identical on every path — each cell's ``event_digest``
    fingerprints the replay, and the cache key covers everything that
    determines the outcome.
    """
    if not trace:
        raise ValueError("cannot sweep an empty trace")
    points = expand_grid(schedulers, clusters, slowstarts)

    tasks = [
        SimTask(
            trace_id="trace",
            scheduler=p.scheduler,
            cluster=p.cluster,
            slowstart=p.slowstart,
            record_tasks=False,
            tag=p,
        )
        for p in points
    ]
    outcomes = simulate_many(
        {"trace": trace},
        tasks,
        workers=workers,
        cache=cache,
        fresh=fresh,
        digest=digest,
        progress=progress,
    )

    cells: list[SweepCell] = []
    hits = 0
    for point, outcome in zip(points, outcomes):
        result = outcome.result
        # Read from the columns: a cell builds no JobResult.
        jobs = result.job_columns
        durations = jobs.durations()
        hits += outcome.cached
        cells.append(
            SweepCell(
                scheduler=result.scheduler_name,
                map_slots=point.cluster.map_slots,
                reduce_slots=point.cluster.reduce_slots,
                slowstart=point.slowstart,
                makespan=result.makespan,
                mean_duration=float(durations.mean()),
                p95_duration=_p95(durations),
                deadline_utility=jobs.deadline_utility(),
                cached=outcome.cached,
                event_digest=result.event_digest,
                engine_path=result.engine_path,
            )
        )
    return SweepResult(cells=cells, cache_hits=hits)
