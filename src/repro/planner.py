"""Cluster capacity planning on top of the simulator.

The paper's introduction motivates SimMR with exactly this question:
"when there is a need to expand the set of production jobs ... first,
one has to evaluate whether additional resources are required, and then
how they should be allocated for meeting performance goals of the jobs".

:class:`ClusterPlanner` answers it by bisection over cluster sizes, each
probe being one (sub-second) simulation of the workload:

* :meth:`min_cluster_for_makespan` — smallest cluster finishing the
  trace within a makespan target;
* :meth:`min_cluster_for_deadlines` — smallest cluster on which every
  job meets its deadline under the chosen scheduler;
* :meth:`min_cluster_for_utility` — smallest cluster keeping the
  paper's relative-deadline-exceeded metric under a budget.

Objectives are checked to be monotone over the probed range (more slots
never hurt a work-conserving replay of the same trace); should a policy
violate that (e.g. model-driven allocations shifting discretely), the
returned size is re-verified by simulation before being reported.

The planner answers "how big a cluster"; its sibling
:mod:`repro.sweep` answers "which configuration of this cluster"
(and parallelizes/caches its replays via :mod:`repro.parallel`).
``examples/cluster_sizing.py`` walks both.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .core.cluster import ClusterConfig
from .core.kernel import ColumnarEngine
from .core.job import TraceJob
from .core.results import SimulationResult
from .schedulers.base import Scheduler

__all__ = ["ClusterPlanner"]

SchedulerFactory = Callable[[], Scheduler]


class ClusterPlanner:
    """Bisection-based cluster sizing over simulated replays.

    Parameters
    ----------
    scheduler_factory:
        Builds a fresh scheduler per probe (schedulers are stateful).
        Defaults to FIFO.
    reduce_ratio:
        Reduce slots per map slot in probed clusters (1.0 = the paper's
        symmetric testbed shape).
    max_map_slots:
        Upper bound of the search range.
    min_map_percent_completed:
        Forwarded to the engine.
    """

    def __init__(
        self,
        scheduler_factory: Optional[SchedulerFactory] = None,
        *,
        reduce_ratio: float = 1.0,
        max_map_slots: int = 4096,
        min_map_percent_completed: float = 0.05,
    ) -> None:
        if scheduler_factory is None:
            from .schedulers.fifo import FIFOScheduler

            scheduler_factory = FIFOScheduler
        if reduce_ratio <= 0:
            raise ValueError(f"reduce_ratio must be > 0, got {reduce_ratio}")
        if max_map_slots < 1:
            raise ValueError(f"max_map_slots must be >= 1, got {max_map_slots}")
        self.scheduler_factory = scheduler_factory
        self.reduce_ratio = reduce_ratio
        self.max_map_slots = max_map_slots
        self.min_map_percent_completed = min_map_percent_completed

    # ------------------------------------------------------------------ #

    def cluster_of(self, map_slots: int) -> ClusterConfig:
        """The probed cluster shape for a map-slot count."""
        return ClusterConfig(map_slots, max(1, math.ceil(map_slots * self.reduce_ratio)))

    def simulate(self, trace: list[TraceJob], map_slots: int) -> SimulationResult:
        """One probe: replay the trace on ``map_slots``-sized cluster."""
        engine = ColumnarEngine(
            self.cluster_of(map_slots),
            self.scheduler_factory(),
            min_map_percent_completed=self.min_map_percent_completed,
            record_tasks=False,
        )
        return engine.run(trace)

    def _search(
        self, trace: list[TraceJob], acceptable: Callable[[SimulationResult], bool]
    ) -> Optional[ClusterConfig]:
        """Smallest probed cluster whose replay satisfies ``acceptable``.

        Returns ``None`` when even ``max_map_slots`` fails.
        """
        if not trace:
            raise ValueError("cannot size a cluster for an empty trace")
        hi = self.max_map_slots
        if not acceptable(self.simulate(trace, hi)):
            return None
        lo = 1
        # Invariant: hi acceptable; lo - 1 (or 0) not known acceptable.
        while lo < hi:
            mid = (lo + hi) // 2
            if acceptable(self.simulate(trace, mid)):
                hi = mid
            else:
                lo = mid + 1
        # Bisection assumes monotonicity; verify the answer stands.
        if not acceptable(self.simulate(trace, hi)):  # pragma: no cover - guard
            return self.cluster_of(self.max_map_slots)
        return self.cluster_of(hi)

    # ------------------------------------------------------------------ #

    def min_cluster_for_makespan(
        self, trace: list[TraceJob], target_makespan: float
    ) -> Optional[ClusterConfig]:
        """Smallest cluster finishing the whole trace by ``target_makespan``."""
        if target_makespan <= 0:
            raise ValueError(f"target makespan must be > 0, got {target_makespan}")
        return self._search(trace, lambda r: r.makespan <= target_makespan)

    def min_cluster_for_deadlines(self, trace: list[TraceJob]) -> Optional[ClusterConfig]:
        """Smallest cluster on which no job misses its deadline."""
        if not any(j.deadline is not None for j in trace):
            raise ValueError("no job in the trace carries a deadline")
        return self._search(
            trace, lambda r: not r.jobs_missed_deadline()
        )

    def min_cluster_for_utility(
        self, trace: list[TraceJob], max_utility: float
    ) -> Optional[ClusterConfig]:
        """Smallest cluster keeping sum((T-D)/D over late jobs) <= budget."""
        if max_utility < 0:
            raise ValueError(f"utility budget must be >= 0, got {max_utility}")
        return self._search(
            trace, lambda r: r.relative_deadline_exceeded() <= max_utility
        )
