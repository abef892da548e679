"""A Hadoop Capacity Scheduler style policy.

The Capacity scheduler (paper reference [2]) partitions the cluster into
named queues, each guaranteed a fraction of the slots; unused capacity in
one queue may be borrowed by others.  Within a queue, jobs run FIFO.

At SimMR's slot granularity this becomes: when a slot frees, grant it to
the queue whose current usage is furthest *below* its guaranteed share
(usage ratio = running tasks / capacity fraction), then pick the earliest
submitted job in that queue.  Queues over their share can still receive
slots when no under-share queue has demand — that is the "elastic"
borrowing behaviour.

The policy carries the :class:`~repro.schedulers.base.
ShareSchedulerMixin` contract (queues are its groups, capacity
fractions their weights), so the columnar kernel runs it with per-queue
running sums kept as events change them.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Sequence

from ..core.job import Job
from .base import Scheduler, ShareSchedulerMixin

__all__ = ["CapacityScheduler"]

QueueFn = Callable[[Job], str]


class CapacityScheduler(ShareSchedulerMixin, Scheduler):
    """Multi-queue capacity-guaranteed scheduling.

    Parameters
    ----------
    capacities:
        Queue name -> guaranteed capacity fraction.  Fractions must be
        finite and positive; they are normalized, so they need not sum to 1.
    queue_of:
        Maps a job to a queue name.  Jobs mapping to an unknown queue go
        to ``default_queue``.
    default_queue:
        Queue used for unmapped jobs; must be a key of ``capacities``.
    """

    name = "Capacity"

    def __init__(
        self,
        capacities: Mapping[str, float],
        queue_of: Optional[QueueFn] = None,
        default_queue: Optional[str] = None,
    ) -> None:
        if not capacities:
            raise ValueError("at least one queue capacity is required")
        total = float(sum(capacities.values()))
        if not math.isfinite(total) or any(
            not (math.isfinite(c) and c > 0) for c in capacities.values()
        ):
            raise ValueError("queue capacities must be finite and positive")
        self.capacities: dict[str, float] = {q: c / total for q, c in capacities.items()}
        self.default_queue = default_queue if default_queue is not None else next(iter(capacities))
        if self.default_queue not in self.capacities:
            raise ValueError(f"default queue {self.default_queue!r} not in capacities")
        self.queue_of: QueueFn = queue_of or (lambda job: self.default_queue)

    def _queue(self, job: Job) -> str:
        q = self.queue_of(job)
        return q if q in self.capacities else self.default_queue

    def _choose(self, job_queue: Sequence[Job], kind: str) -> Optional[Job]:
        if not job_queue:
            return None
        running = (lambda j: j.running_maps) if kind == "map" else (
            lambda j: j.running_reduces
        )
        usage: dict[str, int] = {}
        for job in job_queue:
            q = self._queue(job)
            usage[q] = usage.get(q, 0) + running(job)

        def key(job: Job) -> tuple[float, float, int]:
            q = self._queue(job)
            ratio = usage[q] / self.capacities[q]
            return (ratio, job.submit_time, job.job_id)

        return min(job_queue, key=key)

    def choose_next_map_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "map")

    def choose_next_reduce_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "reduce")

    # -- share contract (the kernel's per-queue decision state) ----------

    def share_group(self, job: Job) -> str:
        return self._queue(job)

    def share_weight(self, group: str) -> float:
        return self.capacities[group]
