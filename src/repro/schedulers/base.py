"""The pluggable scheduling-policy interface.

SimMR communicates with the scheduling policy "using a very narrow
interface consisting of the following functions:
``CHOOSENEXTMAPTASK(jobQ)`` and ``CHOOSENEXTREDUCETASK(jobQ)``" (paper
Section III-B).  These return the job whose map (reduce) task should be
dispatched next, or ``None`` to leave the remaining slots idle.

The engine hands the policy only *eligible* jobs — jobs with an
undispatched task of the requested kind, past the ``minMapPercentCompleted``
threshold for reduces, and below their ``wanted_*_slots`` cap if a policy
set one (the hook MinEDF uses to pin each job to its model-derived minimal
allocation).

``on_job_arrival`` / ``on_job_departure`` are optional notification hooks;
stateless policies ignore them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cluster import ClusterConfig
    from ..core.job import Job

__all__ = [
    "Scheduler",
    "ShareSchedulerMixin",
    "StaticPriorityScheduler",
]


class Scheduler(ABC):
    """Base class for SimMR scheduling policies."""

    #: Human-readable policy name, shown in results and experiment tables.
    name: str = "scheduler"

    #: Performance hook.  When True, the policy promises that
    #: :meth:`priority_key` is *constant over a job's lifetime* and that
    #: ``choose_next_*`` would always return the eligible job with the
    #: smallest key.  The engine then serves dispatches from a priority
    #: heap in O(log n) instead of scanning the job queue per dispatch —
    #: provably the same schedule, just faster.  Policies whose choice
    #: depends on mutable state (e.g. Fair's running-task counts) must
    #: leave this False.
    static_priority: bool = False

    def priority_key(self, job: "Job") -> tuple:
        """Total-order key for ``static_priority`` policies (lower = first)."""
        raise NotImplementedError(
            f"{type(self).__name__} sets static_priority but defines no priority_key"
        )

    def on_job_arrival(self, job: "Job", time: float, cluster: "ClusterConfig") -> None:
        """Called when ``job`` is submitted (before any allocation)."""

    def on_job_departure(self, job: "Job", time: float) -> None:
        """Called when ``job`` completes."""

    def preemption_requests(
        self,
        job: "Job",
        running_jobs: Sequence["Job"],
        cluster: "ClusterConfig",
        free_map_slots: int,
        free_reduce_slots: int,
    ) -> list[tuple["Job", str, int]]:
        """Tasks to kill on ``job``'s arrival, as ``(victim, kind, count)``.

        Consulted only when the engine runs with ``preemption=True``.
        Hadoop preempts by killing: the victims' attempts lose all
        progress and rerun later.  The paper identifies the *absence* of
        this ("the scheduler does not pre-empt tasks") as the cause of
        the deadline-miss bump around 100 s inter-arrival in Figure 7(a);
        preemptive policies override this hook to remove it.  Default: no
        preemption.
        """
        return []

    @abstractmethod
    def choose_next_map_task(self, job_queue: Sequence["Job"]) -> Optional["Job"]:
        """Pick the job whose next map task should run, or ``None``.

        ``job_queue`` contains only map-eligible jobs, in submission order.
        """

    @abstractmethod
    def choose_next_reduce_task(self, job_queue: Sequence["Job"]) -> Optional["Job"]:
        """Pick the job whose next reduce task should run, or ``None``.

        ``job_queue`` contains only reduce-eligible jobs, in submission
        order.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ShareSchedulerMixin:
    """Opt-in contract for group-share policies (Fair, DP, Capacity).

    These policies share one decision shape.  Every job belongs to a
    *group* (a pool, user or queue) fixed for the whole run.  A free
    slot of one kind goes to the eligible job minimising::

        (group running / group weight, job key)

    where *group running* sums that kind's running tasks over the
    group's **eligible** jobs only (the candidates ``choose_next_*``
    sees), and the job key is ``(running, submit_time, job_id)`` when
    :attr:`share_rank_by_running` is set (Fair) and ``(submit_time,
    job_id)`` otherwise.  Budgeted policies (:attr:`share_budgeted`,
    DynamicPriority) additionally leave out groups whose budget is
    spent, fall back to ``(submit_time, job_id)`` over every candidate
    when no candidate's group is paying, and charge a paying group for
    each task it is granted.

    Declaring the shape lets the columnar kernel keep per-group running
    sums and candidate sets as events change them, so each decision
    scans the groups instead of the job queue.  The policy's own
    ``choose_next_*`` stays the reference: it must pick exactly the job
    described above, which ``tests/test_columnar_kernel.py`` asserts by
    event digest.
    """

    #: Envelope flag the kernel checks; the mixin's presence is the opt-in.
    share_capable: bool = True
    #: Rank jobs inside a group by running tasks first (Fair).
    share_rank_by_running: bool = False
    #: Groups hold budgets (see :meth:`share_paying`, :meth:`share_charge`).
    share_budgeted: bool = False

    def share_group(self, job: "Job") -> str:
        """The group ``job`` belongs to; constant over the run."""
        raise NotImplementedError(
            f"{type(self).__name__} mixes in ShareSchedulerMixin but "
            "defines no share_group"
        )

    def share_weight(self, group: str) -> float:
        """The group's positive weight; constant over the run."""
        raise NotImplementedError(
            f"{type(self).__name__} mixes in ShareSchedulerMixin but "
            "defines no share_weight"
        )

    def share_paying(self, group: str) -> bool:
        """Whether the group has budget left (budgeted policies)."""
        return True

    def share_charge(self, group: str, slot_seconds: float) -> bool:
        """Charge a paying group for a granted task; True if still paying.

        ``slot_seconds`` is the duration of the task about to be
        dispatched: for a map, the job's map duration at index
        ``maps_dispatched``; for a reduce, the typical shuffle plus
        reduce duration at index ``reduces_dispatched``.
        """
        return True


class StaticPriorityScheduler(Scheduler):
    """Base for policies fully determined by a constant per-job priority.

    Subclasses define :meth:`priority_key` only; both ``choose_next_*``
    sides of the narrow interface are derived from it, so the heap fast
    path and the dynamic path cannot drift apart (simlint rule SIM003
    flags subclasses that override ``choose_next_*`` anyway).
    """

    static_priority = True

    @abstractmethod
    def priority_key(self, job: "Job") -> tuple:
        """Total-order key (lower = dispatched first), constant per job."""

    # The one sanctioned choose_next_* implementation for static
    # policies: exactly what the engine's fast-path heap computes.
    def choose_next_map_task(  # simlint: disable=SIM003
        self, job_queue: Sequence["Job"]
    ) -> Optional["Job"]:
        return min(job_queue, key=self.priority_key, default=None)

    def choose_next_reduce_task(  # simlint: disable=SIM003
        self, job_queue: Sequence["Job"]
    ) -> Optional["Job"]:
        return min(job_queue, key=self.priority_key, default=None)
