"""Dynamic Priority (DP) scheduling — budget-based proportional share.

The paper lists the Dynamic Priority scheduler (Sandholm & Lai, JSSPP
2010; reference [5]) among the research prototypes SimMR can evaluate.
Its market mechanism, reproduced at SimMR's slot granularity:

* each *user* holds a budget and declares a **spending rate** (a bid, in
  budget units per slot-second);
* cluster capacity is divided among users with remaining budget in
  proportion to their spending rates — a user bidding twice as much gets
  twice the slots;
* budget is charged for the slot-seconds actually consumed (here: at
  task dispatch, for the dispatched task's duration — the engine is
  trace-driven, so durations are known);
* a user whose budget runs out keeps only best-effort access: their jobs
  compete FIFO for slots no paying user wants.

The policy is usage-dependent, so the object engine consults it through
the narrow interface per dispatch.  It also carries the
:class:`~repro.schedulers.base.ShareSchedulerMixin` contract (users are
its groups, budgets the charge), so the columnar kernel runs it with
per-user running sums kept as events change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..core.job import Job
from .base import Scheduler, ShareSchedulerMixin

__all__ = ["UserAccount", "DynamicPriorityScheduler"]

UserFn = Callable[[Job], str]


@dataclass
class UserAccount:
    """One user's market state."""

    name: str
    budget: float
    spending_rate: float
    spent: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails each check; an infinite budget (the
        # default account's) stays valid.
        if not self.budget >= 0:
            raise ValueError(f"user {self.name!r}: budget must be >= 0")
        if not (math.isfinite(self.spending_rate) and self.spending_rate > 0):
            raise ValueError(
                f"user {self.name!r}: spending rate must be finite and > 0"
            )

    @property
    def remaining(self) -> float:
        return self.budget - self.spent

    @property
    def paying(self) -> bool:
        return self.remaining > 0

    def charge(self, slot_seconds: float) -> None:
        """Charge for consumed slot-seconds at this user's rate."""
        self.spent += self.spending_rate * slot_seconds


def _default_user(job: Job) -> str:
    return job.profile.name


class DynamicPriorityScheduler(ShareSchedulerMixin, Scheduler):
    """Proportional-share slot allocation driven by per-user bids.

    Parameters
    ----------
    accounts:
        User name -> :class:`UserAccount` (or ``(budget, spending_rate)``
        tuple).  Jobs of unknown users get the ``default_account`` terms.
    user_of:
        Maps a job to its user name; defaults to the application name.
    default_account:
        ``(budget, spending_rate)`` for users absent from ``accounts``.
    """

    name = "DynamicPriority"
    share_budgeted = True

    def __init__(
        self,
        accounts: Optional[Mapping[str, UserAccount | tuple[float, float]]] = None,
        user_of: Optional[UserFn] = None,
        default_account: tuple[float, float] = (float("inf"), 1.0),
    ) -> None:
        self.user_of: UserFn = user_of or _default_user
        self._default = default_account
        UserAccount("default", *default_account)  # reject bad terms now
        self.accounts: dict[str, UserAccount] = {}
        for name, acct in (accounts or {}).items():
            if isinstance(acct, tuple):
                acct = UserAccount(name, *acct)
            self.accounts[name] = acct

    def account(self, user: str) -> UserAccount:
        """The user's account, created with default terms on first use."""
        acct = self.accounts.get(user)
        if acct is None:
            acct = UserAccount(user, *self._default)
            self.accounts[user] = acct
        return acct

    # ------------------------------------------------------------------ #

    def _task_cost(self, job: Job, kind: str) -> float:
        """Slot-seconds of the task about to be dispatched for ``job``."""
        profile = job.profile
        if kind == "map":
            return profile.map_duration(job.maps_dispatched)
        index = job.reduces_dispatched
        return profile.typical_shuffle_duration(index) + profile.reduce_duration(index)

    def _choose(self, job_queue: Sequence[Job], kind: str) -> Optional[Job]:
        if not job_queue:
            return None
        running = (lambda j: j.running_maps) if kind == "map" else (
            lambda j: j.running_reduces
        )
        # Usage per user of this task kind, for the proportional share.
        usage: dict[str, int] = {}
        for job in job_queue:
            user = self.user_of(job)
            usage[user] = usage.get(user, 0) + running(job)

        paying = [j for j in job_queue if self.account(self.user_of(j)).paying]
        if paying:
            def key(job: Job) -> tuple[float, float, int]:
                user = self.user_of(job)
                share = self.account(user).spending_rate
                return (usage[user] / share, job.submit_time, job.job_id)

            chosen = min(paying, key=key)
        else:
            # Everyone is broke: best-effort FIFO.
            chosen = min(job_queue, key=lambda j: (j.submit_time, j.job_id))

        acct = self.account(self.user_of(chosen))
        if acct.paying:
            acct.charge(self._task_cost(chosen, kind))
        return chosen

    def choose_next_map_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "map")

    def choose_next_reduce_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "reduce")

    # -- share contract (the kernel's per-user decision state) -----------

    def share_group(self, job: Job) -> str:
        return self.user_of(job)

    def share_weight(self, group: str) -> float:
        return self.account(group).spending_rate

    def share_paying(self, group: str) -> bool:
        return self.account(group).paying

    def share_charge(self, group: str, slot_seconds: float) -> bool:
        acct = self.account(group)
        acct.charge(slot_seconds)
        return acct.paying
