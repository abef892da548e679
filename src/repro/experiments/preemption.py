"""Preemption ablation: removing the Figure 7(a) "bump".

Paper Section V-B, on the df=1 curve: "There is a slight 'bump' around
the mean arrival time of 100s.  On closer inspection we found that this
is caused because the scheduler does not pre-empt tasks themselves.  So,
if a decision to allocate resources to a task has been made the slot is
not available for allocation to the earlier deadline job which just
arrived."

This experiment quantifies that explanation by re-running the Figure 7
sweep with the engine's kill-based preemption enabled (``MinEDF+P``):
earlier-deadline arrivals may kill the youngest later-deadline tasks up
to their model demand.  In the bump region the preemptive variant should
lower the deadline-exceeded metric; at very sparse arrivals both
variants coincide (nothing to preempt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cluster import ClusterConfig
from ..core.kernel import ColumnarEngine
from ..schedulers.edf import MinEDFScheduler
from ..workloads.mixes import permuted_deadline_trace, testbed_mix_profiles
from .common import format_table

__all__ = ["PreemptionAblationResult", "run_preemption_ablation"]


@dataclass
class PreemptionAblationResult:
    """Avg deadline-exceeded with and without preemption, per load point."""

    deadline_factor: float
    runs: int
    #: mean_interarrival -> {"MinEDF": value, "MinEDF+P": value, "kills": mean kills}
    cells: dict[float, dict[str, float]]

    def rows(self) -> list[dict]:
        return [
            {
                "mean_interarrival_s": ia,
                "MinEDF": v["MinEDF"],
                "MinEDF+P": v["MinEDF+P"],
                "mean_kills": v["kills"],
            }
            for ia, v in sorted(self.cells.items())
        ]

    def preemption_helps_under_load(self, load_cutoff: float = 1000.0) -> bool:
        """Preemptive total <= plain total over the loaded region."""
        plain = sum(v["MinEDF"] for ia, v in self.cells.items() if ia <= load_cutoff)
        preempt = sum(v["MinEDF+P"] for ia, v in self.cells.items() if ia <= load_cutoff)
        return preempt <= plain

    def __str__(self) -> str:
        return format_table(
            self.rows(),
            title=(
                f"Preemption ablation (df={self.deadline_factor}, {self.runs} runs/point):"
                " avg relative deadline exceeded"
            ),
        )


def run_preemption_ablation(
    mean_interarrivals: Sequence[float] = (10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0),
    *,
    deadline_factor: float = 1.0,
    runs: int = 30,
    seed: int = 0,
    cluster: ClusterConfig = ClusterConfig(64, 64),
    executions_per_app: int = 3,
) -> PreemptionAblationResult:
    """Sweep the bump region with and without kill-based preemption."""
    profiles = testbed_mix_profiles(executions_per_app, seed=seed)
    cells: dict[float, dict[str, float]] = {}
    for ia in mean_interarrivals:
        plain_total = 0.0
        preempt_total = 0.0
        kills_total = 0
        for r in range(runs):
            run_seed = np.random.default_rng((seed, int(ia), r))
            trace = permuted_deadline_trace(
                profiles, ia, deadline_factor, cluster, seed=run_seed
            )
            plain = ColumnarEngine(
                cluster, MinEDFScheduler(), record_tasks=False
            ).run(trace)
            preempt_engine = ColumnarEngine(
                cluster,
                MinEDFScheduler(preemptive=True),
                preemption=True,
                record_tasks=True,  # records needed to count kills
            )
            preempt = preempt_engine.run(trace)
            plain_total += plain.relative_deadline_exceeded()
            preempt_total += preempt.relative_deadline_exceeded()
            kills_total += sum(1 for t in preempt.task_records if t.killed)
        cells[float(ia)] = {
            "MinEDF": plain_total / runs,
            "MinEDF+P": preempt_total / runs,
            "kills": kills_total / runs,
        }
    return PreemptionAblationResult(
        deadline_factor=deadline_factor, runs=runs, cells=cells
    )
