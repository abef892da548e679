"""Ablations of SimMR's design decisions (beyond the paper's figures).

Three studies isolating the choices DESIGN.md calls out:

1. **Shuffle modeling** — replay the validation trace with the shuffle
   phase stripped from the model (shuffle durations forced to zero),
   i.e. SimMR degraded to Mumak's reduce model inside SimMR's own
   engine.  The resulting error isolates how much of Mumak's inaccuracy
   comes purely from omitting the shuffle, independent of any other
   implementation difference.
2. **Reduce slow-start** (``minMapPercentCompleted``) — a job's
   completion time as the threshold sweeps 0..1.  Late reduce starts
   serialize the first shuffle after the map stage; very early starts
   waste reduce slots on fillers (invisible solo, costly under
   contention — measured both solo and with a competing job).
3. **Slot-allocation sensitivity** — the Section II motivation table:
   WordCount completion time across allocations from 32x32 to 256x256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cluster import ClusterConfig
from ..core.engine import simulate
from ..core.job import JobProfile, TraceJob
from ..hadoop.emulator import EmulatorConfig, HadoopClusterEmulator
from ..mrprofiler.profiler import profile_history
from ..schedulers.fifo import FIFOScheduler
from ..workloads.apps import APP_NAMES, make_app_specs
from .common import format_table, relative_error

__all__ = [
    "ShuffleAblationResult",
    "run_shuffle_ablation",
    "SlowstartAblationResult",
    "run_slowstart_ablation",
    "AllocationSweepResult",
    "run_allocation_sweep",
    "SpeculationAblationResult",
    "run_speculation_ablation",
]


def _strip_shuffle(profile: JobProfile) -> JobProfile:
    """The profile with its shuffle phase deleted (Mumak's reduce model)."""
    zeros = np.zeros_like
    return JobProfile(
        name=profile.name,
        num_maps=profile.num_maps,
        num_reduces=profile.num_reduces,
        map_durations=profile.map_durations,
        first_shuffle_durations=zeros(profile.first_shuffle_durations),
        typical_shuffle_durations=zeros(profile.typical_shuffle_durations),
        reduce_durations=profile.reduce_durations,
    )


@dataclass
class ShuffleAblationResult:
    """Replay error with and without the shuffle model, per application."""

    #: app -> (actual, with_shuffle, without_shuffle) mean durations
    durations: dict[str, tuple[float, float, float]]

    def rows(self) -> list[dict]:
        return [
            {
                "application": app,
                "actual_s": act,
                "with_shuffle_err_pct": relative_error(with_sh, act),
                "without_shuffle_err_pct": relative_error(without_sh, act),
            }
            for app, (act, with_sh, without_sh) in self.durations.items()
        ]

    def __str__(self) -> str:
        return format_table(self.rows(), title="Ablation: shuffle modeling on/off")


def run_shuffle_ablation(
    seed: int = 0, apps: Sequence[str] = APP_NAMES
) -> ShuffleAblationResult:
    """Quantify the error caused purely by dropping the shuffle model."""
    rng = np.random.default_rng(seed)
    specs = make_app_specs()
    trace = [TraceJob(specs[a].make_profile(rng), i * 2500.0) for i, a in enumerate(apps)]
    cfg = EmulatorConfig(seed=seed + 1)
    actual = HadoopClusterEmulator(cfg, FIFOScheduler()).run(trace)
    profiled = profile_history(actual.history_text())
    cluster = cfg.aggregate_cluster()

    replay_full = [TraceJob(pj.profile, pj.submit_time) for pj in profiled]
    replay_stripped = [
        TraceJob(_strip_shuffle(pj.profile), pj.submit_time) for pj in profiled
    ]
    sim_full = simulate(replay_full, FIFOScheduler(), cluster, record_tasks=False)
    sim_stripped = simulate(replay_stripped, FIFOScheduler(), cluster, record_tasks=False)

    durations = {}
    for i, pj in enumerate(profiled):
        durations[pj.profile.name] = (
            pj.duration,
            sim_full.jobs[i].duration,
            sim_stripped.jobs[i].duration,
        )
    return ShuffleAblationResult(durations=durations)


@dataclass
class SlowstartAblationResult:
    """Completion times across the reduce slow-start threshold."""

    #: rows of (threshold, solo duration, contended makespan)
    samples: list[tuple[float, float, float]]

    def rows(self) -> list[dict]:
        return [
            {
                "min_map_percent": pct,
                "solo_duration_s": solo,
                "contended_makespan_s": contended,
            }
            for pct, solo, contended in self.samples
        ]

    def __str__(self) -> str:
        return format_table(self.rows(), title="Ablation: reduce slow-start threshold")


def run_slowstart_ablation(
    thresholds: Sequence[float] = (0.0, 0.05, 0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> SlowstartAblationResult:
    """Sweep ``minMapPercentCompleted`` solo and under slot contention."""
    rng = np.random.default_rng(seed)
    spec = make_app_specs()["WordCount"]
    profile = spec.make_profile(rng)
    profile_b = spec.make_profile(rng)
    cluster = ClusterConfig(64, 64)
    samples = []
    for pct in thresholds:
        kw = dict(min_map_percent_completed=pct, record_tasks=False)
        solo = simulate(
            [TraceJob(profile, 0.0)], FIFOScheduler(), cluster, **kw
        ).jobs[0].duration
        contended = simulate(
            [TraceJob(profile, 0.0), TraceJob(profile_b, 10.0)], FIFOScheduler(), cluster, **kw
        ).makespan
        samples.append((float(pct), float(solo), float(contended)))
    return SlowstartAblationResult(samples=samples)


@dataclass
class AllocationSweepResult:
    """WordCount completion time vs allocated slots (Section II motivation)."""

    #: rows of (map slots, reduce slots, duration, map waves as float)
    samples: list[tuple[int, int, float]]

    def rows(self) -> list[dict]:
        return [
            {"map_slots": m, "reduce_slots": r, "duration_s": d}
            for m, r, d in self.samples
        ]

    def monotone_nonincreasing(self) -> bool:
        """More slots should never make the solo job slower."""
        durations = [d for _, _, d in sorted(self.samples)]
        return all(a >= b - 1e-9 for a, b in zip(durations, durations[1:]))

    def __str__(self) -> str:
        return format_table(self.rows(), title="Ablation: slot-allocation sensitivity")


def run_allocation_sweep(
    allocations: Sequence[tuple[int, int]] = ((32, 32), (64, 64), (128, 128), (256, 256)),
    seed: int = 0,
) -> AllocationSweepResult:
    """WordCount solo completion across slot allocations."""
    rng = np.random.default_rng(seed)
    profile = make_app_specs()["WordCount"].make_profile(rng)
    samples = []
    for m, r in allocations:
        result = simulate(
            [TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(m, r), record_tasks=False
        )
        samples.append((m, r, float(result.jobs[0].duration)))
    return AllocationSweepResult(samples=samples)


@dataclass
class SpeculationAblationResult:
    """Makespan with/without speculative execution at two noise levels."""

    #: rows of (node speed sigma, plain duration, speculative duration,
    #: backups launched)
    samples: list[tuple[float, float, float, int]]

    def rows(self) -> list[dict]:
        return [
            {
                "node_speed_sigma": sigma,
                "plain_s": plain,
                "speculative_s": spec,
                "improvement_pct": (plain - spec) / plain * 100.0,
                "backups": backups,
            }
            for sigma, plain, spec, backups in self.samples
        ]

    def __str__(self) -> str:
        return format_table(self.rows(), title="Ablation: speculative execution")


def run_speculation_ablation(
    sigmas: Sequence[float] = (0.05, 0.2, 0.4),
    seed: int = 3,
) -> SpeculationAblationResult:
    """Quantify the paper's 'speculation did not help' observation.

    At the testbed's mild node heterogeneity (sigma 0.05) backup tasks
    buy almost nothing; the improvement only appears once stragglers get
    severe — which is why the paper could disable it.
    """
    from ..hadoop.emulator import EmulatorConfig, HadoopClusterEmulator
    from ..core.job import TraceJob

    rng = np.random.default_rng(seed)
    profile = make_app_specs()["Bayes"].make_profile(rng)
    samples = []
    for sigma in sigmas:
        durations = {}
        backups = 0
        for speculative in (False, True):
            cfg = EmulatorConfig(
                node_speed_sigma=sigma,
                speculative_execution=speculative,
                seed=seed,
            )
            result = HadoopClusterEmulator(cfg).run([TraceJob(profile, 0.0)])
            durations[speculative] = result.jobs[0].duration
            if speculative:
                backups = sum(1 for t in result.tasks if t.speculative)
        samples.append((float(sigma), durations[False], durations[True], backups))
    return SpeculationAblationResult(samples=samples)
