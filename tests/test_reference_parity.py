"""The library's own engine callers against the reference engine.

The planner, ``T_J`` and the slow-start, preemption and progress
experiments run :class:`ColumnarEngine`.  Each test runs one of them
as shipped, checks the kernel did the work, then runs it again with
its module's engine swapped for :class:`SimulatorEngine` and asserts
the same answer.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine
from repro.experiments import ablations, preemption, progress
from repro.experiments.performance import make_performance_trace
from repro import planner
from repro.trace import deadlines
from repro.workloads import mixes

from conftest import run_engine


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count the runs :class:`ColumnarEngine` makes."""
    runs = []
    real = ColumnarEngine.run

    def counting(self, trace):
        runs.append(self)
        return real(self, trace)

    monkeypatch.setattr(ColumnarEngine, "run", counting)
    return runs


@pytest.fixture
def on_reference(monkeypatch, kernel_runs):
    """``compute()`` with ``module``'s engine swapped for the reference;
    no kernel run may happen meanwhile, so the comparison is not vacuous."""

    def run(module, compute):
        before = len(kernel_runs)
        with monkeypatch.context() as patch:
            if hasattr(module, "ColumnarEngine"):
                patch.setattr(module, "ColumnarEngine", SimulatorEngine)
            else:
                patch.setattr(module, "simulate", functools.partial(run_engine, SimulatorEngine))
            answer = compute()
        assert len(kernel_runs) == before
        return answer

    return run


def test_planner_chooses_the_same_cluster(on_reference, kernel_runs):
    trace = make_performance_trace(30, mean_interarrival=10, seed=3)
    sizer = planner.ClusterPlanner(max_map_slots=512)

    def chosen():
        return (
            sizer.min_cluster_for_makespan(trace, 2500.0),
            sizer.min_cluster_for_makespan(trace, 900.0),
        )

    kernel = chosen()
    assert kernel_runs and kernel[0] is not None
    assert on_reference(planner, chosen) == kernel


def test_solo_completion_time_is_the_same(on_reference, kernel_runs):
    profiles = mixes.testbed_mix_profiles(1, seed=0)
    cluster = ClusterConfig(64, 64)

    def solo_times():
        deadlines.clear_solo_cache()
        return [
            deadlines.solo_completion_time(p, cluster, pct)
            for p in profiles for pct in (0.0, 0.05, 1.0)
        ]

    kernel = solo_times()
    assert len(kernel_runs) == len(kernel)
    assert on_reference(deadlines, solo_times) == kernel
    deadlines.clear_solo_cache()


def test_slowstart_ablation_rows_are_the_same(on_reference, kernel_runs):
    kernel = ablations.run_slowstart_ablation().rows()
    assert kernel_runs
    rows = on_reference(ablations, lambda: ablations.run_slowstart_ablation().rows())
    assert rows == kernel


def test_preemption_ablation_cells_and_kills_are_the_same(on_reference, kernel_runs):
    def cells():
        return preemption.run_preemption_ablation((10.0, 100.0), runs=2).cells

    kernel = cells()
    assert {engine.last_path for engine in kernel_runs} == {"kernel"}
    assert all(cell["kills"] > 0 for cell in kernel.values())
    assert on_reference(preemption, cells) == kernel


def test_progress_intervals_are_the_same(on_reference, kernel_runs):
    def intervals():
        result = progress.run_progress(32, 32, num_maps=60, num_reduces=40)
        return (
            result.map_intervals, result.shuffle_intervals, result.reduce_intervals,
            result.makespan, result.map_waves, result.reduce_waves, result.map_stage_end,
        )

    kernel = intervals()
    assert kernel_runs
    assert on_reference(progress, intervals) == kernel
