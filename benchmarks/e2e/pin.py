#!/usr/bin/env python3
"""Regenerate ``digests.json``: the outputs the benchmark checks runs against.

Usage (from the repository root)::

    python benchmarks/e2e/pin.py

For seeds 0 and 1 it simulates every cell a workload can ask for on
the run's traces (the sweep grids, the sweep-dynamic pass and set-up
cells, the service's warmed cells and its first ``NEW_CELLS`` new
cells) and records each cell's event digest, plus the Fig. 5 FIFO
replay error.
Regenerate only when a change is meant to alter simulated results, and
say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import (
    JOBS,
    MEAN_INTERARRIVAL,
    PINNED_PATH,
    SETUP_TRACES,
    STATIC,
    TASKS,
    TASKS_BAND,
    TRACE_IDS,
    TRACE_OFFSETS,
    SweepDynamic,
    cell_id,
    dynamic_tasks,
    dynamic_warm_tasks,
    performance_trace,
    service_new_cell,
    service_warm_tasks,
    sweep_tasks,
)

SEEDS = (0, 1)
#: New service cells pinned per seed; a run asking for more checks the
#: rest only against itself.
NEW_CELLS = 150


def pin(seed: int) -> dict:
    from repro.experiments.accuracy import run_accuracy
    from repro.parallel.executor import simulate_many

    ids = list(TRACE_IDS[:SETUP_TRACES])
    tasks = [service_new_cell(k, ids) for k in range(NEW_CELLS)] + dynamic_tasks(list(TRACE_IDS))
    for trace_id in ids:
        tasks += sweep_tasks(STATIC + ("fair",), trace_id) + service_warm_tasks(trace_id)
    for trace_id in TRACE_IDS[:SweepDynamic.setups]:
        tasks += dynamic_warm_tasks(trace_id)
    unique = {cell_id(task): task for task in tasks}
    traces = {trace_id: performance_trace(seed, i) for i, trace_id in enumerate(TRACE_IDS)}
    outcomes = simulate_many(traces, list(unique.values()))
    replay_error_pct, _ = run_accuracy("FIFO", executions_per_app=3, seed=seed).simmr_errors()
    return {
        "cells": {cell: o.result.event_digest for cell, o in zip(unique, outcomes)},
        "replay_error_pct": replay_error_pct,
    }


def main() -> int:
    doc = {
        "trace": {
            "jobs": JOBS,
            "mean_interarrival": MEAN_INTERARRIVAL,
            "seed_offsets": list(TRACE_OFFSETS),
            "tasks": TASKS,
            "tasks_band": TASKS_BAND,
        },
        "seeds": {str(seed): pin(seed) for seed in SEEDS},
    }
    PINNED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
