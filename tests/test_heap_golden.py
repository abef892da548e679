"""Golden heap-engine corpus: pinned event streams of generated runs.

Each case is a small tie-heavy trace drawn from a seeded generator and
run under one policy, cluster shape and slow-start.  The corpus covers
what the heap loop has to get exactly right: preemption kill order,
zero-time tasks, slot caps, workflow dependencies (``depends_on``), a
pluggable shuffle model, an uncontracted dynamic policy (Flex), the
group-share contract and a dynamic policy tree.  Per case,
``tests/golden/heap_corpus.json`` pins the event digest, the number of
events popped and the stall message (``null`` for a run that finished).

Both engines must reproduce every case, and under the full sanitizer
no case may break an invariant.  Regenerate the file only for a
deliberate change to the event semantics::

    PYTHONPATH=src python tests/test_heap_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClusterConfig, JobProfile, TraceJob
from repro.core.engine import SimulatorEngine
from repro.core.kernel import ColumnarEngine
from repro.core.shuffle import NetworkShuffleModel
from repro.sanitize import Sanitizer
from repro.sanitize.digest import DigestRecorder, EventDigest
from repro.schedulers import (
    CapacityScheduler,
    CappedFIFOScheduler,
    DynamicPriorityScheduler,
    FIFOScheduler,
    FairScheduler,
    FlexScheduler,
    MaxEDFScheduler,
    MinEDFScheduler,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "heap_corpus.json"
CASES = 480

_TREE = {
    "version": 1,
    "name": "golden-mix",
    "tree": {
        "score": [
            {"feature": "running_maps", "weight": 1.0},
            {"feature": "pending_reduces", "weight": 0.25},
            {"feature": "deadline_slack", "weight": 0.001},
        ],
        "bias": 1.0,
    },
}


def _tree():
    from repro.policy.compiler import compile_policy

    return compile_policy(_TREE)


#: Policy name -> (scheduler factory, engine keyword arguments).
POLICIES = {
    "FIFO": (FIFOScheduler, {}),
    "MaxEDF": (MaxEDFScheduler, {}),
    "MinEDF": (MinEDFScheduler, {}),
    "Capped(1x1)": (lambda: CappedFIFOScheduler(1, 1), {}),
    "Capped(2xNone)": (lambda: CappedFIFOScheduler(2, None), {}),
    "Capped(Nonex1)": (lambda: CappedFIFOScheduler(None, 1), {}),
    "MaxEDF+P": (lambda: MaxEDFScheduler(preemptive=True), {"preemption": True}),
    "MinEDF+P": (lambda: MinEDFScheduler(preemptive=True), {"preemption": True}),
    "Fair": (FairScheduler, {}),
    "Fair+P": (lambda: FairScheduler(preemptive=True), {"preemption": True}),
    "DP(budgets)": (
        lambda: DynamicPriorityScheduler(
            {"a": (2.0, 3.0), "b": (4.0, 1.0)}, default_account=(1.0, 2.0)
        ),
        {},
    ),
    "Capacity": (
        lambda: CapacityScheduler(
            {"front": 0.7, "back": 0.3},
            queue_of=lambda job: "front" if job.profile.name == "a" else "back",
        ),
        {},
    ),
    "Flex(avg_response)": (lambda: FlexScheduler("avg_response"), {}),
    "Flex(max_stretch)": (lambda: FlexScheduler("max_stretch"), {}),
    "tree(mix)": (_tree, {}),
}
_POLICY_NAMES = sorted(POLICIES)
_CLUSTERS = ((1, 1), (2, 1), (3, 2), (4, 4), (16, 16), (2, 0))
_SLOWSTARTS = (0.0, 0.05, 0.5, 1.0)
_TIMES = (0.0, 1.0, 2.5)


def make_case(index: int) -> dict:
    """Case ``index`` of the corpus: its run settings and its trace."""
    rng = np.random.default_rng(index)
    policy = _POLICY_NAMES[index % len(_POLICY_NAMES)]
    cluster = _CLUSTERS[int(rng.integers(len(_CLUSTERS)))]
    slowstart = _SLOWSTARTS[int(rng.integers(len(_SLOWSTARTS)))]
    shuffle = bool(rng.random() < 0.2)
    zero_time = bool(rng.random() < 0.5)
    dependent = bool(rng.random() < 0.3)
    pool = (0.0, 1.0, 2.0) if zero_time else (1.0, 2.0, 2.5)

    def durations(most: int) -> list[float]:
        return [float(rng.choice(pool)) for _ in range(int(rng.integers(1, most + 1)))]

    trace = []
    for i in range(int(rng.integers(1, 7))):
        num_maps = int(rng.integers(0, 7))
        num_reduces = int(rng.integers(0, 5))
        if num_maps == num_reduces == 0:
            num_maps = 1
        profile = JobProfile(
            name=str(rng.choice(["a", "b", "c"])),
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=durations(3),
            first_shuffle_durations=durations(2),
            typical_shuffle_durations=durations(2),
            reduce_durations=durations(2),
        )
        submit = float(rng.choice(_TIMES))
        deadline = [None, 3.0, 8.0][int(rng.integers(3))]
        if deadline is not None and deadline < submit:
            deadline = None
        parent = None
        if dependent and i and rng.random() < 0.5:
            parent = int(rng.integers(i))
        trace.append(TraceJob(profile, submit, deadline=deadline, depends_on=parent))
    return {
        "policy": policy,
        "cluster": list(cluster),
        "slowstart": slowstart,
        "shuffle": shuffle,
        "trace": trace,
    }


def run_case(engine_cls, case: dict, recorder=None) -> dict:
    """Run ``case`` on ``engine_cls``: digest, events popped, stall message.

    ``recorder`` is the run's observer, a fresh ``DigestRecorder`` when
    None.
    """
    factory, kwargs = POLICIES[case["policy"]]
    if recorder is None:
        recorder = DigestRecorder(EventDigest(keep_events=False))
    engine = engine_cls(
        ClusterConfig(*case["cluster"]),
        factory(),
        min_map_percent_completed=case["slowstart"],
        shuffle_model=NetworkShuffleModel(64.0, 32.0) if case["shuffle"] else None,
        sanitizer=recorder,
        **kwargs,
    )
    stall = None
    try:
        engine.run(case["trace"])
    except RuntimeError as exc:
        stall = str(exc)
    return {
        "digest": recorder.hexdigest(),
        "events": recorder.digest.count,
        "stall": stall,
    }


def _settings(case: dict) -> dict:
    return {k: case[k] for k in ("policy", "cluster", "slowstart", "shuffle")}


def build_corpus() -> list[dict]:
    """Every case's settings and the object engine's outputs."""
    out = []
    for index in range(CASES):
        case = make_case(index)
        out.append({"case": index, **_settings(case), **run_case(SimulatorEngine, case)})
    return out


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_corpus_covers_every_feature(golden):
    cases = [make_case(entry["case"]) for entry in golden]
    assert len(golden) == CASES
    assert {c["policy"] for c in cases} == set(POLICIES)
    assert any(c["shuffle"] for c in cases)
    assert any(tj.depends_on is not None for c in cases for tj in c["trace"])
    assert any(
        0.0 in tj.profile.map_durations for c in cases for tj in c["trace"]
    )
    assert any(entry["stall"] for entry in golden)
    assert sum(1 for entry in golden if entry["stall"] is None) > CASES // 2


@pytest.mark.parametrize(
    "engine_cls, sanitized",
    [
        (SimulatorEngine, False),
        (ColumnarEngine, False),
        (SimulatorEngine, True),
        (ColumnarEngine, True),
    ],
    ids=["SimulatorEngine", "ColumnarEngine", "SimulatorEngine-sanitized",
         "ColumnarEngine-sanitized"],
)
def test_engines_reproduce_golden_corpus(golden, engine_cls, sanitized):
    """Every case reproduces its pinned stream; sanitized, it also breaks
    no invariant (a stalled case gets the checks of its popped prefix)."""
    mismatches = []
    violations = []
    for entry in golden:
        case = make_case(entry["case"])
        assert _settings(case) == {k: entry[k] for k in _settings(case)}, (
            f"case {entry['case']}: the generator drifted from the golden file"
        )
        recorder = Sanitizer(fail_fast=False) if sanitized else None
        got = run_case(engine_cls, case, recorder)
        want = {k: entry[k] for k in got}
        if got != want:
            mismatches.append((entry["case"], want, got))
        if recorder is not None and recorder.violations:
            violations.append((entry["case"], [str(v) for v in recorder.violations[:3]]))
    assert not mismatches, f"{len(mismatches)} case(s) differ, first: {mismatches[0]}"
    assert not violations, f"{len(violations)} case(s) violate, first: {violations[0]}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({"cases": build_corpus()}, indent=1, sort_keys=True) + "\n"
    )
    sys.stdout.write(f"wrote {CASES} cases to {GOLDEN_PATH}\n")
