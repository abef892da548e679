"""Digest-identity and envelope tests for the columnar kernel.

The columnar kernel (``repro.core.kernel``) is gated by one contract:
for every workload it claims, it must produce the **bit-identical**
event stream the object engine produces — same BLAKE2b digest, same
event count, same task records, same results.  These tests assert that
contract across the full scheduler zoo, the slow-start range, slot
caps, degenerate job shapes, live preemption (replay mode), dynamic
schedulers on the replay mode (the group-share policies Fair,
DynamicPriority and Capacity, and compiled policy trees and Flex through
``choose_next_*``), and the simsan dual-run divergence check, and pin
the pass-mode envelope.  See ``docs/engine-internals.md`` for the
design.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ClusterConfig, JobProfile, JobState, TraceJob, simulate
from repro.core.job import Job
from repro.core.kernel import ColumnarEngine
from repro.experiments.scheduler_zoo import ZOO_POLICIES
from repro.sanitize.digest import DigestRecorder, EventDigest, dual_run
from repro.sanitize.sanitizer import Sanitizer
from repro.schedulers import (
    CappedFIFOScheduler,
    FIFOScheduler,
    FairScheduler,
    FlexScheduler,
    MaxEDFScheduler,
    MinEDFScheduler,
)

from conftest import make_constant_profile, make_random_profile

#: Static-priority zoo policies.  Pass mode runs them while no arrival
#: hook sets a slot cap; MinEDF caps each job that has a deadline, so on
#: a trace with deadlines it takes replay mode.
STATIC_POLICIES = ("FIFO", "MaxEDF", "MinEDF")
#: Dynamic zoo policies that carry a kernel contract (the group-share
#: ShareSchedulerMixin) — the kernel decides them in replay mode.
COLUMNAR_DYNAMIC_POLICIES = ("Fair", "Capacity", "DynamicPriority")
#: Dynamic zoo policies without a contract: replay mode asks their
#: ``choose_next_*``.
FALLBACK_POLICIES = tuple(
    p for p in ZOO_POLICIES
    if p not in STATIC_POLICIES and p not in COLUMNAR_DYNAMIC_POLICIES
)
DYNAMIC_POLICIES = tuple(p for p in ZOO_POLICIES if p not in STATIC_POLICIES)


def _overridden(policy: str):
    """Factory for the zoo ``policy`` with ``choose_next_map_task``
    overridden in a subclass that does not restate the kernel contract:
    the inherited contract no longer describes its decision."""

    def factory():
        scheduler = ZOO_POLICIES[policy]()

        class Overridden(type(scheduler)):
            def choose_next_map_task(self, job_queue):
                # Newest job first: not the decision the contract describes.
                return job_queue[-1] if job_queue else None

        scheduler.__class__ = Overridden
        return scheduler

    return factory


#: Dynamic policies no kernel contract covers: the uncontracted zoo
#: policies, and the contracted ones with their decision overridden.
UNCONTRACTED_POLICIES = {
    **{p: ZOO_POLICIES[p] for p in FALLBACK_POLICIES},
    **{f"{p}(overridden)": _overridden(p) for p in COLUMNAR_DYNAMIC_POLICIES},
}


def make_zoo_trace(seed: int = 7, n: int = 24) -> list[TraceJob]:
    """A mixed trace: varied shapes, deadlines, map-only and reduce-only."""
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(n):
        num_maps = int(rng.integers(0, 20))
        num_reduces = int(rng.integers(0, 8))
        if num_maps == 0 and num_reduces == 0:
            num_maps = 1
        profile = JobProfile(
            name=rng.choice(["WikiTrends", "Bayes", "Sort", "Grep"]),
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=rng.uniform(1, 25, max(num_maps, 1)),
            first_shuffle_durations=rng.uniform(1, 6, max(num_reduces, 1)),
            typical_shuffle_durations=rng.uniform(1, 5, max(num_reduces, 1)),
            reduce_durations=rng.uniform(0.5, 8, max(num_reduces, 1)),
        )
        submit = float(rng.uniform(0, 100))
        deadline = submit + float(rng.uniform(40, 500)) if rng.random() < 0.6 else None
        trace.append(TraceJob(profile, submit, deadline=deadline))
    return trace


def run_both(trace, scheduler_factory, cluster, **kw):
    """(object result+digest, columnar result+digest) for one workload."""
    out = []
    for engine in ("object", "columnar"):
        recorder = DigestRecorder(EventDigest(keep_events=True))
        result = simulate(
            trace, scheduler_factory(), cluster, engine=engine,
            sanitizer=recorder, **kw,
        )
        out.append((result, recorder))
    return out


def assert_identical(trace, scheduler_factory, cluster, **kw):
    (res_o, dig_o), (res_c, dig_c) = run_both(trace, scheduler_factory, cluster, **kw)
    assert dig_o.hexdigest() == dig_c.hexdigest(), (
        "event digests diverged between engines"
    )
    assert dig_o.digest.count == dig_c.digest.count
    assert dig_o.digest.events == dig_c.digest.events
    assert res_o.makespan == res_c.makespan
    assert res_o.events_processed == res_c.events_processed
    for a, b in zip(res_o.jobs, res_c.jobs):
        assert (a.job_id, a.start_time, a.map_stage_end, a.completion_time) == (
            b.job_id, b.start_time, b.map_stage_end, b.completion_time
        )
    assert len(res_o.task_records) == len(res_c.task_records)
    for a, b in zip(res_o.task_records, res_c.task_records):
        assert (a.kind, a.job_id, a.index, a.start, a.end, a.shuffle_end,
                a.first_wave) == (b.kind, b.job_id, b.index, b.start, b.end,
                                  b.shuffle_end, b.first_wave)


class TestDigestIdentityMatrix:
    @pytest.mark.parametrize("policy", sorted(ZOO_POLICIES))
    def test_full_zoo_bit_identical(self, policy):
        """Every zoo policy: object and columnar digests are bit-for-bit
        equal (dynamic policies exercise the transparent fallback)."""
        trace = make_zoo_trace()
        assert_identical(trace, ZOO_POLICIES[policy], ClusterConfig(16, 8))

    @pytest.mark.parametrize("policy", STATIC_POLICIES)
    def test_static_policies_take_kernel_path(self, policy):
        engine = ColumnarEngine(
            ClusterConfig(16, 8), ZOO_POLICIES[policy](), sanitizer=DigestRecorder()
        )
        engine.run(make_zoo_trace())
        assert engine.last_path == "kernel"
        # The zoo trace has deadlines, so MinEDF caps its jobs.
        assert engine.last_kernel_mode == ("replay" if policy == "MinEDF" else "passes")

    @pytest.mark.parametrize("policy", COLUMNAR_DYNAMIC_POLICIES)
    def test_columnar_dynamic_policies_take_replay_mode(self, policy):
        engine = ColumnarEngine(ClusterConfig(16, 8), ZOO_POLICIES[policy]())
        engine.run(make_zoo_trace())
        assert engine.last_path == "kernel"
        assert engine.last_kernel_mode == "replay"

    @pytest.mark.parametrize("policy", sorted(UNCONTRACTED_POLICIES))
    def test_uncontracted_dynamic_policies_fall_back(self, policy):
        """No contract covers the decision: the heap loop falls back to
        asking the policy's ``choose_next_*``, as the object engine does."""
        factory = UNCONTRACTED_POLICIES[policy]
        engine = ColumnarEngine(ClusterConfig(16, 8), factory())
        engine.run(make_zoo_trace())
        assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay")
        assert_identical(make_zoo_trace(), factory, ClusterConfig(16, 8))

    @pytest.mark.parametrize("slowstart", [0.0, 0.05, 0.5, 1.0])
    def test_slowstart_range(self, slowstart):
        trace = make_zoo_trace(seed=11)
        assert_identical(
            trace, FIFOScheduler, ClusterConfig(8, 4),
            min_map_percent_completed=slowstart,
        )

    @pytest.mark.parametrize(
        "caps", [(3, 2), (1, 1), (2, None), (None, 2)],
        ids=["3x2", "1x1", "2xNone", "Nonex2"],
    )
    def test_slot_caps(self, caps):
        trace = make_zoo_trace(seed=13)
        assert_identical(
            trace, lambda: CappedFIFOScheduler(*caps), ClusterConfig(8, 4)
        )

    @pytest.mark.parametrize("cluster", [(1, 1), (4, 2), (64, 64), (128, 128)])
    def test_cluster_shapes(self, cluster):
        trace = make_zoo_trace(seed=17)
        assert_identical(trace, FIFOScheduler, ClusterConfig(*cluster))

    def test_map_only_and_reduce_only_jobs(self):
        trace = [
            TraceJob(make_constant_profile("m", num_maps=6, num_reduces=0), 0.0),
            TraceJob(make_constant_profile("r", num_maps=0, num_reduces=3), 0.0),
            TraceJob(make_constant_profile("mr", num_maps=4, num_reduces=2), 5.0),
        ]
        assert_identical(trace, FIFOScheduler, ClusterConfig(4, 2))

    def test_simultaneous_arrivals(self):
        trace = [
            TraceJob(make_constant_profile(f"j{i}", num_maps=3, num_reduces=2), 10.0)
            for i in range(6)
        ]
        assert_identical(trace, FIFOScheduler, ClusterConfig(4, 2))

    def test_empty_trace(self):
        assert_identical([], FIFOScheduler, ClusterConfig(4, 4))


def make_deadline_trace(seed: int = 7, n: int = 24) -> list[TraceJob]:
    """Like the zoo trace but every job has a deadline — tight ones mixed
    in so preemptive EDF variants actually kill tasks."""
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(n):
        num_maps = int(rng.integers(1, 20))
        num_reduces = int(rng.integers(0, 8))
        profile = JobProfile(
            name=rng.choice(["WikiTrends", "Bayes", "Sort", "Grep"]),
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=rng.uniform(1, 40, num_maps),
            first_shuffle_durations=rng.uniform(1, 6, max(num_reduces, 1)),
            typical_shuffle_durations=rng.uniform(1, 5, max(num_reduces, 1)),
            reduce_durations=rng.uniform(0.5, 8, max(num_reduces, 1)),
        )
        submit = float(rng.uniform(0, 80))
        slack = float(rng.uniform(10, 60)) if rng.random() < 0.5 else float(
            rng.uniform(100, 600)
        )
        trace.append(TraceJob(profile, submit, deadline=submit + slack))
    return trace


class TestPreemptiveReplayIdentity:
    """Live preemption on the kernel's replay mode: every kill,
    requeue, and stale departure must hash identically to the object
    engine's preemptive run."""

    FACTORIES = {
        "MaxEDF+P": lambda: MaxEDFScheduler(preemptive=True),
        "MinEDF+P": lambda: MinEDFScheduler(preemptive=True),
    }

    @pytest.mark.parametrize("cluster", [(4, 2), (16, 8), (64, 64)])
    @pytest.mark.parametrize("policy", sorted(FACTORIES))
    def test_preemptive_edf_bit_identical(self, policy, cluster):
        trace = make_deadline_trace(seed=23)
        assert_identical(
            trace, self.FACTORIES[policy], ClusterConfig(*cluster),
            preemption=True,
        )

    @pytest.mark.parametrize("seed", [7, 11, 99])
    def test_preemptive_seeds_bit_identical(self, seed):
        trace = make_deadline_trace(seed=seed)
        assert_identical(
            trace, self.FACTORIES["MaxEDF+P"], ClusterConfig(8, 4),
            preemption=True,
        )

    @pytest.mark.parametrize("slowstart", [0.0, 0.5, 1.0])
    def test_preemption_x_slowstart(self, slowstart):
        trace = make_deadline_trace(seed=11)
        assert_identical(
            trace, self.FACTORIES["MinEDF+P"], ClusterConfig(8, 4),
            preemption=True, min_map_percent_completed=slowstart,
        )

    def test_preemptive_runs_actually_kill(self):
        """The matrix above is vacuous unless kills happen — prove they do."""
        trace = make_deadline_trace(seed=23)
        result = simulate(
            trace, MaxEDFScheduler(preemptive=True), ClusterConfig(16, 8),
            engine="columnar", preemption=True, sanitize=False,
        )
        assert any(r.killed for r in result.task_records)

    def test_live_preemption_takes_replay_mode(self):
        engine = ColumnarEngine(
            ClusterConfig(8, 4), MaxEDFScheduler(preemptive=True),
            preemption=True,
        )
        engine.run(make_deadline_trace(n=8))
        assert engine.last_path == "kernel"
        assert engine.last_kernel_mode == "replay"

    def test_inert_preemption_stays_in_pass_mode(self):
        """FIFO never requests kills, so preemption=True is provably a
        no-op and the fast pass-mode kernel remains valid."""
        engine = ColumnarEngine(
            ClusterConfig(8, 4), FIFOScheduler(), preemption=True, sanitize=False
        )
        engine.run(make_zoo_trace(n=6))
        assert engine.last_path == "kernel"
        assert engine.last_kernel_mode == "passes"


class TestColumnarDynamicIdentity:
    """Fair and compiled dynamic policy trees on the replay mode."""

    @pytest.mark.parametrize("cluster", [(4, 2), (16, 8), (64, 64)])
    def test_fair_bit_identical(self, cluster):
        from repro.schedulers import FairScheduler

        trace = make_zoo_trace(seed=7)
        assert_identical(trace, FairScheduler, ClusterConfig(*cluster))

    def test_fair_with_weights_bit_identical(self):
        from repro.schedulers import FairScheduler

        trace = make_zoo_trace(seed=11)
        factory = lambda: FairScheduler(
            weights={"Sort": 3.0, "Grep": 0.5, "Bayes": 2.0}
        )
        assert_identical(trace, factory, ClusterConfig(8, 4))

    def test_fair_with_inert_preemption_flag(self):
        """Default Fair is built with preemptive=False: preemption=True
        routes through replay's preemption bookkeeping without kills."""
        from repro.schedulers import FairScheduler

        trace = make_zoo_trace(seed=23)
        assert_identical(
            trace, FairScheduler, ClusterConfig(8, 4), preemption=True
        )

    @pytest.mark.parametrize("cluster", [(8, 4), (16, 8)])
    def test_fair_preemptive_live_kills_bit_identical(self, cluster):
        """Fair+P (HFS-style preemption) on the replay mode: hundreds of
        live kills, object and kernel event streams bit-for-bit equal."""
        from repro.schedulers import FairScheduler

        trace = make_zoo_trace(seed=31, n=40)
        factory = lambda: FairScheduler(preemptive=True)
        (res_o, _), (res_c, _) = run_both(
            trace, factory, ClusterConfig(*cluster), preemption=True
        )
        kills = sum(1 for r in res_c.task_records if r.killed)
        assert kills > 0
        assert kills == sum(1 for r in res_o.task_records if r.killed)
        assert_identical(
            trace, factory, ClusterConfig(*cluster), preemption=True
        )

    @pytest.mark.parametrize("slowstart", [0.0, 0.5, 1.0])
    def test_fair_x_slowstart(self, slowstart):
        from repro.schedulers import FairScheduler

        trace = make_zoo_trace(seed=13)
        assert_identical(
            trace, FairScheduler, ClusterConfig(8, 4),
            min_map_percent_completed=slowstart,
        )

    TREES = {
        "mix": {
            "version": 1,
            "name": "dyn-mix",
            "tree": {
                "score": [
                    {"feature": "running_maps", "weight": 1.0},
                    {"feature": "pending_reduces", "weight": 0.25},
                    {"feature": "job_age", "weight": -0.01},
                    {"feature": "deadline_slack", "weight": 0.001},
                ],
                "bias": 2.0,
            },
        },
        "switch": {
            "version": 1,
            "name": "dyn-switch",
            "tree": {
                "if": {"feature": "queue_depth", "op": ">", "value": 4},
                "then": {"score": [{"feature": "submit_time", "weight": 1.0}]},
                "else": {"score": [{"feature": "deadline", "weight": 1.0}]},
            },
        },
        "slots": {
            "version": 1,
            "name": "dyn-slots",
            "tree": {
                "if": {"feature": "free_map_slots", "op": "<=", "value": 2},
                "then": {
                    "score": [
                        {"feature": "map_fraction_completed", "weight": -1.0}
                    ]
                },
                "else": {"score": [{"feature": "total_work", "weight": 0.001}]},
            },
        },
        "direct": {
            "version": 1,
            "name": "dyn-direct",
            "tree": {"score": [{"feature": "running_reduces", "weight": 1.0}]},
        },
    }

    @pytest.mark.parametrize("tree", sorted(TREES))
    def test_policy_trees_bit_identical(self, tree):
        from repro.policy.compiler import compile_policy

        doc = self.TREES[tree]
        trace = make_zoo_trace(seed=7)
        for cluster in (ClusterConfig(16, 8), ClusterConfig(6, 3)):
            assert_identical(trace, lambda: compile_policy(doc), cluster)

    #: (tree, cluster) -> (event digest, events_processed) on the dense
    #: trace below; recorded when the kernel still decided trees with a
    #: vectorized key per dispatch, so they pin that regime's schedules.
    DENSE_PINS = {
        ("mix", (8, 4)): ("57342c4b250d4169fe6a289279520386", 45292),
        ("mix", (6, 3)): ("867106e028f5d2e8d177217a45e5178d", 45292),
        ("deadline-aware", (8, 4)): ("792875c1d1517caf8ea517e91a31885a", 45292),
        ("deadline-aware", (6, 3)): ("ec75104b582f7e69b4eb6887f6d3633b", 45292),
    }

    @staticmethod
    def make_dense_trace() -> list[TraceJob]:
        """60 application-mix jobs 10 s apart: long job queues on a small
        cluster.  Every other job has a 1.5x deadline."""
        from repro.trace.arrivals import ExponentialArrivals
        from repro.trace.deadlines import DeadlineFactorPolicy
        from repro.trace.synthetic import SyntheticTraceGen
        from repro.workloads.apps import make_app_specs

        gen = SyntheticTraceGen(
            list(make_app_specs().values()),
            ExponentialArrivals(10.0),
            deadline_policy=DeadlineFactorPolicy(1.5, ClusterConfig(8, 4)),
            seed=3,
        )
        return [
            TraceJob(tj.profile, tj.submit_time, deadline=tj.deadline if i % 2 == 0 else None)
            for i, tj in enumerate(gen.generate(60))
        ]

    @pytest.mark.parametrize(
        "tree,cluster", sorted(DENSE_PINS),
        ids=[f"{tree}-{m}x{r}" for tree, (m, r) in sorted(DENSE_PINS)],
    )
    def test_policy_trees_dense_trace_pinned(self, tree, cluster):
        """Both engines replay the dense trace to the pinned stream."""
        from repro.policy.compiler import compile_policy
        from repro.policy.examples import example_policy

        doc = self.TREES[tree] if tree in self.TREES else example_policy(tree)
        runs = run_both(
            self.make_dense_trace(), lambda: compile_policy(doc), ClusterConfig(*cluster)
        )
        for result, recorder in runs:
            pin = (recorder.hexdigest(), result.events_processed)
            assert pin == self.DENSE_PINS[(tree, cluster)]

    def test_dynamic_tree_takes_replay_mode(self):
        from repro.policy.compiler import compile_policy

        engine = ColumnarEngine(
            ClusterConfig(16, 8), compile_policy(self.TREES["mix"])
        )
        engine.run(make_zoo_trace(n=8))
        assert engine.last_path == "kernel"
        assert engine.last_kernel_mode == "replay"

    def test_static_tree_stays_in_pass_mode(self):
        """A tree with no dynamic features still compiles to a static
        policy and keeps the fastest mode."""
        from repro.policy.compiler import compile_policy

        doc = {
            "version": 1,
            "name": "static-tree",
            "tree": {"score": [{"feature": "submit_time", "weight": 1.0}]},
        }
        engine = ColumnarEngine(ClusterConfig(16, 8), compile_policy(doc), sanitize=False)
        engine.run(make_zoo_trace(n=8))
        assert engine.last_path == "kernel"
        assert engine.last_kernel_mode == "passes"


def make_shape_trace(shape: str, seed: int = 5, n: int = 24) -> list[TraceJob]:
    """The zoo trace, or a variant whose jobs are all map-only or all
    reduce-only (the shapes that skip one side of the share state)."""
    if shape == "mixed":
        return make_zoo_trace(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(n):
        num_maps = int(rng.integers(1, 20)) if shape == "map_only" else 0
        num_reduces = int(rng.integers(1, 8)) if shape == "reduce_only" else 0
        profile = JobProfile(
            name=rng.choice(["WikiTrends", "Bayes", "Sort", "Grep"]),
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=rng.uniform(1, 25, max(num_maps, 1)),
            first_shuffle_durations=rng.uniform(1, 6, max(num_reduces, 1)),
            typical_shuffle_durations=rng.uniform(1, 5, max(num_reduces, 1)),
            reduce_durations=rng.uniform(0.5, 8, max(num_reduces, 1)),
        )
        trace.append(TraceJob(profile, float(rng.uniform(0, 60))))
    return trace


def _dp_unequal_rates():
    from repro.schedulers import DynamicPriorityScheduler

    inf = float("inf")
    return DynamicPriorityScheduler(
        {"Sort": (inf, 4.0), "Grep": (inf, 1.0), "Bayes": (inf, 0.5)},
        default_account=(inf, 2.0),
    )


def _dp_finite_budgets():
    from repro.schedulers import DynamicPriorityScheduler

    # Budgets far below the trace's slot-seconds: every user runs dry
    # mid-run, after which decisions take the all-broke FIFO branch.
    return DynamicPriorityScheduler(
        {"Sort": (60.0, 3.0), "Grep": (25.0, 1.0), "Bayes": (90.0, 2.0)},
        default_account=(40.0, 1.5),
    )


def _capacity_with_unmapped_jobs():
    from repro.schedulers import CapacityScheduler

    # Grep maps to a queue that does not exist: routed to default_queue.
    queues = {"WikiTrends": "batch", "Bayes": "batch", "Sort": "interactive",
              "Grep": "no-such-queue"}
    return CapacityScheduler(
        {"batch": 0.5, "interactive": 0.3, "adhoc": 0.2},
        queue_of=lambda job: queues[job.profile.name],
        default_queue="adhoc",
    )


def _fair_tied_weights():
    from repro.schedulers import FairScheduler

    # 2:1 and 1:0.5 weight ratios: pools running 2k and k tasks (or k
    # and k/2) have equal deficiencies, so the job key breaks the tie.
    return FairScheduler(
        weights={"Sort": 2.0, "Grep": 1.0, "Bayes": 2.0, "WikiTrends": 0.5}
    )


def _fair_overflowing_shares():
    from repro.schedulers import FairScheduler

    # running / 1e-320 is inf from one running task up: the share book
    # takes its all-tied branch, and a departure's level check falls back.
    return FairScheduler(
        weights=dict.fromkeys(["Sort", "Grep", "Bayes", "WikiTrends"], 1e-320)
    )


def _fair_preemptive():
    from repro.schedulers import FairScheduler

    return FairScheduler(preemptive=True)


class TestShareContractIdentity:
    """The group-share contract (Fair, Fair+P, DynamicPriority, Capacity)
    on the kernel's replay mode: per-group sums kept by the kernel must
    pick exactly what the policies' own ``choose_next_*`` pick."""

    CASES = {
        "dp-unequal-rates": (_dp_unequal_rates, {}),
        "dp-finite-budgets": (_dp_finite_budgets, {}),
        "capacity-unmapped": (_capacity_with_unmapped_jobs, {}),
        "fair-tied-weights": (_fair_tied_weights, {}),
        "fair-overflowing-shares": (_fair_overflowing_shares, {}),
        "fair-preemptive": (_fair_preemptive, {"preemption": True}),
    }

    @pytest.mark.parametrize("shape", ["mixed", "map_only", "reduce_only"])
    @pytest.mark.parametrize("slowstart", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("cluster", [(1, 1), (16, 8), (128, 128)])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_share_policies_bit_identical(self, case, cluster, slowstart, shape):
        factory, kw = self.CASES[case]
        trace = make_shape_trace(shape)
        engine = ColumnarEngine(ClusterConfig(*cluster), factory(), **kw)
        engine.run(trace)
        assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay")
        assert_identical(
            trace, factory, ClusterConfig(*cluster),
            min_map_percent_completed=slowstart, **kw,
        )

    def test_dp_budgets_run_dry_identically(self):
        """Both engines charge the same slot-seconds, and every user goes
        broke mid-run, so the all-broke FIFO branch is exercised."""
        trace = make_zoo_trace(seed=5, n=30)
        spent = []
        for engine in ("object", "columnar"):
            scheduler = _dp_finite_budgets()
            result = simulate(
                trace, scheduler, ClusterConfig(8, 4), engine=engine,
                sanitize=False,
            )
            accounts = scheduler.accounts
            assert accounts and not any(a.paying for a in accounts.values())
            spent.append(({u: a.spent for u, a in accounts.items()}, result))
        assert spent[0][0] == spent[1][0]
        assert spent[1][1].engine_path == "kernel"

    def test_fair_preemptive_kills_in_matrix(self):
        """The Fair+P cells above are vacuous unless they kill."""
        trace = make_shape_trace("mixed")
        result = simulate(
            trace, _fair_preemptive(), ClusterConfig(16, 8),
            engine="columnar", preemption=True, sanitize=False,
        )
        assert result.engine_path == "kernel"
        assert any(r.killed for r in result.task_records)


class TestFallbackEnvelope:
    def test_preemption_digest_identical(self):
        """Inert preemption (FIFO) stays in pass mode; digests still match
        a directly built object engine."""
        trace = make_zoo_trace(seed=23, n=12)
        assert_identical(
            trace, FIFOScheduler, ClusterConfig(8, 4), preemption=True
        )

    def test_fallback_envelope_is_pinned(self):
        """The complete pass-mode envelope: exactly these conditions move a
        static-priority run from pass mode to the heap loop, nothing else.
        Every run stays on the kernel and matches the object engine."""
        from repro.core.shuffle import NetworkShuffleModel

        trace = make_zoo_trace(n=6)
        profile = make_constant_profile()
        dep_trace = [TraceJob(profile, 0.0), TraceJob(profile, 0.0, depends_on=0)]
        zero_trace = [_tie_job(0.0, 1, 1, map_durations=(0.0,))]
        cluster = ClusterConfig(8, 4)
        heap_cases = {  # name: (trace, scheduler factory, engine kwargs)
            "shuffle model": (
                trace, FIFOScheduler, {"shuffle_model": NetworkShuffleModel(1e6, 1e9)}
            ),
            "depends_on": (dep_trace, FIFOScheduler, {}),
            "zero-time task": (zero_trace, FIFOScheduler, {}),
            "slot cap": (trace, lambda: CappedFIFOScheduler(2, 1), {}),
        }
        for name, (case_trace, factory, kw) in heap_cases.items():
            engine = ColumnarEngine(cluster, factory(), **kw)
            engine.run(case_trace)
            assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay"), name
        # Reduces on a cluster without reduce slots: the run stalls in the
        # heap loop (TestStallPrefix pins the stalled prefix across
        # engines).  A cluster without map slots cannot be built.
        engine = ColumnarEngine(ClusterConfig(8, 0), FIFOScheduler())
        with pytest.raises(RuntimeError, match="simulation stalled"):
            engine.run(trace)
        assert engine.last_kernel_mode == "replay"
        with pytest.raises(ValueError, match="map_slots"):
            ClusterConfig(0, 4)
        engine = ColumnarEngine(cluster, MaxEDFScheduler(preemptive=True), preemption=True)
        engine.run(trace)
        assert engine.last_kernel_mode == "replay"
        # And nothing else leaves pass mode: inert preemption, the
        # recorder and the sanitizer (both read the emitted stream after
        # the run) keep it.
        for kw in (
            {"preemption": True, "sanitize": False},
            {"sanitizer": DigestRecorder()},
            {"sanitizer": Sanitizer(fail_fast=True)},
            {"sanitize": False},
        ):
            engine = ColumnarEngine(cluster, MaxEDFScheduler(), **kw)
            engine.run(trace)
            assert engine.last_kernel_mode == "passes", kw
        # MinEDF sets no cap on a job without a deadline (the sweep's
        # performance traces), so such a run stays in pass mode too.
        no_deadlines = [TraceJob(tj.profile, tj.submit_time) for tj in trace]
        engine = ColumnarEngine(cluster, MinEDFScheduler(), sanitizer=DigestRecorder())
        engine.run(no_deadlines)
        assert engine.last_kernel_mode == "passes"
        assert_identical(no_deadlines, MinEDFScheduler, cluster)
        for case_trace, factory, kw in heap_cases.values():
            assert_identical(case_trace, factory, cluster, **kw)

    @pytest.mark.parametrize(
        "factory", [lambda: CappedFIFOScheduler(2, 1), MinEDFScheduler],
        ids=["CappedFIFO", "MinEDF"],
    )
    def test_capped_run_leaves_at_first_capping_arrival(self, factory):
        """Pass mode hands a run to the heap loop at the first arrival hook
        that sets a slot cap, so the hooks do not run for the whole trace
        twice."""
        scheduler = factory()
        calls = []
        hook = scheduler.on_job_arrival

        def counting_hook(job, time, cluster):
            calls.append(job.job_id)
            hook(job, time, cluster)

        scheduler.on_job_arrival = counting_hook
        trace = make_deadline_trace(n=12)
        engine = ColumnarEngine(ClusterConfig(8, 4), scheduler)
        engine.run(trace)
        assert engine.last_kernel_mode == "replay"
        assert len(calls) <= len(trace) + 1

    def test_full_sanitizer_stays_on_kernel(self):
        """The full Sanitizer checks the stream pass mode emits, so the run
        stays in pass mode and is clean."""
        san = Sanitizer(fail_fast=True)
        engine = ColumnarEngine(ClusterConfig(8, 4), FIFOScheduler(), sanitizer=san)
        engine.run(make_zoo_trace(n=6))
        assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "passes")
        assert san.violations == [] and san.digest.count > 0

    def test_digest_recorder_stays_on_kernel(self):
        engine = ColumnarEngine(
            ClusterConfig(8, 4), FIFOScheduler(), sanitizer=DigestRecorder()
        )
        engine.run(make_zoo_trace(n=6))
        assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "passes")

    def test_dependencies_fall_back(self):
        profile = make_constant_profile()
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 0.0, depends_on=0),
        ]
        engine = ColumnarEngine(ClusterConfig(8, 4), FIFOScheduler())
        result = engine.run(trace)
        assert engine.last_kernel_mode == "replay"
        assert all(j.completion_time is not None for j in result.jobs)
        assert result.jobs[1].start_time >= result.jobs[0].completion_time

    def test_sanitized_run_under_full_sanitizer_is_clean(self):
        """sanitize=True builds the full Sanitizer: each run keeps the mode
        it takes unsanitized (pass mode for FIFO, replay for Fair) and
        must report zero invariant violations."""
        for scheduler, mode in ((FIFOScheduler(), "passes"), (FairScheduler(), "replay")):
            engine = ColumnarEngine(ClusterConfig(8, 4), scheduler, sanitize=True)
            engine.run(make_zoo_trace(n=8))
            assert engine.last_kernel_mode == mode
            assert engine.sanitizer.violations == []

    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be"):
            simulate([], FIFOScheduler(), ClusterConfig(4, 4), engine="gpu")

    def test_validates_slowstart_like_object_engine(self):
        with pytest.raises(ValueError, match="min_map_percent_completed"):
            ColumnarEngine(
                ClusterConfig(4, 4), FIFOScheduler(),
                min_map_percent_completed=1.5,
            )


class TestStallParity:
    def test_zero_reduce_slots_stall_message_identical(self):
        trace = [TraceJob(make_constant_profile(), 0.0)]
        messages = []
        for engine in ("object", "columnar"):
            with pytest.raises(RuntimeError, match="simulation stalled") as exc:
                simulate(
                    trace, FIFOScheduler(), ClusterConfig(4, 0),
                    engine=engine, sanitize=False,
                )
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_zero_reduce_cap_stalls_both_engines(self):
        trace = [TraceJob(make_constant_profile(), 0.0)]
        for engine in ("object", "columnar"):
            with pytest.raises(RuntimeError, match="simulation stalled"):
                simulate(
                    trace, CappedFIFOScheduler(2, 0), ClusterConfig(4, 4),
                    engine=engine, sanitize=False,
                )


class TestStallPrefix:
    """A stalled run leaves the same observed prefix on every path."""

    @pytest.mark.parametrize(
        "factory, mode", [(FIFOScheduler, "passes"), (FairScheduler, "replay")]
    )
    def test_stalled_run_feeds_popped_prefix(self, factory, mode):
        # Two jobs of 2 maps + 1 reduce: 18 events when they run, and 12
        # popped (arrivals, maps, ALL_MAPS) before a 2x0 cluster stalls.
        profile = make_constant_profile(num_maps=2, num_reduces=1)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 1.0)]
        observed = {}
        for engine in ("object", "columnar"):
            # One recorder for both runs: the stalled run must replace
            # the finished run's stream, not leave it standing.
            recorder = DigestRecorder(EventDigest(keep_events=True))
            simulate(trace, factory(), ClusterConfig(2, 2), engine=engine,
                     sanitizer=recorder)
            assert recorder.digest.count == 18
            with pytest.raises(RuntimeError, match="simulation stalled") as exc:
                simulate(trace, factory(), ClusterConfig(2, 0), engine=engine,
                         sanitizer=recorder)
            observed[engine] = (
                recorder.digest.events, recorder.hexdigest(), str(exc.value)
            )
        assert len(observed["object"][0]) == 12
        assert observed["object"] == observed["columnar"]
        engine = ColumnarEngine(ClusterConfig(2, 2), factory(), sanitize=False)
        engine.run(trace)
        assert engine.last_kernel_mode == mode


class TestDualRunDivergence:
    def test_dual_run_on_columnar_engine_is_clean(self):
        """The simsan DIV001 check accepts a ColumnarEngine factory: it
        installs the full Sanitizer, which checks pass mode's stream, and
        both replays must agree with zero violations."""
        trace = make_zoo_trace(seed=29, n=10)
        outcome = dual_run(
            lambda: ColumnarEngine(ClusterConfig(8, 4), FIFOScheduler()), trace
        )
        assert outcome.ok, outcome.report.describe()

    def test_cross_engine_digests_comparable(self):
        """An object run and a kernel run hash to the same fingerprint, so
        digests from either path are interchangeable cache/verify keys."""
        trace = make_zoo_trace(seed=31, n=10)
        digests = []
        for engine in ("object", "columnar"):
            recorder = DigestRecorder(EventDigest(keep_events=True))
            simulate(
                trace, FIFOScheduler(), ClusterConfig(8, 4),
                engine=engine, sanitizer=recorder,
            )
            digests.append(recorder.digest)
        from repro.sanitize.digest import compare_digests

        report = compare_digests(*digests)
        assert not report.diverged, report.describe()


class TestUpdateMany:
    def test_bulk_update_matches_per_event_update(self, rng):
        n = 500
        times = np.sort(rng.uniform(0, 1000, n))
        etypes = rng.integers(0, 7, n)
        job_ids = rng.integers(0, 40, n)
        tasks = rng.integers(-1, 30, n)
        one = EventDigest(keep_events=True)
        for row in zip(times, etypes, job_ids, tasks):
            one.update(float(row[0]), int(row[1]), int(row[2]), int(row[3]))
        bulk = EventDigest(keep_events=True)
        bulk.update_many(times, etypes, job_ids, tasks)
        assert one.hexdigest() == bulk.hexdigest()
        assert one.count == bulk.count == n
        assert one.events == bulk.events

    def test_bulk_update_empty(self):
        digest = EventDigest()
        digest.update_many(
            np.empty(0), np.empty(0, int), np.empty(0, int), np.empty(0, int)
        )
        assert digest.count == 0


class TestColumnsInput:
    def test_kernel_accepts_trace_columns(self):
        from repro.core.columns import TraceColumns

        trace = make_zoo_trace(seed=37, n=8)
        columns = TraceColumns.from_trace(trace)
        engine = ColumnarEngine(
            ClusterConfig(8, 4), FIFOScheduler(), sanitizer=DigestRecorder()
        )
        from_columns = engine.run(columns)
        assert engine.last_path == "kernel"
        direct = simulate(
            trace, FIFOScheduler(), ClusterConfig(8, 4), engine="object",
            sanitize=False,
        )
        assert from_columns.makespan == direct.makespan
        assert from_columns.events_processed == direct.events_processed

    def test_all_jobs_complete(self):
        trace = make_zoo_trace(seed=41, n=12)
        result = simulate(
            trace, FIFOScheduler(), ClusterConfig(16, 8), engine="columnar",
            sanitize=False,
        )
        assert all(j.completion_time is not None for j in result.jobs)
        assert result.makespan == max(j.completion_time for j in result.jobs)


class TestExecutorPlumbing:
    def test_engine_is_part_of_cache_key(self):
        from repro.parallel.executor import SchedulerSpec, SimTask

        spec = SchedulerSpec(name="fifo")
        columnar = SimTask(trace_id="t", scheduler=spec, engine="columnar")
        objectish = SimTask(trace_id="t", scheduler=spec, engine="object")
        assert columnar.engine_config() != objectish.engine_config()
        assert columnar.engine_config()["engine"] == "columnar"

    def test_simulate_many_digests_match_across_engines(self, tmp_path):
        from repro.parallel import simulate_many
        from repro.parallel.executor import SchedulerSpec, SimTask

        trace = make_zoo_trace(seed=43, n=10)
        spec = SchedulerSpec(name="fifo")
        digests = {}
        for engine in ("object", "columnar"):
            task = SimTask(
                trace_id="t", scheduler=spec, cluster=ClusterConfig(8, 4),
                engine=engine,
            )
            outcomes = simulate_many({"t": trace}, [task], workers=0)
            digests[engine] = outcomes[0].result.event_digest
        assert digests["object"] == digests["columnar"]
        assert digests["object"] is not None


class TestServiceProtocol:
    def test_engine_config_validated(self):
        from repro.service.protocol import ProtocolError, parse_request
        from repro.trace.schema import trace_to_dict

        trace = [TraceJob(make_constant_profile(), 0.0)]
        doc = {"trace": trace_to_dict(trace), "config": {"engine": "gpu"}}
        with pytest.raises(ProtocolError, match="config.engine"):
            parse_request(doc, trace_root=None)

    def test_engine_config_reaches_task(self):
        from repro.service.protocol import parse_request
        from repro.trace.schema import trace_to_dict

        trace = [TraceJob(make_constant_profile(), 0.0)]
        for engine in ("object", "columnar"):
            doc = {"trace": trace_to_dict(trace), "config": {"engine": engine}}
            request = parse_request(doc, trace_root=None)
            assert request.engine == engine
            assert request.task().engine == engine


# --------------------------------------------------------------------------- #
# generated differential tests: pass-mode emission order
# --------------------------------------------------------------------------- #

#: Few distinct values, so arrivals, dispatches and departures tie often.
_TIE_TIMES = (0.0, 1.0, 2.5)
_TIE_DURATIONS = (0.0, 1.0, 2.0)
_TIE_NAMES = ("a", "b", "c")
_PASS_SCHEDULERS = {
    "FIFO": FIFOScheduler,
    "MaxEDF": MaxEDFScheduler,
    "MinEDF": MinEDFScheduler,
    "Capped(1x1)": lambda: CappedFIFOScheduler(1, 1),
    "Capped(2xNone)": lambda: CappedFIFOScheduler(2, None),
    "Capped(Nonex1)": lambda: CappedFIFOScheduler(None, 1),
}


def _tie_job(submit, num_maps, num_reduces, map_durations=(1.0,), duration=1.0):
    """A job for the pinned examples: every reduce-side duration is
    ``duration``."""
    profile = JobProfile(
        name="tie", num_maps=num_maps, num_reduces=num_reduces,
        map_durations=list(map_durations), first_shuffle_durations=[duration],
        typical_shuffle_durations=[duration], reduce_durations=[duration],
    )
    return TraceJob(profile, submit)


@st.composite
def _tie_traces(draw):
    """Adversarial traces: equal submit times, equal durations (zero in
    half the traces), map-only and reduce-only jobs, optional deadlines,
    and job names from a pool of three, so the pools, users and queues
    the name selects contend."""
    shape = draw(st.sampled_from(("mixed", "map_only", "reduce_only")))
    zero_time = draw(st.booleans())
    durations = st.sampled_from(_TIE_DURATIONS if zero_time else _TIE_DURATIONS[1:])
    trace = []
    for _ in range(draw(st.integers(1, 6))):
        num_maps = 0 if shape == "reduce_only" else draw(st.integers(0, 6))
        num_reduces = 0 if shape == "map_only" else draw(st.integers(0, 4))
        if num_maps == num_reduces == 0:
            num_maps, num_reduces = (0, 1) if shape == "reduce_only" else (1, 0)
        profile = JobProfile(
            name=draw(st.sampled_from(_TIE_NAMES)),
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=draw(st.lists(durations, min_size=1, max_size=3)),
            first_shuffle_durations=draw(st.lists(durations, min_size=1, max_size=2)),
            typical_shuffle_durations=draw(st.lists(durations, min_size=1, max_size=2)),
            reduce_durations=draw(st.lists(durations, min_size=1, max_size=2)),
        )
        submit = draw(st.sampled_from(_TIE_TIMES))
        deadline = draw(st.sampled_from((None, 3.0, 8.0)))
        if deadline is not None and deadline < submit:
            deadline = None
        trace.append(TraceJob(profile, submit, deadline=deadline))
    return trace


def _first_difference(a: list, b: list) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"first difference at #{i}: object {x}, kernel {y}"
    return f"lengths differ: object {len(a)}, kernel {len(b)}"


def _sets_caps(trace, scheduler, cluster) -> bool:
    """Whether ``scheduler``'s arrival hook caps a job of ``trace``."""
    for i, tj in enumerate(trace):
        job = Job(i, tj)
        scheduler.on_job_arrival(job, tj.submit_time, cluster)
        if job.wanted_map_slots is not None or job.wanted_reduce_slots is not None:
            return True
    return False


def _assert_pass_mode_matches(trace, policy, cluster, slowstart):
    from repro.core.engine import SimulatorEngine

    results = []
    events = []
    for engine_cls in (SimulatorEngine, ColumnarEngine):
        recorder = DigestRecorder(EventDigest(keep_events=True))
        engine = engine_cls(
            ClusterConfig(*cluster), _PASS_SCHEDULERS[policy](),
            min_map_percent_completed=slowstart, sanitizer=recorder,
        )
        results.append(engine.run(trace))
        events.append(recorder.digest.events)
    # Zero-time tasks (including absorbed ones) take replay mode (the
    # sorted stream would pop them too late), and so does a run whose
    # arrival hook sets a slot cap; everything else here is pass mode.
    assert engine.last_kernel_mode == (
        "replay"
        if ColumnarEngine._has_instant_tasks(trace)
        or _sets_caps(trace, _PASS_SCHEDULERS[policy](), ClusterConfig(*cluster))
        else "passes"
    )
    obj, ker = results
    assert events[0] == events[1], _first_difference(*events)
    records = [
        [(t.kind, t.job_id, t.index, t.start, t.end, t.shuffle_end, t.first_wave)
         for t in r.task_records]
        for r in results
    ]
    assert records[0] == records[1], _first_difference(*records)
    assert obj.events_processed == ker.events_processed == len(events[1])
    assert [
        (j.start_time, j.map_stage_end, j.completion_time) for j in obj.jobs
    ] == [(j.start_time, j.map_stage_end, j.completion_time) for j in ker.jobs]


class TestEmissionOrderDifferential:
    """Pass mode rebuilds the event stream from its dispatch columns; a
    wrong tie order must show as the first differing event, not only as
    a digest mismatch."""

    @given(
        trace=_tie_traces(),
        policy=st.sampled_from(sorted(_PASS_SCHEDULERS)),
        cluster=st.sampled_from(((1, 1), (2, 1), (3, 2), (128, 128))),
        slowstart=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # Zero-time tasks, shrunk: the sorted stream put the departure ahead
    # of the job's own arrival (they now take replay mode).
    @example(
        trace=[_tie_job(0.0, 1, 0, map_durations=(0.0,), duration=0.0)],
        policy="Capped(1x1)", cluster=(1, 1), slowstart=0.0,
    )
    @example(
        trace=[_tie_job(0.0, 0, 1, duration=0.0)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    # A filler's and a typical reduce's departures pushed at one instant:
    # the filler's ALL_MAPS push pops first (shrunk from a kernel that
    # ordered the two by dispatch seq alone).
    @example(
        trace=[_tie_job(1.0, 2, 1), _tie_job(1.0, 0, 2)],
        policy="Capped(1x1)", cluster=(3, 2), slowstart=0.0,
    )
    # Fillers of two jobs whose map stages end together: they pop in
    # ALL_MAPS (final-map seq) order, the reverse of their dispatch order.
    @example(
        trace=[
            _tie_job(0.0, 3, 1, map_durations=(2.0, 2.0, 3.0)),
            _tie_job(0.0, 2, 1, map_durations=(1.0, 2.0)),
        ],
        policy="FIFO", cluster=(4, 2), slowstart=0.5,
    )
    # Positive durations that float addition absorbs at a late submit
    # (1e17 + 1.0 == 1e17) are zero-time tasks too: pass mode put the
    # first dispatch ahead of the job's own arrival.
    @example(
        trace=[_tie_job(1e17, 1, 1)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    @example(
        trace=[_tie_job(1e17, 1, 0)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    @example(
        trace=[_tie_job(1e17, 0, 1)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    @example(
        trace=[_tie_job(1e17, 1, 1), _tie_job(1e17, 1, 1)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    # Durations of 1e308 run back to back overflow the horizon to
    # infinity, which absorbs every duration: without that check pass
    # mode dispatched tasks at t = inf out of heap order.
    @example(
        trace=[_tie_job(0.0, 2, 1, map_durations=(1e308,), duration=1e308)],
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    @example(
        trace=[_tie_job(0.0, 1, 1, map_durations=(1e308,), duration=1e308)] * 2,
        policy="FIFO", cluster=(1, 1), slowstart=0.0,
    )
    def test_events_and_records_match_object_loop(
        self, trace, policy, cluster, slowstart
    ):
        _assert_pass_mode_matches(trace, policy, cluster, slowstart)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_overflowing_horizon_takes_replay_without_warnings(self, copies):
        """The 1e308 examples above: the horizon overflows to infinity
        silently, and the run still takes replay mode."""
        trace = [_tie_job(0.0, 3 - copies, 1, map_durations=(1e308,), duration=1e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ColumnarEngine._has_instant_tasks(trace * copies)
            engine = ColumnarEngine(ClusterConfig(1, 1), FIFOScheduler(),
                                    min_map_percent_completed=0.0)
            engine.run(trace * copies)
        assert engine.last_kernel_mode == "replay"


# --------------------------------------------------------------------------- #
# generated differential tests: replay mode
# --------------------------------------------------------------------------- #


def _dp_tie_budgets():
    from repro.schedulers import DynamicPriorityScheduler

    # A few slot-seconds each: users run dry within one tie trace.
    return DynamicPriorityScheduler(
        {"a": (2.0, 3.0), "b": (4.0, 1.0)}, default_account=(1.0, 2.0)
    )


def _capacity_two_queues():
    from repro.schedulers import CapacityScheduler

    return CapacityScheduler(
        {"front": 0.7, "back": 0.3},
        queue_of=lambda job: "front" if job.profile.name == "a" else "back",
    )


def _tree(name):
    def factory():
        from repro.policy.compiler import compile_policy

        return compile_policy(TestColumnarDynamicIdentity.TREES[name])

    return factory


#: Policies replay mode runs: name -> (scheduler factory, engine kwargs).
_REPLAY_SCHEDULERS = {
    "Fair": (FairScheduler, {}),
    "Fair(weighted)": (
        lambda: FairScheduler(weights={"a": 2.0, "b": 1.0, "c": 0.5}), {}
    ),
    "Fair+P": (lambda: FairScheduler(preemptive=True), {"preemption": True}),
    "DP(budgets)": (_dp_tie_budgets, {}),
    "Capacity(2 queues)": (_capacity_two_queues, {}),
    "MaxEDF+P": (lambda: MaxEDFScheduler(preemptive=True), {"preemption": True}),
    "MinEDF+P": (lambda: MinEDFScheduler(preemptive=True), {"preemption": True}),
    "tree(mix)": (_tree("mix"), {}),
    "tree(slots)": (_tree("slots"), {}),
}


def _observed_run(engine_cls, trace, policy, cluster, slowstart):
    """(engine, recorder, result or None, stall message or None)."""
    factory, kw = _REPLAY_SCHEDULERS[policy]
    recorder = DigestRecorder(EventDigest(keep_events=True))
    engine = engine_cls(
        ClusterConfig(*cluster), factory(),
        min_map_percent_completed=slowstart, sanitizer=recorder, **kw,
    )
    try:
        return engine, recorder, engine.run(trace), None
    except RuntimeError as exc:
        return engine, recorder, None, str(exc)


class TestReplayModeDifferential:
    """Replay mode against the object engine over generated tie-heavy
    traces: dynamic policies, policy trees, preemption and pools."""

    @given(
        trace=_tie_traces(),
        policy=st.sampled_from(sorted(_REPLAY_SCHEDULERS)),
        cluster=st.sampled_from(((1, 1), (2, 1), (3, 2), (16, 16))),
        slowstart=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_events_records_and_timings_match_object_engine(
        self, trace, policy, cluster, slowstart
    ):
        from repro.core.engine import SimulatorEngine

        (_, rec_o, obj, err_o), (engine, rec_c, ker, err_c) = (
            _observed_run(cls, trace, policy, cluster, slowstart)
            for cls in (SimulatorEngine, ColumnarEngine)
        )
        assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay")
        assert err_o == err_c
        events = [rec_o.digest.events, rec_c.digest.events]
        assert events[0] == events[1], _first_difference(*events)
        assert rec_o.hexdigest() == rec_c.hexdigest()
        if err_o is not None:
            return
        assert obj.events_processed == ker.events_processed == len(events[1])
        records = [
            [(t.kind, t.job_id, t.index, t.start, t.end, t.shuffle_end,
              t.first_wave, t.killed) for t in r.task_records]
            for r in (obj, ker)
        ]
        assert records[0] == records[1], _first_difference(*records)
        assert [
            (j.start_time, j.map_stage_end, j.completion_time) for j in obj.jobs
        ] == [(j.start_time, j.map_stage_end, j.completion_time) for j in ker.jobs]


# --------------------------------------------------------------------------- #
# generated sanitizer runs: simsan is clean on both engines
# --------------------------------------------------------------------------- #

#: Every replay-mode policy plus the static ones and an uncontracted one.
_SANITIZED_SCHEDULERS = {
    **_REPLAY_SCHEDULERS,
    "FIFO": (FIFOScheduler, {}),
    "MaxEDF": (MaxEDFScheduler, {}),
    "MinEDF": (MinEDFScheduler, {}),
    "Flex": (FlexScheduler, {}),
}


class TestSanitizerOnTieTraces:
    """The full invariant checker over tie-heavy generated traces: no
    violation on either engine.  A stall is a legal outcome here (e.g.
    reduces on a cluster whose reduce capacity a cap keeps unused)."""

    @given(
        trace=_tie_traces(),
        policy=st.sampled_from(sorted(_SANITIZED_SCHEDULERS)),
        cluster=st.sampled_from(((1, 1), (2, 1), (3, 2), (16, 16))),
        slowstart=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_no_violations_on_either_engine(self, trace, policy, cluster, slowstart):
        from repro.core.engine import SimulatorEngine

        factory, kw = _SANITIZED_SCHEDULERS[policy]
        for engine_cls in (SimulatorEngine, ColumnarEngine):
            san = Sanitizer(fail_fast=False)
            engine = engine_cls(
                ClusterConfig(*cluster), factory(),
                min_map_percent_completed=slowstart, sanitizer=san, **kw,
            )
            try:
                engine.run(trace)
            except RuntimeError as exc:
                assert "simulation stalled" in str(exc)
            assert san.violations == [], (engine_cls.__name__, san.violations[:3])
