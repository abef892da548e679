"""Tests for job dependencies and multi-job workflows."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import ClusterConfig, TraceJob, simulate
from repro.core.job import validate_dependencies
from repro.schedulers import FIFOScheduler
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    SimulationServer,
    parse_request,
    request_document,
)
from repro.trace.binfmt import load_trace_bin, save_trace_bin
from repro.trace.distributions import Constant, Uniform
from repro.trace.schema import trace_from_dict, trace_to_dict
from repro.trace.synthetic import SyntheticJobSpec
from repro.trace.workflows import WorkflowSpec, WorkflowStage, chain

from conftest import make_constant_profile


def spec(name: str = "s", maps: int = 4, map_s: float = 10.0) -> SyntheticJobSpec:
    return SyntheticJobSpec(
        name=name,
        num_maps=maps,
        num_reduces=0,
        map_durations=Constant(map_s),
        typical_shuffle=Constant(1.0),
        reduce_durations=Constant(1.0),
    )


class TestEngineDependencies:
    def test_child_waits_for_parent(self):
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 0.0, depends_on=0),
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        # Plenty of slots, but the child only starts after the parent.
        assert result.jobs[0].completion_time == pytest.approx(10.0)
        assert result.jobs[1].start_time == pytest.approx(10.0)
        assert result.jobs[1].completion_time == pytest.approx(20.0)

    def test_nominal_submit_still_respected(self):
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 50.0, depends_on=0),  # lag beyond parent end
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        assert result.jobs[1].start_time == pytest.approx(50.0)

    def test_diamond_out_edges(self):
        """One parent can release several children."""
        profile = make_constant_profile(num_maps=2, num_reduces=0, map_s=5.0)
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 0.0, depends_on=0),
            TraceJob(profile, 0.0, depends_on=0),
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        assert result.jobs[1].start_time == pytest.approx(5.0)
        assert result.jobs[2].start_time == pytest.approx(5.0)

    def test_chain_of_three(self):
        profile = make_constant_profile(num_maps=2, num_reduces=0, map_s=5.0)
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 0.0, depends_on=0),
            TraceJob(profile, 0.0, depends_on=1),
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        assert result.jobs[2].completion_time == pytest.approx(15.0)

    def test_out_of_range_dependency_rejected(self):
        profile = make_constant_profile()
        trace = [TraceJob(profile, 0.0, depends_on=5)]
        with pytest.raises(ValueError, match="depends on index 5"):
            simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))

    def test_self_dependency_rejected(self):
        profile = make_constant_profile()
        with pytest.raises(ValueError, match="depends on itself"):
            simulate(
                [TraceJob(profile, 0.0, depends_on=0)],
                FIFOScheduler(),
                ClusterConfig(8, 8),
            )

    def test_cycle_rejected(self):
        profile = make_constant_profile()
        trace = [
            TraceJob(profile, 0.0, depends_on=1),
            TraceJob(profile, 0.0, depends_on=0),
        ]
        with pytest.raises(ValueError, match="cycle"):
            simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))

    def test_negative_dependency_rejected(self):
        profile = make_constant_profile()
        with pytest.raises(ValueError, match="depends_on"):
            TraceJob(profile, 0.0, depends_on=-1)

    def test_schema_round_trip_preserves_edges(self):
        profile = make_constant_profile()
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 1.0, depends_on=0)]
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt[1].depends_on == 0
        assert rebuilt[0].depends_on is None


class TestWorkflowSpec:
    def test_linear_chain(self, rng):
        wf = chain("tfidf", [spec("a"), spec("b"), spec("c")])
        jobs = wf.instantiate(0.0, rng)
        assert len(jobs) == 3
        assert jobs[0].depends_on is None
        assert jobs[1].depends_on == 0
        assert jobs[2].depends_on == 1
        assert jobs[1].profile.name == "tfidf/stage1"

    def test_base_index_offsets_edges(self, rng):
        wf = chain("w", [spec(), spec()])
        jobs = wf.instantiate(0.0, rng, base_index=10)
        assert jobs[1].depends_on == 10

    def test_deadline_applies_to_final_stage(self, rng):
        wf = chain("w", [spec(), spec()])
        jobs = wf.instantiate(0.0, rng, deadline=1000.0)
        assert jobs[0].deadline is None
        assert jobs[1].deadline == 1000.0

    def test_lag_shifts_nominal_submit(self, rng):
        wf = chain("w", [spec(), spec()], lag=30.0)
        jobs = wf.instantiate(5.0, rng)
        assert jobs[0].submit_time == 5.0
        assert jobs[1].submit_time == 35.0

    def test_fanout_stages(self, rng):
        wf = WorkflowSpec(
            "fan",
            [
                WorkflowStage("extract", spec("e")),
                WorkflowStage("left", spec("l"), after="extract"),
                WorkflowStage("right", spec("r"), after="extract"),
            ],
        )
        jobs = wf.instantiate(0.0, rng)
        assert jobs[1].depends_on == 0
        assert jobs[2].depends_on == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="no stages"):
            WorkflowSpec("empty", [])
        with pytest.raises(ValueError, match="duplicate"):
            WorkflowSpec("d", [WorkflowStage("a", spec()), WorkflowStage("a", spec())])
        with pytest.raises(ValueError, match="not an earlier stage"):
            WorkflowSpec("b", [WorkflowStage("a", spec(), after="ghost")])
        with pytest.raises(ValueError, match="lag"):
            WorkflowStage("a", spec(), lag=-1.0)
        with pytest.raises(ValueError):
            chain("c", [])

    def test_workflow_end_to_end(self, rng):
        """A three-stage pipeline replays with stage-serialized timing."""
        wf = chain(
            "tfidf",
            [spec("tf", 8, 10.0), spec("df", 4, 5.0), spec("idf", 2, 5.0)],
            stage_names=["tf", "df", "idf"],
        )
        trace = wf.instantiate(0.0, rng)
        result = simulate(trace, FIFOScheduler(), ClusterConfig(16, 16))
        assert result.jobs[2].completion_time == pytest.approx(20.0)
        # Stages never overlap.
        assert result.jobs[1].start_time >= result.jobs[0].completion_time
        assert result.jobs[2].start_time >= result.jobs[1].completion_time


#: (depends_on per job, message) for the three malformed edge shapes.
BAD_DEPS = {
    "out-of-range": ([None, 7, None], "job 1 depends on index 7, but the trace has 3 jobs"),
    "self": ([None, 1, None], "job 1 depends on itself"),
    "cycle": ([1, 2, 0], "dependency cycle involving job 0 in the trace"),
}


def bad_trace(shape: str) -> list[TraceJob]:
    profile = make_constant_profile(num_maps=2, num_reduces=0, map_s=5.0)
    deps, _ = BAD_DEPS[shape]
    return [TraceJob(profile, 0.0, depends_on=dep) for dep in deps]


@pytest.mark.parametrize("shape", sorted(BAD_DEPS))
class TestBadDependencies:
    """Every entry point rejects a bad ``depends_on`` with one message."""

    def test_engine(self, shape):
        for engine in ("columnar", "object"):
            with pytest.raises(ValueError, match=BAD_DEPS[shape][1]):
                simulate(bad_trace(shape), FIFOScheduler(), ClusterConfig(8, 8),
                         engine=engine)

    def test_trace_from_dict(self, shape):
        with pytest.raises(ValueError, match=BAD_DEPS[shape][1]):
            trace_from_dict(trace_to_dict(bad_trace(shape)))

    def test_binary_decode(self, shape, tmp_path):
        path = tmp_path / "bad.simmr"
        save_trace_bin(bad_trace(shape), path)
        with pytest.raises(ValueError, match=BAD_DEPS[shape][1]):
            load_trace_bin(path)

    def test_parse_request_is_400(self, shape):
        doc = request_document(trace=bad_trace(shape), scheduler="fifo")
        with pytest.raises(ProtocolError, match=BAD_DEPS[shape][1]) as excinfo:
            parse_request(doc)
        assert excinfo.value.status == 400

    def test_http_simulate_is_400_and_nothing_queued_or_cached(self, shape, tmp_path):
        config = ServiceConfig(port=0, workers=1, queue_size=2,
                               cache=tmp_path / "service.sqlite")
        with SimulationServer(config).start() as server:
            client = ServiceClient(server.url)
            doc = request_document(trace=bad_trace(shape), scheduler="fifo")
            status, _, payload = client._request("/simulate", doc)
            assert status == 400
            assert BAD_DEPS[shape][1] in json.loads(payload)["error"]
            manager = server.manager
            assert manager.executed == 0 and manager.depth == 0
            assert len(manager.cache) == 0

    @pytest.mark.parametrize("command", ["replay", "trace pack"])
    def test_cli_prints_one_line_and_exits_2(self, shape, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trace_to_dict(bad_trace(shape))))
        argv = command.split() + [str(path)]
        if command == "trace pack":
            argv.append(str(tmp_path / "bad.simmr"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"simmr {command}: {path}: {BAD_DEPS[shape][1]}\n"
        assert not (tmp_path / "bad.simmr").exists()


def _reference_error(deps: list) -> str | None:
    """Follow every chain from every start: the quadratic definition."""
    n = len(deps)
    for i, dep in enumerate(deps):
        if dep is not None and dep >= n:
            return f"job {i} depends on index {dep}, but the trace has {n} jobs"
        if dep == i:
            return f"job {i} depends on itself"
    for start in range(n):
        seen, node = set(), start
        while deps[node] is not None:
            node = deps[node]
            if node in seen or node == start:
                return f"dependency cycle involving job {start} in the trace"
            seen.add(node)
    return None


def test_validate_dependencies_matches_chain_following():
    # Every depends_on vector over up to four jobs (targets may be out of range).
    profile = make_constant_profile(num_maps=1, num_reduces=0)
    for n in range(1, 5):
        for deps in itertools.product([None, *range(n + 1)], repeat=n):
            trace = [TraceJob(profile, 0.0, depends_on=dep) for dep in deps]
            try:
                validate_dependencies(trace)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == _reference_error(list(deps)), deps
