"""Tests for the what-if sweep harness."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import ClusterConfig, TraceJob
from repro.parallel import ResultCache, SchedulerSpec, SimTask, simulate_many
from repro.schedulers import FIFOScheduler, MinEDFScheduler
from repro.sweep import _p95, expand_grid, run_sweep

from conftest import make_constant_profile


@pytest.fixture
def trace():
    profile = make_constant_profile(num_maps=16, num_reduces=4, map_s=10.0)
    return [TraceJob(profile, 0.0, deadline=100.0), TraceJob(profile, 5.0)]


class TestExpandGrid:
    def test_deterministic_order(self):
        points = expand_grid(
            ("fifo", "maxedf"), (ClusterConfig(8, 8), ClusterConfig(16, 16)), (0.05, 1.0)
        )
        assert len(points) == 8
        # Schedulers outermost, then clusters, then slow-starts.
        assert [p.scheduler.name for p in points[:4]] == ["fifo"] * 4
        assert [p.slowstart for p in points[:2]] == [0.05, 1.0]
        assert points == expand_grid(
            ("fifo", "maxedf"), (ClusterConfig(8, 8), ClusterConfig(16, 16)), (0.05, 1.0)
        )

    def test_single_point_grid(self):
        points = expand_grid(("fifo",), (ClusterConfig(8, 8),), (0.05,))
        assert len(points) == 1
        assert points[0].scheduler == SchedulerSpec(name="fifo")
        assert points[0].cluster == ClusterConfig(8, 8)

    @pytest.mark.parametrize(
        "kwargs, axis",
        [
            (dict(schedulers=()), "schedulers"),
            (dict(clusters=()), "clusters"),
            (dict(slowstarts=()), "slowstarts"),
        ],
    )
    def test_empty_axis_rejected(self, kwargs, axis):
        full = dict(
            schedulers=("fifo",), clusters=(ClusterConfig(8, 8),), slowstarts=(0.05,)
        )
        full.update(kwargs)
        with pytest.raises(ValueError, match=f"empty {axis} axis"):
            expand_grid(**full)

    def test_duplicates_dropped_keeping_first(self):
        points = expand_grid(
            ("fifo", "fifo", "maxedf"),
            (ClusterConfig(8, 8), ClusterConfig(8, 8)),
            (0.05, 0.05, 1.0),
        )
        assert len(points) == 4  # 2 schedulers x 1 cluster x 2 slow-starts
        keys = [(p.scheduler.name, p.cluster, p.slowstart) for p in points]
        assert len(set(keys)) == len(keys)
        assert keys[0] == ("fifo", ClusterConfig(8, 8), 0.05)

    def test_int_slowstart_coerced(self):
        points = expand_grid(("fifo",), (ClusterConfig(8, 8),), (1,))
        assert points[0].slowstart == 1.0
        assert isinstance(points[0].slowstart, float)


class TestRunSweep:
    def test_cartesian_product(self, trace):
        result = run_sweep(
            trace,
            schedulers=("fifo", "maxedf"),
            clusters=(ClusterConfig(8, 8), ClusterConfig(16, 16)),
            slowstarts=(0.05, 1.0),
        )
        assert len(result.cells) == 2 * 2 * 2
        schedulers = {c.scheduler for c in result.cells}
        assert schedulers == {"FIFO", "MaxEDF"}

    def test_metrics_sane(self, trace):
        result = run_sweep(trace, schedulers=("fifo",), clusters=(ClusterConfig(8, 8),))
        cell = result.cells[0]
        assert cell.makespan > 0
        assert cell.mean_duration <= cell.makespan
        assert cell.p95_duration >= cell.mean_duration

    def test_bigger_cluster_never_slower(self, trace):
        result = run_sweep(
            trace,
            schedulers=("fifo",),
            clusters=(ClusterConfig(4, 4), ClusterConfig(32, 32)),
        )
        small, big = result.cells
        assert big.makespan <= small.makespan

    def test_best_by(self, trace):
        result = run_sweep(
            trace,
            schedulers=("fifo", "minedf"),
            clusters=(ClusterConfig(8, 8), ClusterConfig(32, 32)),
        )
        best = result.best_by("makespan")
        assert best.makespan == min(c.makespan for c in result.cells)
        with pytest.raises(ValueError, match="unknown metric"):
            result.best_by("happiness")

    def test_factory_mapping(self, trace):
        result = run_sweep(
            trace,
            schedulers={"custom": lambda: MinEDFScheduler(bound="upper")},
            clusters=(ClusterConfig(8, 8),),
        )
        assert result.cells[0].scheduler == "MinEDF"

    def test_validation(self, trace):
        with pytest.raises(ValueError, match="empty trace"):
            run_sweep([])
        with pytest.raises(ValueError, match="at least one scheduler"):
            run_sweep(trace, schedulers={})

    def test_cells_carry_engine_path(self, trace):
        """Every cell reports which execution path produced it: static
        and Fair policies run on the kernel."""
        result = run_sweep(
            trace,
            schedulers=("fifo", "fair"),
            clusters=(ClusterConfig(8, 8),),
        )
        for cell in result.cells:
            assert cell.engine_path == "kernel"
            assert cell.row()["engine_path"] == "kernel"

    def test_uncontracted_cells_run_on_the_kernel(self, trace):
        """Flex has no kernel contract; its cell runs the kernel's heap
        loop through ``choose_next_*``."""
        result = run_sweep(
            trace,
            schedulers=[SchedulerSpec(kind="zoo", name="Flex(avg_response)")],
            clusters=(ClusterConfig(8, 8),),
        )
        cell = result.cells[0]
        assert cell.engine_path == "kernel"
        assert "fallback_reason" not in cell.row()

    def test_engine_path_survives_cache_restore(self, trace, tmp_path):
        cache = tmp_path / "results.sqlite"
        for expect_cached in (False, True):
            result = run_sweep(
                trace, schedulers=("fifo",), clusters=(ClusterConfig(8, 8),),
                cache=cache,
            )
            cell = result.cells[0]
            assert cell.cached is expect_cached
            assert cell.engine_path == "kernel"


class TestSummaryPinned:
    """A cell's summary is computed from the jobs directly; it must equal,
    bit for bit, the formulas it replaced, on a cold and a warm sweep."""

    #: blake2b-128 of ``repr(rows())`` for the sweep below, recorded with
    #: the summary's earlier ``durations()``-dict formulas.
    ROWS_DIGEST = "6b397a3eebfbd6046ebc5c8960a9c756"

    def test_warm_rows_equal_cold_rows_and_the_reference_formulas(self, tmp_path):
        from repro.core import simulate
        from repro.experiments.performance import make_performance_trace
        from repro.schedulers import make_scheduler
        from repro.trace.deadlines import DeadlineFactorPolicy

        trace = DeadlineFactorPolicy(1.2, ClusterConfig(16, 16)).assign(
            make_performance_trace(30, mean_interarrival=20.0, seed=5),
            np.random.default_rng(0),
        )
        kwargs = dict(
            schedulers=("fifo", "maxedf", "minedf"),
            clusters=(ClusterConfig(8, 8), ClusterConfig(16, 16)),
            slowstarts=(0.05, 1.0),
            cache=tmp_path / "results.sqlite",
        )
        cold = run_sweep(trace, **kwargs)
        warm = run_sweep(trace, **kwargs)
        assert cold.cache_hits == 0 and warm.cache_hits == len(warm.cells) == 12
        # repr tells -0.0 from 0.0 and names every float exactly.
        assert repr(warm.rows()) == repr(cold.rows())
        digest = hashlib.blake2b(repr(cold.rows()).encode(), digest_size=16).hexdigest()
        assert digest == self.ROWS_DIGEST
        for cell in warm.cells:
            result = simulate(
                trace,
                make_scheduler(cell.scheduler.lower()),
                ClusterConfig(cell.map_slots, cell.reduce_slots),
                min_map_percent_completed=cell.slowstart,
            )
            durations = np.array(list(result.durations().values()))
            assert repr(cell.mean_duration) == repr(float(durations.mean()))
            assert repr(cell.p95_duration) == repr(float(np.percentile(durations, 95)))
            assert repr(cell.deadline_utility) == repr(result.relative_deadline_exceeded())
            assert cell.deadline_utility > 0


class TestWarmCellsFromColumns:
    """A warm sweep summarizes each cached cell from its packed columns.
    Its cells must equal the cold pass's bit for bit, type included, on
    a trace whose deadlines make the deadline utility nonzero (a float
    summed in another order would show here), and it must build no
    JobResult."""

    @staticmethod
    def _bits(value):
        return struct.pack("<d", value) if isinstance(value, float) else value

    def test_cells_bit_identical_and_no_job_objects(self, tmp_path, monkeypatch):
        from repro.core.results import JobResult
        from repro.experiments.performance import make_performance_trace
        from repro.sweep import SweepCell
        from repro.trace.deadlines import DeadlineFactorPolicy

        trace = DeadlineFactorPolicy(1.1, ClusterConfig(16, 16)).assign(
            make_performance_trace(40, mean_interarrival=10.0, seed=11),
            np.random.default_rng(3),
        )
        kwargs = dict(
            schedulers=("fifo", "maxedf", "minedf"),
            clusters=(ClusterConfig(8, 8), ClusterConfig(12, 6)),
            slowstarts=(0.05, 0.5),
            cache=tmp_path / "results.sqlite",
        )
        cold = run_sweep(trace, **kwargs)

        built = []
        init = JobResult.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JobResult, "__init__", counting_init)
        warm = run_sweep(trace, **kwargs)
        assert built == []
        monkeypatch.undo()

        assert warm.cache_hits == len(warm.cells) == len(cold.cells) == 12
        assert sum(c.deadline_utility > 0 for c in cold.cells if c.scheduler != "FIFO") >= 4
        names = [f.name for f in dataclasses.fields(SweepCell) if f.name != "cached"]
        for c, w in zip(cold.cells, warm.cells):
            assert (c.cached, w.cached) == (False, True)
            for name in names:
                a, b = getattr(c, name), getattr(w, name)
                assert type(a) is type(b), name
                assert self._bits(a) == self._bits(b), name

        # The cold cells equal the formulas over the job objects.
        [outcome] = simulate_many(
            {"t": trace},
            [SimTask("t", SchedulerSpec(name="maxedf"), ClusterConfig(8, 8), 0.05)],
        )
        jobs = outcome.result.jobs
        cell = cold.cells[4]
        assert (cell.scheduler, cell.map_slots, cell.slowstart) == ("MaxEDF", 8, 0.05)
        oracle = sum(j.relative_deadline_exceeded() for j in jobs)
        assert oracle > 0 and self._bits(cell.deadline_utility) == self._bits(oracle)
        durations = np.array([j.duration for j in jobs])
        assert self._bits(cell.mean_duration) == self._bits(float(durations.mean()))

    def test_warm_cells_build_no_name_list(self, tmp_path, monkeypatch):
        from repro.core import results

        trace = [
            TraceJob(make_constant_profile(f"job-{i}", num_maps=3, num_reduces=1), 2.0 * i,
                     deadline=30.0)
            for i in range(5)
        ]
        kwargs = dict(schedulers=("fifo", "minedf"), clusters=(ClusterConfig(4, 2),),
                      cache=tmp_path / "results.sqlite")
        cold = run_sweep(trace, **kwargs)
        split = []
        monkeypatch.setattr(results, "_split_names", lambda *args: split.append(args))
        warm = run_sweep(trace, **kwargs)
        assert warm.cache_hits == len(warm.cells) == len(cold.cells) == 2
        assert split == []


# Non-negative like job durations; a small pool makes ties common.
_tied = st.sampled_from([0.0, 1.0, 2.5, 7.0, 1e-300])
_free = st.floats(min_value=0.0, max_value=1e12, allow_nan=False).map(abs)


class TestP95:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.one_of(_tied, _free), min_size=1, max_size=500))
    @example(values=[3.0])
    @example(values=[1.0, 2.0])
    @example(values=[5.0] * 21)
    @example(values=[float(i) for i in range(21)])
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        arr = np.array(values)
        assert repr(_p95(arr)) == repr(float(np.percentile(arr, 95)))

    def test_empty_raises_like_numpy(self):
        with pytest.raises(IndexError):
            np.percentile(np.array([]), 95)
        with pytest.raises(IndexError):
            _p95(np.array([]))


class TestSweepCLI:
    def test_sweep_command(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "4", "--seed", "1",
              "--deadline-factor", "2.0"])
        assert main([
            "sweep", str(trace_path), "--schedulers", "fifo,minedf",
            "--map-slots", "32,64", "--best-by", "makespan",
        ]) == 0
        out = capsys.readouterr().out
        assert "What-if sweep (4 cells)" in out
        assert "best makespan" in out

    def test_mismatched_slot_lists(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "2", "--seed", "1"])
        assert main([
            "sweep", str(trace_path), "--map-slots", "32,64", "--reduce-slots", "32",
        ]) == 2

    def test_workers_and_warm_cache(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "4", "--seed", "1"])
        argv = ["sweep", str(trace_path), "--schedulers", "fifo,minedf",
                "--map-slots", "32,64", "--workers", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "4 cell(s) executed, 0 served from cache" in cold.out
        assert "(2 workers)" in cold.out
        assert cold.err.count("(ran)") == 4
        # Second run: every cell restored from the default cache
        # (redirected to a temp dir by the autouse conftest fixture).
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 cell(s) executed, 4 served from cache" in warm.out
        assert warm.err.count("(cached)") == 4

    def test_json_format_digests_match_serial(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "4", "--seed", "1"])
        base = ["sweep", str(trace_path), "--schedulers", "fifo",
                "--map-slots", "32,64", "--format", "json", "--best-by", "makespan"]
        capsys.readouterr()  # drain the generate output
        assert main(base + ["--no-cache"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + ["--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        digests = [c["event_digest"] for c in serial["cells"]]
        assert all(digests)
        assert [c["event_digest"] for c in parallel["cells"]] == digests
        assert serial["best"]["metric"] == "makespan"
        assert serial["cache_hits"] == 0 and serial["executed"] == 2

    def test_fresh_reexecutes(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "2", "--seed", "1"])
        cache_path = tmp_path / "cache.sqlite"
        argv = ["sweep", str(trace_path), "--schedulers", "fifo",
                "--map-slots", "32", "--cache-path", str(cache_path), "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--fresh"]) == 0
        out = capsys.readouterr()
        assert "1 cell(s) executed, 0 served from cache" in out.out
        assert out.err == ""  # --quiet suppresses progress
        with ResultCache(cache_path) as cache:
            assert len(cache) == 1

    def test_no_cache_conflicts(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate", str(trace_path), "--jobs", "2", "--seed", "1"])
        assert main(["sweep", str(trace_path), "--no-cache", "--fresh"]) == 2
        assert "conflicts" in capsys.readouterr().err
