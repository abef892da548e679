"""Tests of the end-to-end benchmark itself.  Run with::

    pytest benchmarks/e2e

The workload runs here are shrunk through ``run_workload`` arguments
(two 12-job traces, one unit of work); they check the report's
shape and the correctness bookkeeping, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading

import pytest

import compare
import run
from spans import (
    LAYER_METRICS,
    Span,
    SpanRecorder,
    layer_metrics,
    link_requests,
    self_times,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"seconds": 0, "jobs": 12, "traces": 2}


def _span(id, name, start, end, parent=None, thread=1, request_id=None, value=0.0):
    return Span(id, name, start, end, parent, thread, request_id, value)


# --------------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------------- #

def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "sweep", 0.0, 10.0),
        _span(1, "executor", 1.0, 4.0, parent=0),
        _span(2, "cache.get", 2.0, 3.0, parent=1),
        _span(3, "executor", 5.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx(
        {"sweep": 4.0, "executor": 5.0, "cache.get": 1.0}
    )
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_recorder_keeps_parents_per_thread():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2)

    def work():
        outer = recorder.begin("sweep")
        barrier.wait()  # both outer spans are open at once
        inner = recorder.begin("executor")
        barrier.wait()
        recorder.end(inner)
        recorder.end(outer)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)

    by_id = {s.id: s for s in recorder.spans}
    inners = [s for s in recorder.spans if s.name == "executor"]
    assert len(inners) == 2
    for inner in inners:
        parent = by_id[inner.parent]
        assert parent.name == "sweep" and parent.thread == inner.thread
    outers = [s for s in recorder.spans if s.name == "sweep"]
    times = self_times(recorder.spans)
    assert times["sweep"] == pytest.approx(
        sum(o.duration for o in outers) - sum(i.duration for i in inners)
    )


def test_wrapped_function_records_and_uninstalls():
    recorder = SpanRecorder()

    class Layer:
        def call(self, x):
            return x + 1

    recorder.patch_method(Layer, "call", "cache.get",
                          lambda span, args, result: setattr(span, "value", result))
    assert Layer().call(1) == 2
    recorder.uninstall()
    assert Layer().call(1) == 2
    [span] = recorder.spans
    assert (span.name, span.value) == ("cache.get", 2)


def test_service_spans_join_and_account_for_the_wall():
    client = [
        _span(0, "service.transport", 0.0, 10.0, request_id="req-1"),
        _span(1, "trace.to_dict", 0.5, 1.5, parent=0),
        _span(2, "service.transport", 0.0, 4.0, request_id="req-2"),
    ]
    server = [
        _span(10, "service.handler", 2.0, 9.0, thread=7, request_id="req-1"),
        _span(11, "service.parse", 2.5, 3.5, parent=10, thread=7, request_id="req-1"),
        _span(12, "executor", 5.0, 8.0, thread=8, request_id="req-1"),
        _span(13, "kernel.passes", 5.5, 7.5, parent=12, thread=8, request_id="req-1",
              value=100),
        _span(14, "service.handler", 0.0, 1.0, thread=9, request_id="req-0"),
    ]
    spans = link_requests(client, server)
    assert all(s.request_id != "req-0" for s in spans)
    metrics = layer_metrics(spans, wall=14.5, overhead_frac=0.01, queue_s=1.0, server_s=7.0)
    assert metrics["service.transport_s"] == pytest.approx(2.0 + 4.0)
    assert metrics["service.handler_s"] == pytest.approx(7.0 - 1.0 - 3.0 - 1.0)
    assert metrics["executor.self_s"] == pytest.approx(1.0)
    assert metrics["kernel.events"] == 100
    assert metrics["other_s"] == pytest.approx(0.5)
    assert set(metrics) == set(LAYER_METRICS)


# --------------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "a, b, higher, repeat, expected",
    [
        ([100, 101, 99, 100], [100, 102, 99, 101], True, 3, "within"),
        ([100, 101, 99, 100], [80, 81, 79, 80], True, 3, "worse"),
        ([100, 101, 99, 100], [120, 121, 119, 120], True, 3, "better"),
        ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], False, 3, "better"),
        ([100, 150, 60, 100], [100, 140, 70, 100], True, 3, "unresolved"),
        ([100, 150, 60, 100], [200, 210, 190, 205], True, 3, "better"),
        # Four pairs are too few to claim a gain.
        ([100, 101, 99, 100], [120, 121, 119, 120], True, 1, "within"),
    ],
)
def test_compare_verdicts(a, b, higher, repeat, expected):
    result, _ = compare.verdict(a * repeat, b * repeat, higher_is_better=higher, bound=0.1)
    assert result == expected


def test_compare_reads_reports(tmp_path, capsys):
    def report(path, value):
        path.write_text(json.dumps({"workloads": {"sweep-cold": {"metrics": {
            "events_per_s": {"value": value, "unit": "events/s"}}}}}))
        return str(path)

    a = [report(tmp_path / f"a{i}.json", 100 + i) for i in range(3)]
    b = [report(tmp_path / f"b{i}.json", 50 + i) for i in range(3)]
    assert compare.main(a + ["--"] + b) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(a + ["--"] + a) == 0


# --------------------------------------------------------------------------- #
# BENCHMARK.json and whole runs
# --------------------------------------------------------------------------- #

def test_benchmark_json_matches_the_runner():
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == LAYER_METRICS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_reports_every_end_to_end_metric(workload):
    report = run.run_workload(workload, **SMALL)
    assert report["correct"], report["errors"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == set(run.E2E_UNITS)
    for name, entry in report["metrics"].items():
        assert entry["unit"] == run.E2E_UNITS[name]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", ["sweep-cold", "service-submit"])
def test_traced_run_reports_every_layer_and_sums_to_the_wall(workload):
    report = run.run_workload(workload, trace=True, **{**SMALL, "seconds": 0.2})
    assert report["correct"], report["errors"]
    values = {k: v["value"] for k, v in report["metrics"].items()}
    assert set(values) == set(LAYER_METRICS)
    layers = sum(v for k, v in values.items()
                 if LAYER_METRICS[k][0] == "s" and k not in ("wall_s", "service.server_s"))
    assert layers == pytest.approx(values["wall_s"])
    assert values["kernel.events"] > 0
    if workload.startswith("sweep"):
        assert values["other_s"] <= 0.15 * values["wall_s"]


def test_corrupted_pinned_digest_counts_as_failed():
    cell = run.cell_id(run.sim_task("fifo", (64, 64), 0.05))
    report = run.run_workload(
        "sweep-warm", pinned={"cells": {cell: "0" * 32}}, **SMALL
    )
    assert not report["correct"]
    assert 0 < report["failed"] <= report["attempted"]


def test_pinned_digests_cover_every_seed_zero_cell():
    pinned = run.load_pinned(0)
    ids = list(run.TRACE_IDS[:run.SETUP_TRACES])
    cells = run.dynamic_tasks(list(run.TRACE_IDS))
    cells += [run.service_new_cell(k, ids) for k in range(100)]
    for trace_id in ids:
        cells += run.sweep_tasks(run.STATIC + ("fair",), trace_id)
        cells += run.service_warm_tasks(trace_id)
    for trace_id in run.TRACE_IDS[:run.SweepDynamic.setups]:
        cells += run.dynamic_warm_tasks(trace_id)
    assert all(run.cell_id(task) in pinned["cells"] for task in cells)
    assert run.load_pinned(1)["replay_error_pct"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    # The command line BENCHMARK.json's runs use.
    argv = [*SPEC["command"][1:], "--workload", "sweep-cold", "--seed", "0",
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
