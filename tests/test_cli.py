"""Tests for the simmr command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import TraceJob
from repro.hadoop.emulator import EmulatorConfig, HadoopClusterEmulator
from repro.trace.schema import load_trace

from conftest import make_random_profile


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.json"])
        assert args.jobs == 20
        assert args.workload == "mix"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestGenerate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["generate", str(out), "--jobs", "5", "--seed", "1"]) == 0
        trace = load_trace(out)
        assert len(trace) == 5
        assert "wrote 5 jobs" in capsys.readouterr().out

    def test_single_app_workload(self, tmp_path):
        out = tmp_path / "t.json"
        main(["generate", str(out), "--jobs", "3", "--workload", "Sort"])
        assert all(j.profile.name == "Sort" for j in load_trace(out))

    def test_deadline_factor(self, tmp_path):
        out = tmp_path / "t.json"
        main(["generate", str(out), "--jobs", "3", "--deadline-factor", "2.0"])
        assert all(j.deadline is not None for j in load_trace(out))

    def test_facebook_workload(self, tmp_path):
        out = tmp_path / "t.json"
        main(["generate", str(out), "--jobs", "4", "--workload", "facebook"])
        assert len(load_trace(out)) == 4


class TestProfileAndReplay:
    @pytest.fixture
    def history_file(self, tmp_path, rng):
        cfg = EmulatorConfig(num_nodes=4, heartbeat_interval=1.0, seed=0)
        trace = [TraceJob(make_random_profile(rng, "app", 6, 3), 0.0)]
        result = HadoopClusterEmulator(cfg).run(trace)
        path = tmp_path / "history.log"
        path.write_text(result.history_text())
        return path

    def test_profile_subcommand(self, history_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["profile", str(history_file), str(out)]) == 0
        assert len(load_trace(out)) == 1
        assert "profiled 1 jobs" in capsys.readouterr().out

    def test_replay_subcommand(self, history_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(["profile", str(history_file), str(out)])
        assert main(["replay", str(out), "--scheduler", "fifo"]) == 0
        text = capsys.readouterr().out
        assert "makespan" in text
        assert "app" in text
        assert "engine=kernel" in text

    def test_replay_json_format_reports_engine_path(
        self, history_file, tmp_path, capsys
    ):
        import json

        out = tmp_path / "trace.json"
        main(["profile", str(history_file), str(out)])
        capsys.readouterr()
        assert main(["replay", str(out), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine_path"] == "kernel"
        assert "fallback_reason" not in doc
        assert doc["jobs"] and doc["makespan_s"] > 0

    def test_replay_json_format_names_the_engine_that_ran(
        self, history_file, tmp_path, capsys
    ):
        """Flex has no kernel contract and still runs on the kernel's heap
        loop; ``--engine object`` names the reference engine."""
        import json

        out = tmp_path / "trace.json"
        main(["profile", str(history_file), str(out)])
        capsys.readouterr()
        for engine in ("columnar", "object"):
            assert main(
                ["replay", str(out), "--scheduler", "flex", "--engine", engine,
                 "--format", "json"]
            ) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["engine_path"] == ("kernel" if engine == "columnar" else "object")

    def test_compare_subcommand(self, history_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(["profile", str(history_file), str(out)])
        assert main(["compare", str(out), "--schedulers", "fifo,maxedf"]) == 0
        text = capsys.readouterr().out
        assert "FIFO" in text and "MaxEDF" in text


class TestExperimentCommand:
    def test_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "2 map waves" in out

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "4 map waves" in capsys.readouterr().out


class TestTraceTools:
    @pytest.fixture
    def trace_file(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["generate", str(out), "--jobs", "5", "--seed", "2",
              "--mean-interarrival", "500"])
        return out

    def test_stats(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "5 jobs" in out
        assert "offered load" in out

    def test_compact(self, trace_file, tmp_path, capsys):
        out = tmp_path / "compact.json"
        assert main(["compact", str(trace_file), str(out), "--max-gap", "10"]) == 0
        from repro.trace.schema import load_trace
        compacted = load_trace(out)
        gaps = [
            b.submit_time - a.submit_time
            for a, b in zip(compacted, compacted[1:])
        ]
        assert all(g <= 10.0 + 1e-9 for g in gaps)

    def test_scale(self, trace_file, tmp_path, capsys):
        out = tmp_path / "big.json"
        assert main(["scale", str(trace_file), str(out), "3.0"]) == 0
        from repro.trace.schema import load_trace
        original = load_trace(trace_file)
        scaled = load_trace(out)
        assert sum(j.profile.num_maps for j in scaled) > 2 * sum(
            j.profile.num_maps for j in original
        )
        assert "x3" in capsys.readouterr().out


class TestReplayOutput:
    def test_output_log_and_csv(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "3", "--seed", "4"])
        out_json = tmp_path / "result.json"
        out_csv = tmp_path / "jobs.csv"
        assert main([
            "replay", str(trace), "--output", str(out_json), "--csv", str(out_csv)
        ]) == 0
        from repro.core.results_io import load_result
        result = load_result(out_json)
        assert len(result.jobs) == 3
        assert len(result.task_records) > 0
        assert out_csv.read_text().startswith("job_id,")


class TestFastExperimentIds:
    def test_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "KS distances" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "KL divergence" in capsys.readouterr().out

    def test_locality_with_plot(self, capsys):
        assert main(["experiment", "locality", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "node_local_pct" in out
        assert "node-local" in out  # the rendered plot legend


class TestProgressPlot:
    def test_fig1_plot(self, capsys):
        assert main(["experiment", "fig1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "o=map" in out and "x=shuffle" in out and "+=reduce" in out


class TestReplaySchedulerVariants:
    @pytest.mark.parametrize("name", ["fair", "dp", "flex"])
    def test_replay_with_each_registry_policy(self, name, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "3", "--seed", "6"])
        assert main(["replay", str(trace), "--scheduler", name]) == 0
        assert "makespan" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_matches_package(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"simmr {__version__}"

    def test_version_is_the_cache_key_salt(self, monkeypatch):
        # The flag reports the same string cache_key() salts with, so a
        # CLI user can tell which cache entries a binary can reuse:
        # changing the package version must change every key.
        import repro
        from repro.parallel.cache import cache_key

        key = cache_key("t", "s", {"x": 1})
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert cache_key("t", "s", {"x": 1}) != key


class TestExitHygiene:
    def test_keyboard_interrupt_exits_130(self, monkeypatch):
        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._dispatch", interrupted)
        assert main(["--version"]) == 130

    def test_broken_pipe_exits_141(self, monkeypatch, tmp_path):
        # Simulate `simmr ... | head` closing the pipe mid-print: the
        # handler re-points stdout's fd at /dev/null, so run it against
        # a real fd-backed stdout instead of pytest's capture object.
        import sys as _sys

        def broken(argv):
            raise BrokenPipeError

        monkeypatch.setattr("repro.cli._dispatch", broken)
        real_stdout = open(tmp_path / "stdout.txt", "w")
        monkeypatch.setattr(_sys, "stdout", real_stdout)
        try:
            assert main(["--version"]) == 141
        finally:
            real_stdout.close()


class TestServeSubmitParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.workers == 2
        assert args.queue_size == 16
        assert not args.no_cache

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "trace.json"])
        assert args.url == "http://127.0.0.1:8642"
        assert args.scheduler == "fifo"
        assert args.retries == 0

    def test_serve_cache_conflict(self, capsys):
        assert main(["serve", "--no-cache", "--cache-path", "x.sqlite"]) == 2
        assert "conflicts" in capsys.readouterr().err


class TestSubmitRoundTrip:
    @pytest.fixture
    def service_url(self, tmp_path):
        from repro.service import ServiceConfig, SimulationServer

        config = ServiceConfig(port=0, workers=1, queue_size=4,
                               cache=tmp_path / "cli-cache.sqlite")
        with SimulationServer(config).start() as server:
            yield server.url

    def test_submit_with_verify(self, service_url, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "3", "--seed", "9"])
        capsys.readouterr()
        assert main([
            "submit", str(trace), "--url", service_url, "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "event_digest=" in out
        assert "verify: OK" in out

    def test_submit_twice_hits_cache(self, service_url, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "3", "--seed", "9"])
        main(["submit", str(trace), "--url", service_url])
        capsys.readouterr()
        assert main(["submit", str(trace), "--url", service_url]) == 0
        assert "(cache" in capsys.readouterr().out

    def test_submit_unreachable_service(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "2", "--seed", "1"])
        assert main([
            "submit", str(trace), "--url", "http://127.0.0.1:9",  # discard port
        ]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestTracePackUnpack:
    @pytest.fixture
    def json_trace(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", str(path), "--jobs", "4", "--seed", "11"])
        return path

    def test_pack_then_unpack_preserves_digest(self, json_trace, tmp_path, capsys):
        packed = tmp_path / "t.simmr"
        unpacked = tmp_path / "t2.json"
        capsys.readouterr()
        assert main(["trace", "pack", str(json_trace), str(packed)]) == 0
        pack_out = capsys.readouterr().out
        assert "packed 4 jobs" in pack_out
        assert main(["trace", "unpack", str(packed), str(unpacked)]) == 0
        unpack_out = capsys.readouterr().out
        digest = pack_out.split("digest ")[1].strip()
        assert digest in unpack_out  # same digest survives the round trip

        from repro.sanitize.digest import trace_digest

        assert trace_digest(load_trace(unpacked)) == digest

    def test_pack_is_smaller_than_json(self, json_trace, tmp_path):
        packed = tmp_path / "t.simmr"
        main(["trace", "pack", str(json_trace), str(packed)])
        assert packed.stat().st_size < json_trace.stat().st_size

    def test_pack_refuses_double_pack(self, json_trace, tmp_path, capsys):
        packed = tmp_path / "t.simmr"
        main(["trace", "pack", str(json_trace), str(packed)])
        capsys.readouterr()
        assert main(["trace", "pack", str(packed), str(tmp_path / "x")]) == 2
        assert "already packed" in capsys.readouterr().err

    def test_unpack_refuses_json_input(self, json_trace, tmp_path, capsys):
        assert main(["trace", "unpack", str(json_trace), str(tmp_path / "x")]) == 2
        assert "not a binary trace" in capsys.readouterr().err

    def test_unpack_rejects_content_not_matching_header(self, json_trace, tmp_path, capsys):
        packed = tmp_path / "t.simmr"
        main(["trace", "pack", str(json_trace), str(packed)])
        payload = bytearray(packed.read_bytes())
        payload[-8] ^= 0x01  # low mantissa bit of the last duration
        packed.write_bytes(bytes(payload))
        capsys.readouterr()
        assert main(["trace", "unpack", str(packed), str(tmp_path / "x.json")]) == 2
        assert "header digest does not match content" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_replay_accepts_packed_trace(self, json_trace, tmp_path, capsys):
        packed = tmp_path / "t.simmr"
        main(["trace", "pack", str(json_trace), str(packed)])
        capsys.readouterr()
        assert main(["replay", str(json_trace)]) == 0
        json_line = capsys.readouterr().out.splitlines()[0]
        assert main(["replay", str(packed)]) == 0
        packed_line = capsys.readouterr().out.splitlines()[0]
        # Same makespan and event count; drop the wall-clock events/s tail.
        assert packed_line.split(" (")[0] == json_line.split(" (")[0]


class TestCacheMaintenance:
    @pytest.fixture
    def warm_cache(self, tmp_path):
        """A cache populated by one small sweep."""
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--jobs", "3", "--seed", "5"])
        assert main([
            "sweep", str(trace), "--schedulers", "fifo",
            "--map-slots", "32,64", "--quiet",
        ]) == 0
        return trace

    def test_stats_reports_entries(self, warm_cache, capsys):
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:      2" in out
        assert "1 trace(s)" in out

    def test_prune_honours_age(self, warm_cache, capsys):
        capsys.readouterr()
        assert main(["cache", "prune", "--older-than", "1d"]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert main(["cache", "prune", "--older-than", "0s"]) == 0
        assert "pruned 2" in capsys.readouterr().out

    def test_clear_empties_store(self, warm_cache, capsys):
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:      0" in capsys.readouterr().out

    def test_bad_duration_rejected(self, warm_cache, capsys):
        assert main(["cache", "prune", "--older-than", "tomorrow"]) == 2
        assert "bad duration" in capsys.readouterr().err

    def test_prune_missing_file_rejected(self, tmp_path, capsys):
        assert main([
            "cache", "--cache-path", str(tmp_path / "nope.sqlite"),
            "prune", "--older-than", "1d",
        ]) == 2
        assert "no cache file" in capsys.readouterr().err


class TestLintSarif:
    FIXTURE = "tests/fixtures/bad_scheduler.py"

    def test_sarif_document_shape(self, capsys):
        assert main(["lint", self.FIXTURE, "--format", "sarif", "--no-cache"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        results = run["results"]
        assert results, "the broken fixture must produce SARIF results"
        for result in results:
            assert result["ruleId"] in rule_ids
            assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == self.FIXTURE
            assert location["region"]["startLine"] > 0

    def test_clean_file_yields_empty_results(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x + 1\n")
        assert main(["lint", str(clean), "--format", "sarif", "--no-cache"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestCheckJsonMerged:
    def test_single_document_with_top_level_ok(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x + 1\n")
        assert main([
            "check", str(clean), "--format", "json",
            "--schedulers", "fifo", "--jobs", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        # ONE merged document: a top-level verdict plus one tagged
        # findings list spanning both halves (previously consumers had
        # to stitch doc["static"] and doc["dynamic"] themselves).
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert set(doc) >= {"ok", "findings", "static", "dynamic"}
        assert [r["scheduler"] for r in doc["dynamic"]] == ["fifo"]

    def test_lint_findings_are_tagged_with_source(self, capsys):
        assert main([
            "check", "tests/fixtures/bad_scheduler.py",
            "--format", "json", "--static-only",
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["findings"]
        assert {entry["source"] for entry in doc["findings"]} == {"lint"}
        assert all(entry["rule_id"] for entry in doc["findings"])


#: argv of every trace-reading subcommand; ``{t}`` is the trace file,
#: ``{out}`` a temporary directory and ``{url}`` a running service.
TRACE_COMMANDS = {
    "replay": ["replay", "{t}"],
    "compare": ["compare", "{t}", "--schedulers", "fifo"],
    "stats": ["stats", "{t}"],
    "compact": ["compact", "{t}", "{out}/compact.json"],
    "scale": ["scale", "{t}", "{out}/scaled.json", "2"],
    "diff-profiles": ["diff-profiles", "{t}", "{t}"],
    "sweep": ["sweep", "{t}", "--schedulers", "fifo", "--map-slots", "8",
              "--no-cache", "--quiet"],
    "fit": ["fit", "{t}", "{out}/spec.json", "--no-same-app-check"],
    "check": ["check", "--trace", "{t}", "--dynamic-only", "--no-policy",
              "--schedulers", "fifo"],
    "submit": ["submit", "{t}", "--url", "{url}"],
}


class TestEveryCommandReadsBothFormats:
    """A packed trace behaves like its JSON twin on every subcommand,
    and a malformed file is one stderr line and exit 2, never a
    traceback."""

    @pytest.fixture(scope="class")
    def service_url(self):
        from repro.service import ServiceConfig, SimulationServer

        config = ServiceConfig(port=0, workers=1, queue_size=2, cache=None)
        with SimulationServer(config).start() as server:
            yield server.url

    @staticmethod
    def argv(command, trace, out, url):
        return [
            arg.format(t=trace, out=out, url=url)
            for arg in TRACE_COMMANDS[command]
        ]

    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    def test_simmr_file_matches_json_twin(self, command, tmp_path, capsys,
                                          service_url):
        from repro.trace.binfmt import save_trace_bin

        json_path = tmp_path / "t.json"
        assert main(["generate", str(json_path), "--jobs", "4", "--seed", "3",
                     "--workload", "Sort"]) == 0
        packed = tmp_path / "t.simmr"
        save_trace_bin(load_trace(json_path), packed)
        capsys.readouterr()

        codes = {}
        for path in (json_path, packed):
            codes[path.suffix] = main(self.argv(command, path, tmp_path, service_url))
            err = capsys.readouterr().err
            assert "Traceback" not in err and "Error" not in err, err
        assert codes[".simmr"] == codes[".json"]
        assert codes[".json"] in (0, 1)

    @pytest.mark.parametrize("payload", [b"\xff\xfe\x00 not a trace", b"[]"],
                             ids=["binary-garbage", "json-list"])
    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    def test_malformed_file_is_one_line_exit_2(self, command, payload, tmp_path,
                                               capsys, service_url):
        bad = tmp_path / "bad.simmr"
        bad.write_bytes(payload)
        assert main(self.argv(command, bad, tmp_path, service_url)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"simmr {command}: {bad}: ")
        assert captured.err.count("\n") == 1
