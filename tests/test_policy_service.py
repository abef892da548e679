"""Service and `simmr check` integration for policy trees.

The satellite contracts under test:

* the service accepts a ``policy`` scheduler spec, canonicalizes the
  submitted tree, and replays it event-digest-identical to a local run;
* 4xx rejections of ``policy`` schedulers carry *structured* findings
  (rule id + path into the submission) in the response body, not just
  a flattened reason string;
* ``policy`` is the only kind that carries user logic: a request for
  the removed ``inline-certified`` kind (scheduler source code) gets
  the unknown-kind 400 that points at ``policy``;
* ``simmr check --format json`` merges POL00x policy findings into the
  single tagged findings list alongside lint and sanitizer entries;
* ``simmr evolve`` is wired end to end through the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ClusterConfig
from repro.parallel import SchedulerSpec, SimTask, simulate_many
from repro.policy import canonical_policy_json, example_policy, parse_policy
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SimulationServer,
    parse_request,
    request_document,
)
from repro.trace.arrivals import ExponentialArrivals
from repro.trace.synthetic import SyntheticTraceGen
from repro.workloads.apps import make_app_specs


@pytest.fixture(scope="module")
def trace():
    gen = SyntheticTraceGen(
        list(make_app_specs().values()), ExponentialArrivals(50.0), seed=3
    )
    return gen.generate(4)


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        port=0,
        workers=2,
        queue_size=8,
        cache=tmp_path / "service.sqlite",
        trace_root=tmp_path,
        request_timeout=60.0,
    )
    with SimulationServer(config).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60.0)


def policy_scheduler_doc(tree, name="demo") -> dict:
    return {"kind": "policy", "name": name, "kwargs": {"tree": tree}}


BAD_TREE = {"version": 1, "name": "demo", "tree": {"pick": "lifo"}}

class TestPolicyProtocol:
    def test_accepts_and_canonicalizes_tree(self, trace):
        doc = request_document(trace=trace)
        # submit the tree as indented text: the accepted spec must carry
        # the canonical form so equal policies share one cache identity
        tree = json.dumps(example_policy("edf-tree"), indent=4)
        doc["scheduler"] = policy_scheduler_doc(tree, name="edf-tree")
        request = parse_request(doc)
        assert request.scheduler.kind == "policy"
        expected = canonical_policy_json(parse_policy(example_policy("edf-tree")))
        assert dict(request.scheduler.kwargs)["tree"] == expected

    def test_accepts_tree_as_object(self, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = policy_scheduler_doc(
            example_policy("deadline-aware"), name="deadline-aware"
        )
        request = parse_request(doc)
        assert request.scheduler.kind == "policy"

    def test_rejection_is_422_with_structured_findings(self, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = policy_scheduler_doc(BAD_TREE)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(doc)
        assert excinfo.value.status == 422
        assert excinfo.value.findings, "rejection must carry findings"
        (finding,) = excinfo.value.findings
        assert finding["rule_id"] == "POL002"
        assert finding["path"] == "policy:demo#/tree/pick"
        assert "lifo" in finding["message"]
        assert "POL002" in str(excinfo.value)

    def test_missing_tree_kwarg_is_400(self, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = {"kind": "policy", "name": "demo", "kwargs": {}}
        with pytest.raises(ProtocolError, match="kwargs.tree"):
            parse_request(doc)

    def test_oversized_tree_is_413(self, trace):
        from repro.policy import MAX_POLICY_TEXT

        doc = request_document(trace=trace)
        bloated = json.dumps(example_policy("fifo-tree")) + " " * MAX_POLICY_TEXT
        doc["scheduler"] = policy_scheduler_doc(bloated)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(doc)
        assert excinfo.value.status == 413

class TestPolicyServiceEndToEnd:
    def test_replay_digest_identical_to_local(self, client, trace):
        spec = SchedulerSpec(
            kind="policy",
            name="edf-tree",
            kwargs=(
                ("tree", canonical_policy_json(
                    parse_policy(example_policy("edf-tree"))
                )),
            ),
        )
        reply = client.replay(trace, scheduler=spec)
        task = SimTask(
            trace_id="t", scheduler=spec, cluster=ClusterConfig(64, 64),
            slowstart=0.05,
        )
        [outcome] = simulate_many({"t": trace}, [task], cache=None)
        assert reply.event_digest == outcome.result.event_digest

    def test_policy_rejection_body_has_findings(self, client, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = policy_scheduler_doc(BAD_TREE)
        status, _, payload = client._request("/simulate", doc)
        assert status == 422
        body = json.loads(payload.decode())
        assert "policy rejected" in body["error"]
        assert body["findings"][0]["rule_id"] == "POL002"
        assert body["findings"][0]["path"] == "policy:demo#/tree/pick"

    def test_scheduler_source_kind_is_unknown_400(self, client, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = {
            "kind": "inline-certified",
            "name": "TinyFifo",
            "kwargs": {"source": "class TinyFifo: pass\n"},
        }
        status, _, payload = client._request("/simulate", doc)
        assert status == 400
        body = json.loads(payload.decode())
        assert "unknown scheduler kind 'inline-certified'" in body["error"]
        assert "'policy'" in body["error"]
        assert "findings" not in body

    def test_client_surfaces_rejection(self, client, trace):
        doc_spec = SchedulerSpec(
            kind="policy", name="demo",
            kwargs=(("tree", json.dumps(BAD_TREE)),),
        )
        with pytest.raises(ServiceError) as excinfo:
            client.replay(trace, scheduler=doc_spec)
        assert excinfo.value.status == 422
        assert "POL002" in excinfo.value.message


# --------------------------------------------------------------------------- #
# simmr check / simmr evolve CLI integration
# --------------------------------------------------------------------------- #

class TestCheckMergesPolicyFindings:
    def test_json_report_tags_policy_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_TREE))
        code = main([
            "check", "--static-only", "--format", "json",
            "--policy", str(bad),
            str(Path(__file__).parent.parent / "src/repro/policy/examples.py"),
        ])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 1
        assert report["ok"] is False
        policy_findings = [
            f for f in report["findings"] if f["source"] == "policy"
        ]
        assert policy_findings, "policy findings must be in the merged list"
        assert policy_findings[0]["rule_id"] == "POL002"
        assert policy_findings[0]["policy"] == str(bad)
        # the example trees are certified in the same report
        names = {p["policy"] for p in report["policy"]}
        assert {"fifo-tree", "edf-tree", "deadline-aware"} <= names

    def test_no_policy_skips_the_half(self, capsys):
        code = main([
            "check", "--static-only", "--no-policy", "--format", "json",
            str(Path(__file__).parent.parent / "src/repro/policy/examples.py"),
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["policy"] == []


class TestEvolveCli:
    ARGS = [
        "evolve", "--seed", "7", "--population", "8", "--generations", "2",
        "--jobs", "10", "--traces", "1", "--mean-interarrival", "20",
        "--deadline-factor", "1.3", "--map-slots", "16", "--reduce-slots", "16",
    ]

    def test_json_output_and_winner_file(self, tmp_path, capsys):
        out_file = tmp_path / "winner.json"
        code = main(self.ARGS + ["--format", "json", "--output", str(out_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beats_baselines"] is True
        assert json.loads(out_file.read_text()) == payload["winner"]

    def test_text_output_reports_baselines(self, capsys):
        code = main(self.ARGS + ["--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: edf-sjf" in out
        assert "vs fifo" in out and "vs maxedf" in out
        assert "beats baselines: yes" in out
