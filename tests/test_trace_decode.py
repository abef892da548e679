"""A malformed trace document is a ``ValueError`` naming its field, on
every entry point: ``trace_from_dict``, ``simmr replay`` (exit 2), and
the service's ``/simulate`` with an inline trace or a ``trace_path``
(HTTP 400, never a 500)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import TraceJob
from repro.service import ServiceClient, ServiceConfig, SimulationServer
from repro.trace.schema import trace_from_dict, trace_to_dict

from conftest import make_constant_profile


def _with_profile_field(key: str, value) -> dict:
    doc = trace_to_dict([TraceJob(make_constant_profile(num_maps=2, num_reduces=1), 0.0)])
    doc["jobs"][0]["profile"][key] = value
    return doc


#: id -> (document, text the error must carry)
MALFORMED = {
    "not-an-object": ([], "trace document must be an object, not list"),
    "jobs-not-a-list": ({"schema_version": 1, "jobs": 5},
                        "trace field 'jobs' must be a list, not int"),
    "job-without-profile": ({"schema_version": 1, "jobs": [{"submit_time": 0}]},
                            "trace jobs[0]: missing field 'profile'"),
    "num-maps-null": (_with_profile_field("num_maps", None),
                      "trace jobs[0]: field 'profile.num_maps'"),
    # Decodes without error but breaks the trace digest further on.
    "name-not-a-string": (_with_profile_field("name", 5),
                          "trace jobs[0]: profile field 'name' must be a string"),
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    for name, (doc, _) in MALFORMED.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    config = ServiceConfig(port=0, workers=1, queue_size=2, cache=None, trace_root=root)
    with SimulationServer(config).start() as server:
        yield server


@pytest.mark.parametrize("name", sorted(MALFORMED))
class TestMalformedDocument:
    def test_trace_from_dict(self, name):
        doc, message = MALFORMED[name]
        with pytest.raises(ValueError) as excinfo:
            trace_from_dict(doc)
        assert message in str(excinfo.value)

    def test_replay_exits_2(self, name, tmp_path, capsys):
        doc, message = MALFORMED[name]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"simmr replay: {path}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("via", ["inline", "trace_path"])
    def test_simulate_is_400(self, name, via, service):
        doc, message = MALFORMED[name]
        body = {"trace": doc} if via == "inline" else {"trace_path": f"{name}.json"}
        status, _, payload = ServiceClient(service.url)._request(
            "/simulate", {**body, "scheduler": "fifo"}
        )
        assert status == 400, payload
        assert message in json.loads(payload)["error"]
