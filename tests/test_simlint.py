"""The simlint CI gate and analyzer unit tests.

``test_source_tree_is_clean`` is the tentpole: tier-1 pytest fails if
any simulation-invariant violation (see ``docs/linting.md``) lands in
``src/repro``.  The remaining tests pin the analyzer's own behaviour —
exact findings on the deliberately-broken fixture, inline suppression,
config validation, and reporter round-trips.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    default_registry,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.callgraph import CallGraph, FuncNode, module_name_for_path
from repro.analysis.reporter import parse_json
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "bad_scheduler.py"
XMOD_DIR = REPO_ROOT / "tests" / "fixtures" / "xmod"
CONC_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "racy_service.py"
RES_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "leaky_resources.py"

#: Rule ids with a real checker (LINT000 is the docs-only meta rule).
IMPLEMENTED_RULES = {
    "DET001", "DET002", "DET003", "DET004",
    "SIM001", "SIM002", "SIM004", "SIM003",
    "API001", "API002",
}

#: Whole-program rule ids (fire from the CONC/RES dataflow analyses,
#: pinned by their own fixtures rather than bad_scheduler.py).
PROGRAM_RULES = {
    "CONC001", "CONC002", "CONC003", "CONC004",
    "RES001", "RES002", "RES003",
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def expected_from_markers(path: Path) -> set[tuple[str, int]]:
    """(rule_id, line) pairs declared by ``# expect: RULE`` markers."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for rule_id in _EXPECT_RE.findall(line):
            out.add((rule_id, lineno))
    return out


# --------------------------------------------------------------------- #
# the gate
# --------------------------------------------------------------------- #


class TestCleanTree:
    def test_source_tree_is_clean(self):
        """Zero findings: every accepted one is suppressed at its source."""
        findings = lint_paths([SRC_TREE], root=REPO_ROOT)
        assert findings == [], "\n" + render_text(findings)

    def test_check_script_passes(self):
        """`make lint` / scripts/check.sh is green on the committed tree."""
        proc = subprocess.run(
            ["bash", str(REPO_ROOT / "scripts" / "check.sh")],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestFixture:
    def test_fixture_reports_exact_rules_and_lines(self):
        expected = expected_from_markers(FIXTURE)
        assert expected, "fixture lost its # expect: markers"
        findings = lint_paths([FIXTURE], root=REPO_ROOT)
        got = {(f.rule_id, f.line) for f in findings}
        assert got == expected
        # Every implemented rule id fires at least once.
        assert {rule for rule, _ in got} == IMPLEMENTED_RULES

    def test_fixture_findings_carry_location_and_hint(self):
        for f in lint_paths([FIXTURE], root=REPO_ROOT):
            assert f.path == "tests/fixtures/bad_scheduler.py"
            assert f.line > 0 and f.col > 0
            assert f.message and f.hint
            info = default_registry.info(f.rule_id)
            assert f.severity is info.severity


# --------------------------------------------------------------------- #
# whole-program rules (CONC001–004 / RES001–003)
# --------------------------------------------------------------------- #


class TestConcFixture:
    """racy_service.py pins the concurrency family: every CONC rule has
    at least one marked true positive and one sanctioned/suppressed
    clean variant right next to it."""

    def test_conc_findings_match_markers(self):
        expected = expected_from_markers(CONC_FIXTURE)
        assert expected, "fixture lost its # expect: markers"
        findings = lint_paths([CONC_FIXTURE], root=REPO_ROOT)
        got = {(f.rule_id, f.line) for f in findings}
        assert got == expected
        assert {rule for rule, _ in got} == {
            "CONC001", "CONC002", "CONC003", "CONC004",
        }

    def test_conc001_message_carries_witness_chain(self):
        findings = lint_paths([CONC_FIXTURE], root=REPO_ROOT)
        drain = [
            f for f in findings if f.rule_id == "CONC001" and "_drain" in f.message
        ]
        assert len(drain) == 1
        # The entry chain names how the racy method becomes concurrent.
        assert "threading.Thread target" in drain[0].message

    def test_conc002_names_the_opposite_site(self):
        findings = lint_paths([CONC_FIXTURE], root=REPO_ROOT)
        order = [f for f in findings if f.rule_id == "CONC002"]
        assert len(order) == 2
        for f in order:
            assert "opposite order" in f.message
            assert "racy_service.py:" in f.message


class TestResFixture:
    """leaky_resources.py pins the resource family the same way."""

    def test_res_findings_match_markers(self):
        expected = expected_from_markers(RES_FIXTURE)
        assert expected, "fixture lost its # expect: markers"
        findings = lint_paths([RES_FIXTURE], root=REPO_ROOT)
        got = {(f.rule_id, f.line) for f in findings}
        assert got == expected
        assert {rule for rule, _ in got} == {"RES001", "RES002", "RES003"}

    def test_res001_names_the_raise_witness(self):
        findings = lint_paths([RES_FIXTURE], root=REPO_ROOT)
        shm = [f for f in findings if f.rule_id == "RES001"]
        assert len(shm) == 1
        # The message points at the statement whose exception leaks.
        assert "exception" in shm[0].message


#: One minimal firing snippet per whole-program rule.  ``{d}`` marks the
#: anchor line: empty → the rule fires there; a disable directive → the
#: same program stays silent.
_PROGRAM_SNIPPETS = {
    "CONC001": (
        "import threading\n"
        "from http.server import BaseHTTPRequestHandler\n"
        "class H(BaseHTTPRequestHandler):\n"
        "    def do_GET(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n"
        "    def do_POST(self):\n"
        "        self.hits += 1{d}\n",
        8,
    ),
    "CONC002": (
        "import threading\n"
        "class T:\n"
        "    def __init__(self):\n"
        "        self._a_lock = threading.Lock()\n"
        "        self._b_lock = threading.Lock()\n"
        "    def ab(self):\n"
        "        with self._a_lock:\n"
        "            with self._b_lock:{d}\n"
        "                pass\n"
        "    def ba(self):\n"
        "        with self._b_lock:\n"
        "            with self._a_lock:{d}\n"
        "                pass\n",
        8,
    ),
    "CONC003": (
        "import sqlite3\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._conn = sqlite3.connect(':memory:', check_same_thread=False){d}\n",
        4,
    ),
    "CONC004": (
        "def toggle(state_lock, flag):\n"
        "    state_lock.acquire(){d}\n"
        "    flag.set()\n"
        "    state_lock.release()\n",
        2,
    ),
    "RES001": (
        "from multiprocessing import shared_memory\n"
        "def publish(n):\n"
        "    seg = shared_memory.SharedMemory(create=True, size=n){d}\n"
        "    seg.buf[:1] = b'x'\n"
        "    return seg.name\n",
        3,
    ),
    "RES002": (
        "import sqlite3\n"
        "def query(path):\n"
        "    conn = sqlite3.connect(path){d}\n"
        "    return conn.execute('SELECT 1').fetchone()\n",
        3,
    ),
    "RES003": (
        "import os\n"
        "import tempfile\n"
        "def spill(payload):\n"
        "    fd, path = tempfile.mkstemp(){d}\n"
        "    os.write(fd, payload)\n"
        "    return path\n",
        4,
    ),
}


class TestProgramRuleSuppression:
    """`# simlint: disable=<ID>` on the anchor line silences each of the
    whole-program rules, exactly like the single-file families."""

    @pytest.mark.parametrize("rule_id", sorted(_PROGRAM_SNIPPETS))
    def test_snippet_fires(self, rule_id):
        template, line = _PROGRAM_SNIPPETS[rule_id]
        findings = lint_source(template.format(d=""), path="svc/app.py")
        assert (rule_id, line) in {(f.rule_id, f.line) for f in findings}
        assert {f.rule_id for f in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(_PROGRAM_SNIPPETS))
    def test_disable_directive_silences(self, rule_id):
        template, _line = _PROGRAM_SNIPPETS[rule_id]
        directive = f"  # simlint: disable={rule_id} -- audited"
        assert lint_source(template.format(d=directive), path="svc/app.py") == []

    @pytest.mark.parametrize("rule_id", sorted(_PROGRAM_SNIPPETS))
    def test_config_disable_silences(self, rule_id):
        template, _line = _PROGRAM_SNIPPETS[rule_id]
        config = LintConfig(disable=frozenset({rule_id}))
        assert lint_source(template.format(d=""), path="svc/app.py", config=config) == []


# --------------------------------------------------------------------- #
# cross-module rules (DET004 / SIM004 / API002)
# --------------------------------------------------------------------- #


class TestCrossModule:
    """The xmod fixture: sinks in helpers.py, callers in covert_scheduler.py."""

    def test_xmod_findings_match_markers(self):
        expected = set()
        for path in sorted(XMOD_DIR.glob("*.py")):
            expected |= {
                (rule, line, f"tests/fixtures/xmod/{path.name}")
                for rule, line in expected_from_markers(path)
            }
        assert expected, "xmod fixture lost its # expect: markers"
        findings = lint_paths([XMOD_DIR], root=REPO_ROOT)
        got = {(f.rule_id, f.line, f.path) for f in findings}
        assert got == expected
        assert {rule for rule, _, _ in got} == {"DET004", "SIM004", "API002"}

    def test_witness_chain_names_depth_two_raise(self):
        findings = lint_paths([XMOD_DIR], root=REPO_ROOT)
        api = [f for f in findings if f.rule_id == "API002"]
        assert len(api) == 1
        # The two-hop chain to the sink is spelled out for the reader.
        assert "strict_first" in api[0].message
        assert "_pick_first" in api[0].message
        assert "KeyError" in api[0].message

    def test_fixture_tree_json_matches_golden(self, capsys, monkeypatch):
        # Every rule id over every fixture, witness-chain messages
        # included, byte for byte: any change to the call graph or its
        # taint closures that moves a finding shows up here.
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "tests/fixtures", "--format", "json", "--no-cache"])
        assert code == 1
        golden = (REPO_ROOT / "tests" / "golden" / "lint_fixtures.json").read_text()
        assert capsys.readouterr().out == golden

    def test_declared_raises_docstring_waives_api002(self):
        findings = lint_paths([XMOD_DIR], root=REPO_ROOT)
        # choose_next_reduce_task calls the same raising helper but
        # declares it in its docstring: exactly one API002, on the map side.
        api_lines = [f.line for f in findings if f.rule_id == "API002"]
        source = (XMOD_DIR / "covert_scheduler.py").read_text()
        reduce_def = source.splitlines().index(
            "    def choose_next_reduce_task(self, job_queue):"
        ) + 1
        assert all(line < reduce_def for line in api_lines)

    def test_single_file_lint_has_no_cross_module_findings(self):
        """Without helpers.py in the graph there is nothing to resolve."""
        path = XMOD_DIR / "covert_scheduler.py"
        findings = lint_source(
            path.read_text(), path="tests/fixtures/xmod/covert_scheduler.py"
        )
        assert findings == []

    def test_intra_file_indirection_caught_by_lint_source(self):
        """lint_source builds a single-module graph: same-file helpers count."""
        source = (
            "import time\n"
            "from repro.schedulers.base import Scheduler\n"
            "def sneaky():\n"
            "    return time.monotonic()\n"
            "class S(Scheduler):\n"
            "    name = 's'\n"
            "    def choose_next_map_task(self, q):\n"
            "        sneaky()\n"
            "        return None\n"
        )
        findings = lint_source(source, path="plugin.py")
        assert [(f.rule_id, f.line) for f in findings] == [("DET004", 8)]

    def test_sanctioned_sink_seeds_no_taint(self):
        """A suppressed sink line is audited: callers inherit nothing."""
        source = (
            "import time\n"
            "from repro.schedulers.base import Scheduler\n"
            "def audited():\n"
            "    return time.monotonic()  # simlint: disable=DET001 -- metrics\n"
            "class S(Scheduler):\n"
            "    name = 's'\n"
            "    def choose_next_map_task(self, q):\n"
            "        audited()\n"
            "        return None\n"
        )
        assert lint_source(source, path="plugin.py") == []


#: A display path that classifies as simulation code (sim_paths match).
_TAINT_PATH = "src/repro/schedulers/taintmod.py"


def _graph(source: str) -> CallGraph:
    """One-module graph, finalized (taint closures run)."""
    source = textwrap.dedent(source)
    graph = CallGraph(LintConfig())
    graph.add_module(_TAINT_PATH, ast.parse(source, filename=_TAINT_PATH), source)
    graph.finalize()
    return graph


def _fn(graph: CallGraph, qname: str) -> FuncNode:
    fn = graph.function(module_name_for_path(_TAINT_PATH), qname)
    assert fn is not None, f"{qname} not indexed"
    return fn


_CHAIN = """
import time
def leaf():
    return time.time()
def mid():
    return leaf()
def top():
    return mid()
"""


class TestTaintClosure:
    """The reverse-BFS closures behind DET004/SIM004/API002."""

    def test_wallclock_read_taints_wallclock(self):
        graph = _graph("import time\ndef now():\n    return time.time()\n")
        assert _fn(graph, "now").taint["wallclock"][0] == "sink"

    def test_escaping_raise_taints_raise(self):
        graph = _graph("def f():\n    raise ValueError('no')\n")
        assert graph.witness(_fn(graph, "f"), "raise")[1].detail == "ValueError"

    def test_caller_inherits_callee_taint(self):
        graph = _graph(_CHAIN)
        for qname in ("leaf", "mid", "top"):
            assert "wallclock" in _fn(graph, qname).taint

    def test_mutual_recursion_shares_taint(self):
        graph = _graph(
            """
            def ping(n):
                if n < 0:
                    raise ValueError(n)
                return pong(n - 1)
            def pong(n):
                return ping(n) if n else 0
            """
        )
        chain, sink = graph.witness(_fn(graph, "pong"), "raise")
        assert [c.rpartition(".")[2] for c in chain] == ["pong", "ping"]
        assert sink.detail == "ValueError"

    def test_self_recursion_terminates(self):
        graph = _graph("def f(n):\n    return f(n - 1) if n else 0\n")
        assert _fn(graph, "f").taint == {}

    def test_witness_chain_reaches_the_sink(self):
        graph = _graph(_CHAIN)
        chain, sink = graph.witness(_fn(graph, "top"), "wallclock")
        assert [c.rpartition(".")[2] for c in chain] == ["top", "mid", "leaf"]
        assert "time.time" in sink.detail

    def test_witness_absent_for_missing_kind(self):
        graph = _graph("def f():\n    return 1\n")
        assert graph.witness(_fn(graph, "f"), "rng") is None

    def test_witness_survives_chains_deeper_than_64(self):
        deep = "import time\ndef f0():\n    return time.time()\n" + "".join(
            f"def f{i}():\n    return f{i - 1}()\n" for i in range(1, 101)
        )
        graph = _graph(deep)
        chain, sink = graph.witness(_fn(graph, "f100"), "wallclock")
        assert len(chain) == 101
        assert "time.time" in sink.detail

    def test_witness_degrades_to_none_on_cyclic_steps(self):
        # A corrupted taint table (a call step pointing back at itself)
        # must exhaust the guard and return None, never raise.
        graph = _graph("def f():\n    return 1\n")
        fn = _fn(graph, "f")
        fn.taint["raise"] = ("call", fn)
        assert graph.witness(fn, "raise") is None


# --------------------------------------------------------------------- #

VIOLATION = "import time\nt = time.time()  {comment}\n"


class TestSuppression:
    def _lint(self, comment: str):
        # A scheduler-free file is only in DET001 scope via sim paths.
        return lint_source(
            VIOLATION.format(comment=comment), path="core/example.py"
        )

    def test_violation_fires_without_directive(self):
        findings = self._lint("")
        assert [(f.rule_id, f.line) for f in findings] == [("DET001", 2)]

    def test_disable_single_rule(self):
        assert self._lint("# simlint: disable=DET001") == []

    def test_disable_list(self):
        assert self._lint("# simlint: disable=DET002,DET001") == []

    def test_disable_all(self):
        assert self._lint("# simlint: disable=all") == []

    def test_disable_other_rule_does_not_suppress(self):
        findings = self._lint("# simlint: disable=DET002")
        assert [f.rule_id for f in findings] == ["DET001"]

    def test_directive_only_covers_its_line(self):
        source = "import time\n# simlint: disable=DET001\nt = time.time()\n"
        findings = lint_source(source, path="core/example.py")
        assert [f.rule_id for f in findings] == ["DET001"]

    def test_unknown_rule_id_in_directive_reported(self):
        findings = self._lint("# simlint: disable=NOPE123")
        ids = [(f.rule_id, f.line) for f in findings]
        # The typo'd directive suppresses nothing and is itself flagged.
        assert ("LINT000", 2) in ids
        assert ("DET001", 2) in ids

    def test_trailing_justification_prose_is_ignored(self):
        """Prose after the id list must not corrupt the parsed ids."""
        assert self._lint("# simlint: disable=DET001 -- audited: metrics only") == []

    def test_trailing_prose_does_not_flag_phantom_ids(self):
        # Before the regex was anchored to the id list, "audited" parsed
        # as an unknown rule id and produced a spurious LINT000.
        findings = self._lint("# simlint: disable=DET001 audited by perf team")
        assert findings == []

    def test_list_with_spaces_and_prose(self):
        assert self._lint("# simlint: disable=DET001, DET002 -- both audited") == []


# --------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------- #


class TestConfig:
    def test_unknown_rule_id_in_select_rejected(self):
        with pytest.raises(ValueError, match="unknown rule id.*NOPE"):
            LintConfig(select=frozenset({"NOPE"})).validate(default_registry)

    def test_unknown_rule_id_in_disable_rejected(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            lint_source("x = 1\n", config=LintConfig(disable=frozenset({"DET999"})))

    def test_disable_drops_findings(self):
        source = "import time\nt = time.time()\n"
        config = LintConfig(disable=frozenset({"DET001"}))
        assert lint_source(source, path="core/example.py", config=config) == []

    def test_select_narrows_rules(self):
        source = "import random\nimport time\nr = random.random()\nt = time.time()\n"
        config = LintConfig(select=frozenset({"DET002"}))
        findings = lint_source(source, path="core/example.py", config=config)
        assert [f.rule_id for f in findings] == ["DET002"]

    def test_fixture_dir_is_not_test_path(self):
        config = LintConfig()
        assert not config.is_test_path("tests/fixtures/bad_scheduler.py")
        assert config.is_test_path("tests/test_simlint.py")
        assert config.is_test_path("conftest.py")

    def test_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.simlint]\ndisable = ["DET003"]\nsim-paths = ["sim/"]\n'
        )
        config = LintConfig.from_pyproject(pyproject)
        assert config.disable == frozenset({"DET003"})
        assert config.is_sim_path("sim/engine.py")
        assert not config.is_sim_path("core/engine.py")

    def test_from_pyproject_rejects_unknown_keys(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.simlint]\nrulez = []\n")
        with pytest.raises(ValueError, match="unknown \\[tool.simlint\\] key"):
            LintConfig.from_pyproject(pyproject)

    def test_repo_pyproject_parses(self):
        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        config.validate(default_registry)

    def test_repo_pyproject_whitelists_walltime(self):
        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        assert config.is_timing_whitelisted("src/repro/core/walltime.py")
        assert not config.is_timing_whitelisted("src/repro/core/engine.py")

    def test_from_pyproject_malformed_toml_is_value_error(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.simlint\ndisable = [")
        with pytest.raises(ValueError, match="invalid TOML"):
            LintConfig.from_pyproject(pyproject)

    def test_from_pyproject_unknown_rule_id_rejected_at_validate(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.simlint]\ndisable = ["DET404"]\n')
        config = LintConfig.from_pyproject(pyproject)
        with pytest.raises(ValueError, match="unknown rule id.*DET404"):
            config.validate(default_registry)


# --------------------------------------------------------------------- #
# reporters
# --------------------------------------------------------------------- #


class TestReporters:
    def test_json_roundtrip(self):
        findings = lint_paths([FIXTURE], root=REPO_ROOT)
        assert findings
        assert parse_json(render_json(findings)) == findings

    def test_json_summary_counts(self):
        findings = lint_paths([FIXTURE], root=REPO_ROOT)
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["summary"]["total"] == len(findings)
        assert payload["summary"]["errors"] + payload["summary"]["warnings"] == len(
            findings
        )

    def test_json_rejects_other_versions(self):
        with pytest.raises(ValueError, match="version"):
            parse_json('{"version": 99, "findings": []}')

    def test_text_mentions_every_finding(self):
        findings = lint_paths([FIXTURE], root=REPO_ROOT)
        text = render_text(findings)
        for f in findings:
            assert f"{f.path}:{f.line}:{f.col}: {f.rule_id}" in text

    def test_clean_text_report(self):
        assert render_text([]) == "simlint: no findings"

    def test_syntax_error_is_a_meta_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == ["LINT000"]
        assert "cannot parse" in findings[0].message


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestCli:
    def test_lint_fixture_exits_1(self, capsys):
        assert main(["lint", str(FIXTURE)]) == 1
        assert "SIM002" in capsys.readouterr().out

    def test_lint_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean), "--no-config"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--format", "json", str(FIXTURE)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule_id"] for f in payload["findings"]} == IMPLEMENTED_RULES

    def test_lint_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--disable", "BOGUS1", str(FIXTURE)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_lint_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "pyproject.toml"
        bad.write_text("[tool.simlint\n")
        assert main(["lint", "--config", str(bad), str(FIXTURE)]) == 2
        assert "invalid TOML" in capsys.readouterr().err

    def test_lint_github_format(self, capsys):
        assert main(["lint", "--format", "github", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        # One annotation per finding, severity mapped to the command name.
        assert "::error file=tests/fixtures/bad_scheduler.py,line=" in out
        assert "::warning file=tests/fixtures/bad_scheduler.py,line=" in out
        assert ",title=DET004::" in out
        # The summary line stays greppable plain text.
        assert "finding(s)" in out

    def test_github_format_escapes_newlines_and_percent(self):
        from repro.analysis import render_github
        from repro.analysis.findings import Finding, Severity

        f = Finding(
            path="a.py", line=1, col=1, rule_id="DET001",
            severity=Severity.ERROR, message="100% bad\nreally", hint="",
        )
        out = render_github([f])
        assert "100%25 bad%0Areally" in out

    def test_lint_disable_filters(self, capsys):
        assert main(["lint", "--select", "API001", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "API001" in out and "DET001" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(IMPLEMENTED_RULES | PROGRAM_RULES | {"LINT000"}):
            assert rule_id in out

    def test_module_entry_point(self):
        """`python -m repro lint` (the documented invocation) works."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# --------------------------------------------------------------------- #
# docs stay in sync
# --------------------------------------------------------------------- #


class TestDocs:
    def test_every_rule_documented_in_linting_md(self):
        doc = (REPO_ROOT / "docs" / "linting.md").read_text()
        for info in default_registry:
            assert info.rule_id in doc, f"{info.rule_id} missing from docs/linting.md"

    def test_extending_md_links_determinism_contract(self):
        doc = (REPO_ROOT / "docs" / "extending.md").read_text()
        assert "linting.md" in doc
