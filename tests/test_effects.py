"""Effect inference, certification, and the analysis cache.

Three layers of the tentpole under test:

* ``repro.analysis.effects`` — the per-function effect lattice: local
  source detection, transitive (SCC-fixpoint) propagation, and the
  witness chains that make a verdict actionable;
* ``repro.analysis.certify`` — the safety verdicts: every registry
  scheduler certifies service-safe, and the deliberately divergent
  fixture is rejected *with* its witness chain;
* ``repro.analysis.cache`` — the content-addressed incremental store:
  warm runs replay identical findings, any input drift (source,
  config, engine) misses, and a corrupt store degrades to empty.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import AnalysisCache, lint_paths
from repro.analysis.cache import (
    default_cache_path,
    engine_version,
    program_key,
    source_digest,
)
from repro.analysis.callgraph import CallGraph, module_name_for_path
from repro.analysis.certify import (
    CertificationError,
    certificate_for_class,
    certify_target,
    failure_message,
    resolve_target,
)
from repro.analysis.config import LintConfig
from repro.analysis.effects import (
    IO,
    MUTATES_GLOBAL,
    MUTATES_SELF,
    NONDET,
    RAISES,
    READS_SIM_STATE,
    effect_witness,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DIVERGING = REPO_ROOT / "tests" / "fixtures" / "diverging_scheduler.py"

#: A display path that classifies as simulation code (sim_paths match).
_MOD_PATH = "src/repro/schedulers/effmod.py"
_MOD_NAME = module_name_for_path(_MOD_PATH)


def analyze(source: str, path: str = _MOD_PATH) -> CallGraph:
    """One-module graph, finalized (effects inferred)."""
    source = textwrap.dedent(source)
    graph = CallGraph(LintConfig())
    graph.add_module(path, ast.parse(source, filename=path), source)
    graph.finalize()
    return graph


def atoms(graph: CallGraph, qname: str, module: str = _MOD_NAME) -> set[str]:
    mod = graph.module_index(module)
    assert mod is not None, f"module {module!r} not indexed"
    fn = mod.functions[qname]
    assert fn.effects is not None, f"{qname} has no effect summary"
    return set(fn.effects.atoms)


# --------------------------------------------------------------------- #
# local effect sources
# --------------------------------------------------------------------- #


class TestLocalSources:
    def test_pure_function_has_empty_summary(self):
        graph = analyze("def f(x):\n    return x + 1\n")
        assert atoms(graph, "f") == set()
        fn = graph.module_index(_MOD_NAME).functions["f"]
        assert fn.effects.pure

    def test_self_attribute_read_is_reads_sim_state(self):
        graph = analyze(
            """
            class S:
                def peek(self):
                    return self.queue
            """
        )
        assert READS_SIM_STATE in atoms(graph, "S.peek")

    def test_parameter_attribute_read_is_reads_sim_state(self):
        graph = analyze("def f(job):\n    return job.deadline\n")
        assert READS_SIM_STATE in atoms(graph, "f")

    def test_self_write_and_mutator_call_are_mutates_self(self):
        graph = analyze(
            """
            class S:
                def note(self, job):
                    self.count = 1
                def push(self, job):
                    self.items.append(job)
            """
        )
        assert MUTATES_SELF in atoms(graph, "S.note")
        assert MUTATES_SELF in atoms(graph, "S.push")
        assert MUTATES_GLOBAL not in atoms(graph, "S.push")

    def test_global_statement_is_mutates_global(self):
        graph = analyze(
            """
            _count = 0
            def bump():
                global _count
                _count += 1
            """
        )
        assert MUTATES_GLOBAL in atoms(graph, "bump")

    def test_module_state_mutator_call_is_mutates_global(self):
        graph = analyze(
            """
            STATE = {}
            def record(job):
                STATE.update({job: 1})
            """
        )
        assert MUTATES_GLOBAL in atoms(graph, "record")

    def test_module_iterator_draw_is_global_and_nondet(self):
        graph = analyze(
            """
            import itertools
            _ids = itertools.count()
            def fresh():
                return next(_ids)
            """
        )
        assert {MUTATES_GLOBAL, NONDET} <= atoms(graph, "fresh")

    def test_local_shadow_of_module_state_is_clean(self):
        graph = analyze(
            """
            STATE = {}
            def f():
                STATE = {}
                STATE.update({1: 2})
                return STATE
            """
        )
        assert MUTATES_GLOBAL not in atoms(graph, "f")

    def test_io_builtins_and_os_calls(self):
        graph = analyze(
            """
            import os
            import os.path
            def shout(msg):
                print(msg)
            def wipe(path):
                os.remove(path)
            def join(a, b):
                return os.path.join(a, b)
            """
        )
        assert IO in atoms(graph, "shout")
        assert IO in atoms(graph, "wipe")
        assert IO not in atoms(graph, "join")

    def test_bare_name_call_to_imported_io_function_is_io(self):
        # ``from subprocess import run; run(...)`` must not slip past
        # the scanner just because the call is not dotted.
        graph = analyze(
            """
            from subprocess import run
            from shutil import rmtree
            def launch(cmd):
                run(cmd)
            def wipe(path):
                rmtree(path)
            """
        )
        assert IO in atoms(graph, "launch")
        assert IO in atoms(graph, "wipe")

    def test_wallclock_read_is_nondet(self):
        graph = analyze(
            """
            import time
            def now():
                return time.time()
            """
        )
        assert NONDET in atoms(graph, "now")

    def test_escaping_raise_is_raises(self):
        graph = analyze(
            "def f():\n    raise ValueError('no')\n"
        )
        assert RAISES in atoms(graph, "f")


# --------------------------------------------------------------------- #
# interprocedural propagation (the SCC fixpoint)
# --------------------------------------------------------------------- #


class TestPropagation:
    def test_caller_inherits_callee_atoms(self):
        graph = analyze(
            """
            import time
            def leaf():
                return time.time()
            def mid():
                return leaf()
            def top():
                return mid()
            """
        )
        for qname in ("leaf", "mid", "top"):
            assert NONDET in atoms(graph, qname)

    def test_mutual_recursion_shares_one_summary(self):
        graph = analyze(
            """
            def ping(n):
                print(n)
                return pong(n - 1)
            def pong(n):
                return ping(n) if n else 0
            """
        )
        assert atoms(graph, "ping") == atoms(graph, "pong")
        assert IO in atoms(graph, "pong")

    def test_self_recursion_terminates(self):
        graph = analyze(
            "def f(n):\n    return f(n - 1) if n else 0\n"
        )
        assert RAISES not in atoms(graph, "f")

    def test_witness_chain_reaches_the_sink(self):
        graph = analyze(
            """
            import time
            def leaf():
                return time.time()
            def mid():
                return leaf()
            def top():
                return mid()
            """
        )
        fn = graph.module_index(_MOD_NAME).functions["top"]
        found = effect_witness(fn, NONDET)
        assert found is not None
        chain, sink = found
        assert [c.rpartition(".")[2] for c in chain] == ["top", "mid", "leaf"]
        assert "time.time" in sink.detail

    def test_witness_absent_for_missing_atom(self):
        graph = analyze("def f():\n    return 1\n")
        fn = graph.module_index(_MOD_NAME).functions["f"]
        assert effect_witness(fn, IO) is None

    def test_witness_survives_chains_deeper_than_64(self):
        # A BFS-shortest chain longer than the old 64-step guard used
        # to fall off the walk and hit an assert; it must now resolve.
        deep = "import time\ndef f0():\n    return time.time()\n" + "".join(
            f"def f{i}():\n    return f{i - 1}()\n" for i in range(1, 101)
        )
        graph = analyze(deep)
        fn = graph.module_index(_MOD_NAME).functions["f100"]
        found = effect_witness(fn, NONDET)
        assert found is not None
        chain, sink = found
        assert len(chain) == 101
        assert "time.time" in sink.detail
        assert graph.witness(fn, "wallclock") is not None

    def test_witness_degrades_to_none_on_cyclic_steps(self):
        # A corrupted steps table (call step pointing back at itself)
        # must exhaust the guard and return None, never raise.
        from repro.analysis.callgraph import FuncNode
        from repro.analysis.effects import EffectSummary

        fn = FuncNode(module="m", path="m.py", qname="f", lineno=1)
        fn.effects = EffectSummary(
            atoms=frozenset({IO}), steps={IO: ("call", fn)}
        )
        assert effect_witness(fn, IO) is None


# --------------------------------------------------------------------- #
# certification
# --------------------------------------------------------------------- #


def _registry_items():
    from repro.schedulers import _REGISTRY

    return sorted(_REGISTRY.items())


@pytest.fixture(scope="module")
def package_graph():
    """One call graph over the installed package plus the fixture."""
    from repro.analysis.runner import iter_python_files

    import repro

    graph = CallGraph(LintConfig())
    files = list(iter_python_files([Path(repro.__file__).parent]))
    files.append(DIVERGING)
    for file_path in files:
        display = file_path.resolve().relative_to(REPO_ROOT).as_posix()
        source = file_path.read_text(encoding="utf-8")
        graph.add_module(display, ast.parse(source, filename=display), source)
    graph.finalize()
    return graph


class TestCertification:
    def test_every_registry_scheduler_is_service_safe(self, package_graph):
        names = _registry_items()
        assert names, "scheduler registry is empty"
        for name, cls in names:
            spec = importlib.util.find_spec(cls.__module__)
            assert spec is not None and spec.origin is not None
            display = Path(spec.origin).resolve().relative_to(REPO_ROOT).as_posix()
            doc = certificate_for_class(
                package_graph,
                module_name_for_path(display),
                cls.__name__,
                target=name,
                src_digest=source_digest(Path(spec.origin).read_text()),
            )
            assert doc["certified"], (
                f"{name} failed certification: {failure_message(doc)}"
            )
            assert doc["cache_safe"] and doc["parallel_safe"] and doc["service_safe"]
            assert doc["witness"] is None
            # choose_next_* exists in the closure and stays read-only.
            assert "choose_next_map_task" in doc["effects"]

    def test_diverging_fixture_is_rejected_with_witness(self, package_graph):
        display = DIVERGING.relative_to(REPO_ROOT).as_posix()
        doc = certificate_for_class(
            package_graph,
            module_name_for_path(display),
            "DivergingScheduler",
            target="diverging",
            src_digest=source_digest(DIVERGING.read_text()),
        )
        assert not doc["certified"]
        assert not doc["cache_safe"]
        assert not doc["parallel_safe"]
        assert not doc["service_safe"]
        witness = doc["witness"]
        assert witness is not None
        assert witness["atom"] == NONDET
        assert witness["method"] == "__init__"
        assert "_instances" in witness["detail"]
        assert any("__init__" in hop for hop in witness["chain"])
        assert "_instances" in failure_message(doc)

    def test_certify_target_end_to_end(self, tmp_path):
        cache = AnalysisCache.load(tmp_path / "cache.json")
        doc = certify_target("fifo", cache=cache, root=REPO_ROOT)
        assert doc["certified"] and doc["class"] == "FIFOScheduler"
        # Warm path: same program key -> the stored document verbatim.
        warm_cache = AnalysisCache.load(tmp_path / "cache.json")
        warm = certify_target("fifo", cache=warm_cache, root=REPO_ROOT)
        assert warm == doc

    def test_unknown_target_raises(self):
        with pytest.raises(CertificationError, match="unknown certify target"):
            resolve_target("no-such-scheduler")
        with pytest.raises(CertificationError, match="bad class name"):
            resolve_target("mod.py:not an identifier")
        with pytest.raises(CertificationError, match="no such module file"):
            resolve_target("missing/dir/mod.py:Cls")


# --------------------------------------------------------------------- #
# the incremental analysis cache
# --------------------------------------------------------------------- #

#: A sim-path module with one deliberate DET violation.
_DIRTY = """\
import time


def stamp():
    return time.time()
"""

_CLEAN = """\
def stamp():
    return 1234.5
"""


def _make_tree(root: Path) -> Path:
    tree = root / "schedulers"
    tree.mkdir()
    (tree / "dirty.py").write_text(_DIRTY)
    (tree / "clean.py").write_text(_CLEAN.replace("stamp", "other"))
    return tree


class TestAnalysisCache:
    def test_warm_findings_identical_and_no_reanalysis_needed(self, tmp_path):
        tree = _make_tree(tmp_path)
        cache_path = tmp_path / ".analysis_cache.json"
        cold = lint_paths(
            [tree], root=tmp_path, cache=AnalysisCache.load(cache_path)
        )
        assert any(f.rule_id.startswith("DET") for f in cold)
        assert cache_path.is_file()
        warm = lint_paths(
            [tree], root=tmp_path, cache=AnalysisCache.load(cache_path)
        )
        assert [f.to_dict() for f in warm] == [f.to_dict() for f in cold]

    def test_source_change_invalidates(self, tmp_path):
        tree = _make_tree(tmp_path)
        cache_path = tmp_path / ".analysis_cache.json"
        cold = lint_paths(
            [tree], root=tmp_path, cache=AnalysisCache.load(cache_path)
        )
        (tree / "dirty.py").write_text(_CLEAN)
        after = lint_paths(
            [tree], root=tmp_path, cache=AnalysisCache.load(cache_path)
        )
        dirty_rules = {f.rule_id for f in cold} - {f.rule_id for f in after}
        assert dirty_rules, "fixing the violation must change the findings"

    def test_config_change_misses(self, tmp_path):
        mods = [("schedulers/a.py", source_digest("x = 1\n"))]
        base = program_key(LintConfig(), mods)
        assert program_key(LintConfig(disable=frozenset({"DET001"})), mods) != base
        assert program_key(
            LintConfig(), [("schedulers/a.py", source_digest("x = 2\n"))]
        ) != base
        # Order independence: the key names content, not iteration order.
        two = [("a.py", "d1"), ("b.py", "d2")]
        assert program_key(LintConfig(), two) == program_key(
            LintConfig(), list(reversed(two))
        )

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        cache = AnalysisCache.load(path)
        assert cache.lookup_findings("anything") is None
        path.write_text(json.dumps({"version": 99}))
        assert AnalysisCache.load(path).lookup_findings("k") is None

    def test_stale_engine_version_discards_store(self, tmp_path):
        path = tmp_path / "cache.json"
        data = AnalysisCache._empty()
        data["engine"] = "different"
        data["program"]["key"] = {"findings": []}
        path.write_text(json.dumps(data))
        assert AnalysisCache.load(path).lookup_findings("key") is None

    def test_certificate_store_roundtrip(self, tmp_path):
        cache = AnalysisCache.load(tmp_path / "cache.json")
        doc = {"certified": True, "witness": None}
        cache.store_certificate("mod:Cls", "key1", doc)
        cache.save()
        reloaded = AnalysisCache.load(tmp_path / "cache.json")
        assert reloaded.lookup_certificate("mod:Cls", "key1") == doc
        assert reloaded.lookup_certificate("mod:Cls", "key2") is None
        assert reloaded.lookup_certificate("other:Cls", "key1") is None

    def test_default_cache_path_is_baseline_sibling(self):
        assert default_cache_path(None) is None
        got = default_cache_path(Path("scripts/lint_baseline.json"))
        assert got == Path("scripts/.analysis_cache.json")

    def test_engine_version_is_stable_within_process(self):
        assert engine_version() == engine_version()

    def test_engine_version_depends_on_interpreter(self, monkeypatch):
        # A checkout shared across Python versions must not replay
        # cached findings produced by a different interpreter.
        import sys

        baseline = engine_version()
        fake = (sys.version_info[0] + 1, 0, 0, "final", 0)
        monkeypatch.setattr(sys, "version_info", fake)
        assert engine_version() != baseline
