"""The content-addressed incremental analysis cache.

Warm runs replay identical findings, any input drift (source, config,
engine, interpreter) misses, and a corrupt or other-version store
degrades to empty.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import AnalysisCache, lint_paths
from repro.analysis.cache import (
    engine_version,
    program_key,
    source_digest,
)
from repro.analysis.config import LintConfig

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

    def test_version_1_store_with_certificates_loads_empty(self, tmp_path):
        # Version 1 stores also carried scheduler certificates; the
        # layout changed, so such a file is discarded, not half-read.
        path = tmp_path / "cache.json"
        data = AnalysisCache._empty()
        data["version"] = 1
        data["certificates"] = {"mod:Cls": {"program": "key", "certificate": {}}}
        data["program"]["key"] = {"findings": []}
        path.write_text(json.dumps(data))
        cache = AnalysisCache.load(path)
        assert cache.lookup_findings("key") is None
        cache.store_findings("key", [])
        cache.save()
        stored = json.loads(path.read_text())
        assert stored["version"] == 2
        assert "certificates" not in stored
        assert AnalysisCache.load(path).lookup_findings("key") == []

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
