"""Incremental-analysis payoff: cold vs warm full-tree lint.

The analysis cache (``repro.analysis.cache``) claims a warm ``simmr
lint`` over an unchanged tree is a digest sweep plus a JSON replay —
no parsing, no call graph or taint closures, no CFG dataflow.  This
benchmark measures the claim: one cold run populating a fresh cache,
one warm run against it, both over the real ``src/repro`` tree.

Results go to ``BENCH_lint.json`` at the repo root; the perf gate
(``scripts/perf_gate.py``) enforces the warm-run floor — the warm run
must be at least ``MIN_WARM_SPEEDUP``x faster — so a cache key that
silently stops matching (and quietly re-runs the full analysis every
time) fails CI instead of just wasting everyone's time.

Findings must be identical between the runs; a cache that changes the
answer is worse than no cache.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import AnalysisCache, lint_paths
from repro.core.walltime import elapsed_since, perf_seconds

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Asserted here AND enforced (against the written report) by
#: scripts/perf_gate.py.  The measured ratio is typically far higher
#: (>50x); 3x keeps slow CI runners out of the flake zone.
MIN_WARM_SPEEDUP = 3.0


def _cold_and_warm(tree: Path, cache_path: Path) -> dict:
    cold_cache = AnalysisCache.load(cache_path)
    start = perf_seconds()
    cold_findings = lint_paths([tree], root=REPO_ROOT, cache=cold_cache)
    cold_seconds = elapsed_since(start)

    warm_cache = AnalysisCache.load(cache_path)
    start = perf_seconds()
    warm_findings = lint_paths([tree], root=REPO_ROOT, cache=warm_cache)
    warm_seconds = elapsed_since(start)

    assert [f.to_dict() for f in warm_findings] == [
        f.to_dict() for f in cold_findings
    ], "warm (cached) findings differ from cold findings"
    return {
        "tree": str(tree.relative_to(REPO_ROOT)),
        "findings": len(cold_findings),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "asserted_min_speedup": MIN_WARM_SPEEDUP,
    }


def test_incremental_lint_speedup(benchmark, tmp_path):
    tree = REPO_ROOT / "src" / "repro"
    cache_path = tmp_path / ".analysis_cache.json"

    report = benchmark.pedantic(
        _cold_and_warm, args=(tree, cache_path), rounds=1, iterations=1
    )
    (REPO_ROOT / "BENCH_lint.json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nlint cold {report['cold_seconds']:.2f}s -> warm "
        f"{report['warm_seconds']:.3f}s ({report['speedup']:.0f}x) over "
        f"{report['findings']} finding(s)"
    )
    assert report["speedup"] >= MIN_WARM_SPEEDUP
