"""simlint: determinism & simulation-invariant static analysis for SimMR.

SimMR's headline guarantees — bit-reproducible trace replay and >1M
events/sec — rest on invariants the type system cannot see: wall-clock
independence, seeded randomness, stable iteration orders in tie-breaking
paths, and scheduler plugins that honour the paper's narrow
``choose_next_*`` contract (Section III-B).  This package machine-checks
those invariants over the source tree.

Layout
------
``findings``   the :class:`Finding` record and severity levels
``config``     :class:`LintConfig` (rule selection, path classification)
``registry``   the rule registry, rule docs, id validation
``visitor``    the single-pass AST walker and per-file context
``rules``      the DET/SIM/API rule implementations and CONC/RES shims
``callgraph``  the whole-program module index, call edges and the
               wallclock/rng/mutation/raise taint closures
``cfg``        per-function control-flow graphs with exceptional edges
``dataflow``   the forward "held resource" walk over CFGs
``concurrency`` thread-entry reachability and the CONC rule family
``resources``  acquire/release path tracking and the RES rule family
``cache``      the content-addressed incremental analysis store
``reporter``   text, JSON, GitHub-annotation and SARIF renderers
``runner``     directory walking and the public ``lint_paths`` API

Entry points: ``simmr lint`` / ``python -m repro lint`` (see
:mod:`repro.cli`), the ``lint_paths`` / ``lint_source`` functions here,
and the CI gate in ``tests/test_simlint.py``.
"""

from __future__ import annotations

from .cache import AnalysisCache
from .config import LintConfig
from .findings import Finding, Severity
from .registry import RuleInfo, RuleRegistry, default_registry
from .reporter import render_github, render_json, render_sarif, render_text
from .runner import lint_paths, lint_source

__all__ = [
    "AnalysisCache",
    "Finding",
    "Severity",
    "LintConfig",
    "RuleInfo",
    "RuleRegistry",
    "default_registry",
    "lint_paths",
    "lint_source",
    "render_text",
    "render_json",
    "render_github",
    "render_sarif",
]
