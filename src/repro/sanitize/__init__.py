"""simsan — the SimMR runtime simulation sanitizer.

Static analysis (:mod:`repro.analysis`) proves properties of the *code*;
this package checks properties of a *run*.  An opt-in checker
(``SIMMR_SANITIZE=1``, ``simmr replay --sanitize``, or an explicit
``sanitize=True`` on either engine) reads the event stream a run
emitted, once the run ends, on whichever path produced it, and
verifies:

* event-time monotonicity and pop order (``EVT*``),
* map/reduce slot conservation against the cluster capacity (``SLT*``,
  ``FIN*``),
* the per-task/job lifecycles — arrival before departure, no
  double-completion, departures with every task done (``LIF*``),
* the paper's filler-reduce / first-shuffle overlap bounds (``OVL*``),
* and, via the event digest, bit-exact replay equivalence of two runs
  of the same trace (``DIV*``; :func:`~repro.sanitize.digest.dual_run`).

When disabled the heap loop pays one untaken branch per event
(``benchmarks/bench_sanitizer_overhead.py`` measures the off path).

``simmr check`` (:mod:`repro.sanitize.check`) bundles the static and
dynamic halves into one gate.  See ``docs/sanitizer.md``.
"""

from .digest import (
    DigestRecorder,
    DivergenceReport,
    DualRunOutcome,
    EventDigest,
    compare_digests,
    dual_run,
    trace_digest,
)
from .sanitizer import Sanitizer, SimsanViolation, Violation

__all__ = [
    "Sanitizer",
    "SimsanViolation",
    "Violation",
    "DigestRecorder",
    "EventDigest",
    "trace_digest",
    "DivergenceReport",
    "DualRunOutcome",
    "compare_digests",
    "dual_run",
]
