"""The ``simmr check`` gate: static lint + dynamic sanitizer in one pass.

``simmr lint`` proves code properties; a sanitized replay proves run
properties.  :func:`run_check` bundles both:

1. **Static half** — run the simlint registry (including the
   cross-module rules DET004/SIM004/API002) over the requested paths.
2. **Dynamic half** — for each requested scheduling policy, replay a
   trace twice on independently built
   :class:`~repro.core.kernel.ColumnarEngine` instances (the engine
   ``simulate`` and every sweep use, in the mode each run takes) with a
   collecting sanitizer attached (:func:`repro.sanitize.digest.dual_run`),
   then report every invariant violation and any replay divergence.

The trace is either loaded from a file or synthesised from the paper's
six-application mix with deadlines, so deadline-driven policies
(MinEDF/MaxEDF) exercise their slot-demand paths too.  The CLI wrapper
(``simmr check``) renders the report as text or JSON and exits non-zero
on any finding, violation or divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..analysis.config import LintConfig
from ..analysis.findings import Finding, Severity
from ..analysis.reporter import render_text, summarize
from ..analysis.runner import lint_paths
from ..core.cluster import ClusterConfig
from ..core.job import TraceJob
from ..core.kernel import ColumnarEngine
from .digest import DivergenceReport, dual_run
from .sanitizer import Violation

__all__ = [
    "PolicyCheck",
    "SchedulerCheck",
    "CheckReport",
    "default_check_trace",
    "run_check",
]

#: One static-path policy, one dynamic-path policy, one deadline/demand
#: policy — together they cover every engine allocation path.
DEFAULT_SCHEDULERS = ("fifo", "fair", "minedf")


@dataclass(frozen=True, slots=True)
class SchedulerCheck:
    """Dynamic-half result for one scheduling policy."""

    scheduler: str
    events: int
    makespan: float
    violations: tuple[Violation, ...]
    divergence: DivergenceReport

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergence.diverged

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "ok": self.ok,
            "events": self.events,
            "makespan": self.makespan,
            "violations": [
                {
                    "check_id": v.check_id,
                    "message": v.message,
                    "time": v.time,
                    "event_index": v.event_index,
                }
                for v in self.violations
            ],
            "divergence": self.divergence.to_dict(),
        }


@dataclass(frozen=True, slots=True)
class PolicyCheck:
    """Policy-half result: POL00x validation of one policy tree.

    ``digest``/``static`` describe the certified document (empty/None
    when the document failed schema validation outright).
    """

    policy: str
    findings: tuple[Finding, ...]
    digest: str = ""
    static: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "ok": self.ok,
            "digest": self.digest,
            "static": self.static,
            "findings": [f.to_dict() for f in self.findings],
        }


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Combined outcome of the static, dynamic and policy halves.

    Every static finding gates: a finding is accepted only at its
    source, by an inline suppression comment or ``[tool.simlint]
    disable``.
    """

    findings: tuple[Finding, ...]
    runs: tuple[SchedulerCheck, ...]
    policies: tuple[PolicyCheck, ...] = ()

    @property
    def ok(self) -> bool:
        return (not self.findings
                and all(r.ok for r in self.runs)
                and all(p.ok for p in self.policies))

    def merged_findings(self) -> list[dict]:
        """Lint, sanitizer and policy findings as ONE tagged list.

        Consumers of ``simmr check --format json`` previously had to
        stitch the static and dynamic halves together themselves (and
        most forgot the dynamic one).  Each entry carries a ``source``
        discriminator — ``"lint"`` for static findings, ``"sanitizer"``
        for runtime violations and replay divergences, ``"policy"`` for
        POL00x policy-tree certification findings — over an otherwise
        source-shaped payload.
        """
        merged: list[dict] = [
            {"source": "lint", **f.to_dict()} for f in self.findings
        ]
        for policy in self.policies:
            for f in policy.findings:
                merged.append({
                    "source": "policy",
                    "policy": policy.policy,
                    **f.to_dict(),
                })
        for run in self.runs:
            for v in run.violations:
                merged.append({
                    "source": "sanitizer",
                    "scheduler": run.scheduler,
                    "check_id": v.check_id,
                    "message": v.message,
                    "time": v.time,
                    "event_index": v.event_index,
                })
            if run.divergence.diverged:
                merged.append({
                    "source": "sanitizer",
                    "scheduler": run.scheduler,
                    "check_id": "DIVERGENCE",
                    "message": run.divergence.describe(),
                })
        return merged

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "findings": self.merged_findings(),
            "static": {
                "summary": summarize(self.findings),
                "findings": [f.to_dict() for f in self.findings],
            },
            "dynamic": [r.to_dict() for r in self.runs],
            "policy": [p.to_dict() for p in self.policies],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = ["== static (simlint) =="]
        lines.append(render_text(self.findings))
        lines.append("")
        lines.append("== dynamic (simsan) ==")
        if not self.runs:
            lines.append("simsan: no dynamic runs requested")
        for run in self.runs:
            status = "ok" if run.ok else "FAIL"
            lines.append(
                f"{run.scheduler:10} {status:4} {run.events} events, "
                f"makespan {run.makespan:.1f}s, "
                f"{len(run.violations)} violation(s), "
                f"{'diverged' if run.divergence.diverged else 'replay identical'}"
            )
            for v in run.violations:
                lines.append(f"  {v}")
            if run.divergence.diverged:
                lines.append(f"  {run.divergence.describe()}")
        if self.policies:
            lines.append("")
            lines.append("== policy (POL00x certification) ==")
            for policy in self.policies:
                status = "ok" if policy.ok else "FAIL"
                shape = ("static" if policy.static
                         else "dynamic" if policy.static is not None else "?")
                lines.append(
                    f"{policy.policy:18} {status:4} {shape:8} "
                    f"digest {policy.digest or '-'} "
                    f"{len(policy.findings)} finding(s)"
                )
                for f in policy.findings:
                    lines.append(f"  {f.format()}")
        lines.append("")
        lines.append(f"simmr check: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def default_check_trace(jobs: int = 12, seed: int = 7) -> list[TraceJob]:
    """A small deterministic mixed workload with deadlines.

    Sampled from the paper's six-application mix with a fixed seed so
    every ``simmr check`` invocation replays the same trace; deadlines
    (factor 3 of the ARIA lower bound) give MinEDF/MaxEDF real work.
    """
    from ..trace.arrivals import ExponentialArrivals
    from ..trace.deadlines import DeadlineFactorPolicy
    from ..trace.synthetic import SyntheticTraceGen
    from ..workloads.apps import make_app_specs

    cluster = ClusterConfig(64, 64)
    gen = SyntheticTraceGen(
        list(make_app_specs().values()),
        ExponentialArrivals(60.0),
        deadline_policy=DeadlineFactorPolicy(3.0, cluster),
        seed=seed,
    )
    return gen.generate(jobs)


def run_check(
    paths: Sequence[Path] = (),
    *,
    config: Optional[LintConfig] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    trace: Optional[Sequence[TraceJob]] = None,
    jobs: int = 12,
    seed: int = 7,
    cluster: Optional[ClusterConfig] = None,
    slowstart: float = 0.05,
    static: bool = True,
    dynamic: bool = True,
    policy: bool = True,
    policy_files: Sequence[Path] = (),
) -> CheckReport:
    """Run the combined static + dynamic + policy correctness gate.

    The policy half (``policy=True``) certifies the built-in example
    trees (:data:`repro.policy.EXAMPLE_POLICIES`) plus any
    ``policy_files`` (JSON documents on disk) with the POL00x rules;
    ERROR-severity policy findings fail the gate, and every finding is
    merged into the ``--format json`` report under ``source: policy``.
    """
    from ..schedulers import make_scheduler

    findings: tuple[Finding, ...] = ()
    if static and paths:
        findings = tuple(lint_paths(paths, config=config or LintConfig()))

    runs: list[SchedulerCheck] = []
    if dynamic:
        check_trace = list(trace) if trace is not None else default_check_trace(jobs, seed)
        check_cluster = cluster or ClusterConfig(64, 64)
        for name in schedulers:

            def factory(name: str = name) -> ColumnarEngine:
                return ColumnarEngine(
                    check_cluster,
                    make_scheduler(name),
                    min_map_percent_completed=slowstart,
                )

            outcome = dual_run(factory, check_trace)
            runs.append(
                SchedulerCheck(
                    scheduler=name,
                    events=outcome.results[0].events_processed,
                    makespan=outcome.results[0].makespan,
                    violations=outcome.violations[0] + outcome.violations[1],
                    divergence=outcome.report,
                )
            )
    policies: list[PolicyCheck] = []
    if policy:
        from ..policy import EXAMPLE_POLICIES, policy_digest, validate_policy

        documents: list[tuple[str, object]] = [
            (name, doc) for name, doc in sorted(EXAMPLE_POLICIES.items())
        ]
        for path in policy_files:
            try:
                documents.append((str(path), path.read_text()))
            except OSError as exc:
                policies.append(PolicyCheck(
                    policy=str(path),
                    findings=(Finding(
                        path=str(path), line=0, col=0, rule_id="POL001",
                        severity=Severity.ERROR,
                        message=f"unreadable policy file: {exc}",
                    ),),
                ))
        for label, document in documents:
            report = validate_policy(document, label=label)
            doc = report.doc
            policies.append(PolicyCheck(
                policy=label,
                findings=report.findings,
                digest=policy_digest(doc) if doc is not None else "",
                static=doc.is_static() if doc is not None else None,
            ))

    return CheckReport(
        findings=findings,
        runs=tuple(runs),
        policies=tuple(policies),
    )
