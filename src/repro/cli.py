"""The ``simmr`` command-line interface.

Subcommands mirror the SimMR workflow (paper Figure 4):

* ``simmr generate`` — Synthetic TraceGen: sample a trace from the
  built-in workload models into a JSON trace file;
* ``simmr profile`` — MRProfiler: job templates from a JobTracker
  history log into a JSON trace file;
* ``simmr replay`` — Simulator Engine: replay a trace file under a
  scheduling policy and print per-job completion times;
* ``simmr compare`` — replay one trace under several policies and print
  the comparison;
* ``simmr experiment`` — regenerate a paper table/figure by id;
* ``simmr sweep`` — what-if sweep over (scheduler, cluster, slow-start)
  grids, parallelized over a worker pool and backed by the
  content-addressed result cache (``repro.parallel``,
  ``docs/performance.md``);
* ``simmr stats`` / ``compact`` / ``scale`` / ``diff-profiles`` /
  ``fit`` — trace inspection and manipulation;
* ``simmr trace pack`` / ``unpack`` — convert between the JSON trace
  format and the compact binary one (``repro.trace.binfmt``,
  ``docs/traces.md``); every trace-consuming subcommand accepts either;
* ``simmr cache stats`` / ``prune`` / ``clear`` — result-cache
  maintenance (the sqlite store otherwise grows unboundedly);
* ``simmr validate`` — the end-to-end accuracy loop, pass/fail;
* ``simmr lint`` — simlint: determinism & simulation-invariant static
  analysis over the source tree (see ``docs/linting.md``);
* ``simmr check`` — combined gate: simlint + sanitized dual-run replay
  + POL00x policy-tree certification (see ``docs/sanitizer.md``);
* ``simmr evolve`` — seeded evolutionary search over policy trees
  (``repro.policy``, ``docs/policies.md``), scored against a deadline
  workload and reported with a reproducible winner (tree JSON + replay
  event digest);
* ``simmr serve`` / ``simmr submit`` — the simulation service: a
  long-lived HTTP replay server with a bounded job queue, result-cache
  front and ``/metrics``, plus the matching client command
  (``repro.service``, ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core.cluster import ClusterConfig
from .core.engine import simulate
from .core.job import TraceJob
from .schedulers import make_scheduler
from .trace.arrivals import ExponentialArrivals
from .trace.schema import save_trace
from .trace.synthetic import SyntheticTraceGen

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "table1", "fig5", "fig6", "fig7", "fig8",
    "preemption", "ablations", "zoo", "locality",
)

_CHECK_SCHEDULERS = ("fifo", "fair", "minedf")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simmr",
        description="SimMR: trace-driven MapReduce simulation (CLUSTER 2011 reproduction)",
    )
    # The same version string that salts ResultCache keys — so "which
    # cache entries does this binary resurrect" is answerable from the
    # shell.
    parser.add_argument(
        "--version", action="version", version=f"simmr {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic trace file")
    gen.add_argument("output", type=Path, help="output trace JSON path")
    gen.add_argument("--jobs", type=int, default=20, help="number of jobs (default 20)")
    gen.add_argument(
        "--workload",
        choices=["mix", "facebook"]
        + ["WordCount", "WikiTrends", "Twitter", "Sort", "TFIDF", "Bayes"],
        default="mix",
        help="workload model (default: the six-application mix)",
    )
    gen.add_argument(
        "--mean-interarrival", type=float, default=100.0, help="mean inter-arrival seconds"
    )
    gen.add_argument(
        "--deadline-factor",
        type=float,
        default=None,
        help="assign deadlines uniform in [T_J, df*T_J]",
    )
    gen.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="generate from a fitted spec JSON (overrides --workload)",
    )
    gen.add_argument("--seed", type=int, default=0)

    prof = sub.add_parser("profile", help="extract a trace from a JobTracker history log")
    prof.add_argument("history", type=Path, help="history log path")
    prof.add_argument("output", type=Path, help="output trace JSON path")

    rep = sub.add_parser("replay", help="replay a trace file")
    rep.add_argument("trace", type=Path, help="trace JSON path")
    rep.add_argument("--scheduler", default="fifo", help="fifo | maxedf | minedf | fair")
    rep.add_argument("--map-slots", type=int, default=64)
    rep.add_argument("--reduce-slots", type=int, default=64)
    rep.add_argument("--slowstart", type=float, default=0.05)
    rep.add_argument("--output", type=Path, default=None,
                     help="write the full output log (JSON) here")
    rep.add_argument("--csv", type=Path, default=None,
                     help="write the per-job table (CSV) here")
    rep.add_argument("--sanitize", action="store_true",
                     help="run under the simsan runtime sanitizer "
                     "(fails fast on any simulation-invariant violation)")
    rep.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_",
        help="report format (default text); json includes the engine "
        "that ran (engine_path)",
    )

    cmp_ = sub.add_parser("compare", help="replay a trace under several schedulers")
    cmp_.add_argument("trace", type=Path)
    cmp_.add_argument(
        "--schedulers", default="fifo,maxedf,minedf", help="comma-separated policy names"
    )
    cmp_.add_argument("--map-slots", type=int, default=64)
    cmp_.add_argument("--reduce-slots", type=int, default=64)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", choices=_EXPERIMENTS, help="experiment id")
    exp.add_argument("--runs", type=int, default=None, help="averaging runs (fig7/fig8)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--plot", action="store_true", help="render a text plot of the result")
    exp.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for parallelizable experiments (zoo)",
    )

    stats = sub.add_parser("stats", help="summarize a trace file")
    stats.add_argument("trace", type=Path)
    stats.add_argument("--map-slots", type=int, default=64)
    stats.add_argument("--reduce-slots", type=int, default=64)

    comp = sub.add_parser("compact", help="remove inactivity periods from a trace")
    comp.add_argument("trace", type=Path)
    comp.add_argument("output", type=Path)
    comp.add_argument("--max-gap", type=float, default=60.0,
                      help="largest inter-submission gap to keep (seconds)")

    scale = sub.add_parser("scale", help="scale a trace to a larger dataset")
    scale.add_argument("trace", type=Path)
    scale.add_argument("output", type=Path)
    scale.add_argument("factor", type=float, help="dataset size ratio (new/old)")
    scale.add_argument("--pin-reduces", action="store_true",
                       help="keep reduce counts fixed, stretching their durations")
    scale.add_argument("--seed", type=int, default=0)

    diff = sub.add_parser(
        "diff-profiles",
        help="compare two traces' job templates (same application?)",
    )
    diff.add_argument("trace_a", type=Path)
    diff.add_argument("trace_b", type=Path)
    diff.add_argument("--job-a", type=int, default=0, help="job index in trace A")
    diff.add_argument("--job-b", type=int, default=0, help="job index in trace B")
    diff.add_argument("--kl-threshold", type=float, default=2.5)

    sweep = sub.add_parser("sweep", help="what-if sweep over configurations")
    sweep.add_argument("trace", type=Path)
    sweep.add_argument(
        "--schedulers", default="fifo,maxedf,minedf", help="comma-separated policy names"
    )
    sweep.add_argument(
        "--map-slots", default="32,64,128", help="comma-separated map-slot counts"
    )
    sweep.add_argument(
        "--reduce-slots",
        default=None,
        help="comma-separated reduce-slot counts (default: same as map slots)",
    )
    sweep.add_argument(
        "--slowstarts", default="0.05", help="comma-separated slow-start thresholds"
    )
    sweep.add_argument(
        "--best-by",
        default=None,
        choices=["makespan", "mean_duration", "p95_duration", "deadline_utility"],
        help="also print the winning configuration for this metric",
    )
    sweep.add_argument(
        "--workers", type=int, default=0,
        help="fan the grid out over N worker processes (default: in-process)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache",
    )
    sweep.add_argument(
        "--fresh", action="store_true",
        help="ignore cached results (re-execute every cell) but store the new ones",
    )
    sweep.add_argument(
        "--cache-path", type=Path, default=None,
        help="result-cache sqlite file (default: $SIMMR_CACHE_DIR/results.sqlite "
        "or ~/.cache/simmr/results.sqlite)",
    )
    sweep.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_",
        help="report format (default text)",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines (stderr)",
    )

    fit = sub.add_parser(
        "fit",
        help="fit a generative job spec from a trace's recorded profiles",
    )
    fit.add_argument("trace", type=Path,
                     help="trace file (JSON or .simmr) with recorded executions")
    fit.add_argument("output", type=Path, help="output spec JSON path")
    fit.add_argument("--name", default=None, help="spec name")
    fit.add_argument(
        "--no-same-app-check",
        action="store_true",
        help="skip the same-application KL check before blending profiles",
    )

    val = sub.add_parser(
        "validate",
        help="run the end-to-end validation loop (emulate, profile, replay)",
    )
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--executions", type=int, default=1, help="executions per application")

    lint = sub.add_parser(
        "lint",
        help="simlint: check determinism & simulation invariants (DET/SIM/API rules)",
    )
    lint.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to check (default: src/repro, or the "
        "repro package next to this module)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "github", "sarif"], default="text",
        dest="format_",
        help="report format (default text; github = Actions annotations; "
        "sarif = SARIF 2.1.0 for code-scanning upload)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--disable", default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--config", type=Path, default=None,
        help="pyproject.toml to read [tool.simlint] from (default: nearest "
        "pyproject.toml above the first path)",
    )
    lint.add_argument(
        "--no-config", action="store_true",
        help="ignore [tool.simlint] and use built-in defaults",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its documentation and exit",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental analysis cache",
    )
    lint.add_argument(
        "--analysis-cache", type=Path, default=None,
        help="incremental analysis cache JSON (default: no caching)",
    )

    chk = sub.add_parser(
        "check",
        help="combined correctness gate: simlint + sanitized dual-replay (simsan)",
    )
    chk.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories for the static half (default: src/repro, "
        "or the repro package next to this module)",
    )
    chk.add_argument(
        "--trace", type=Path, default=None,
        help="trace file to replay, JSON or .simmr (default: a "
        "deterministic synthetic mix)",
    )
    chk.add_argument(
        "--schedulers", default=",".join(_CHECK_SCHEDULERS),
        help="comma-separated policies for the dynamic half "
        f"(default {','.join(_CHECK_SCHEDULERS)})",
    )
    chk.add_argument("--jobs", type=int, default=12,
                     help="synthetic trace size (ignored with --trace)")
    chk.add_argument("--seed", type=int, default=7,
                     help="synthetic trace seed (ignored with --trace)")
    chk.add_argument("--map-slots", type=int, default=64)
    chk.add_argument("--reduce-slots", type=int, default=64)
    chk.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_",
        help="report format (default text)",
    )
    chk.add_argument("--static-only", action="store_true",
                     help="skip the sanitized replays")
    chk.add_argument("--dynamic-only", action="store_true",
                     help="skip the static lint")
    chk.add_argument(
        "--policy", action="append", type=Path, default=None, metavar="TREE",
        dest="policies",
        help="policy tree JSON file to certify with the POL00x rules "
        "(repeatable; the built-in example trees are always checked)",
    )
    chk.add_argument(
        "--no-policy", action="store_true",
        help="skip the policy-certification half",
    )

    evo = sub.add_parser(
        "evolve",
        help="evolutionary search over policy trees against a deadline "
        "workload (seeded, reproducible; see docs/policies.md)",
    )
    evo.add_argument("--seed", type=int, default=0,
                     help="master seed: workload, population, mutation and "
                     "tournament draws all derive from it (default 0)")
    evo.add_argument("--population", type=int, default=12)
    evo.add_argument("--generations", type=int, default=5)
    evo.add_argument("--jobs", type=int, default=24,
                     help="jobs per workload trace (default 24)")
    evo.add_argument("--traces", type=int, default=2,
                     help="independent workload traces to score against "
                     "(default 2)")
    evo.add_argument("--mean-interarrival", type=float, default=30.0,
                     help="workload arrival rate (s; default 30 — an "
                     "overloaded cluster, where policy choice matters)")
    evo.add_argument("--deadline-factor", type=float, default=1.4,
                     help="deadline = U[T_J, df*T_J] over the solo "
                     "completion time (default 1.4 — tight)")
    evo.add_argument("--map-slots", type=int, default=32)
    evo.add_argument("--reduce-slots", type=int, default=32)
    evo.add_argument("--workers", type=int, default=0,
                     help="parallel executor fan-out per scoring batch "
                     "(<=1 = in-process; results identical)")
    evo.add_argument("--output", type=Path, default=None,
                     help="write the winning tree JSON to this file")
    evo.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_",
        help="report format (default text)",
    )
    evo.add_argument("--quiet", action="store_true",
                     help="suppress per-generation progress lines")

    trc = sub.add_parser(
        "trace",
        help="binary trace tooling: pack/unpack the compact .simmr format",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    pck = trc_sub.add_parser(
        "pack", help="convert a JSON trace to the compact binary format"
    )
    pck.add_argument("input", type=Path, help="trace JSON path")
    pck.add_argument("output", type=Path, help="output binary trace path (.simmr)")
    upk = trc_sub.add_parser(
        "unpack", help="convert a binary trace back to canonical JSON"
    )
    upk.add_argument("input", type=Path, help="binary trace path (.simmr)")
    upk.add_argument("output", type=Path, help="output trace JSON path")

    cch = sub.add_parser(
        "cache",
        help="result-cache maintenance (the sweep/service sqlite store)",
    )
    cch.add_argument(
        "--cache-path", type=Path, default=None,
        help="result-cache sqlite file (default: $SIMMR_CACHE_DIR/results.sqlite "
        "or ~/.cache/simmr/results.sqlite)",
    )
    cch_sub = cch.add_subparsers(dest="cache_command", required=True)
    cch_sub.add_parser("stats", help="summarize the store (entries, size, ages)")
    prn = cch_sub.add_parser(
        "prune", help="delete entries older than a given age"
    )
    prn.add_argument(
        "--older-than", required=True, metavar="AGE",
        help="age threshold: seconds, or a number suffixed s/m/h/d/w "
        "(e.g. 90m, 12h, 7d)",
    )
    cch_sub.add_parser("clear", help="delete every stored result")

    srv = sub.add_parser(
        "serve",
        help="run the simulation service (long-lived HTTP replay server)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 = ephemeral; the bound port is printed)")
    srv.add_argument("--workers", type=int, default=2,
                     help="persistent worker threads draining the job queue")
    srv.add_argument("--queue-size", type=int, default=16,
                     help="bounded queue length; beyond it requests get "
                     "503 + Retry-After")
    srv.add_argument("--request-timeout", type=float, default=120.0,
                     help="server-side cap on one request's wall-clock budget (s)")
    srv.add_argument("--trace-root", type=Path, default=None,
                     help="directory trace_path requests resolve under "
                     "(default: inline traces only)")
    srv.add_argument("--no-cache", action="store_true",
                     help="disable the content-addressed result cache")
    srv.add_argument("--cache-path", type=Path, default=None,
                     help="result-cache sqlite file (default: $SIMMR_CACHE_DIR/"
                     "results.sqlite or ~/.cache/simmr/results.sqlite)")
    srv.add_argument("--trace-cache-size", type=int, default=8,
                     help="parsed-trace LRU capacity, trace_path files and "
                     "inline traces together (0 disables; default 8)")

    sbm = sub.add_parser(
        "submit",
        help="submit one replay to a running simulation service",
    )
    sbm.add_argument("trace", type=Path, help="trace file, JSON or .simmr (sent inline)")
    sbm.add_argument("--url", default="http://127.0.0.1:8642",
                     help="service base URL (default http://127.0.0.1:8642)")
    sbm.add_argument("--scheduler", default="fifo", help="fifo | maxedf | minedf | fair")
    sbm.add_argument("--map-slots", type=int, default=64)
    sbm.add_argument("--reduce-slots", type=int, default=64)
    sbm.add_argument("--slowstart", type=float, default=0.05)
    sbm.add_argument("--timeout", type=float, default=None,
                     help="per-request simulation budget (seconds)")
    sbm.add_argument("--retries", type=int, default=0,
                     help="absorb up to N 503 rejections by honouring Retry-After")
    sbm.add_argument("--verify", action="store_true",
                     help="also replay locally and assert the event digests match")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from .trace.deadlines import DeadlineFactorPolicy
    from .workloads.apps import app_spec, make_app_specs
    from .workloads.facebook import FacebookJobSpec

    cluster = ClusterConfig(64, 64)
    deadline_policy = (
        DeadlineFactorPolicy(args.deadline_factor, cluster)
        if args.deadline_factor is not None
        else None
    )
    if args.spec is not None:
        import json as _json

        from .trace.synthetic import SyntheticJobSpec

        specs = [SyntheticJobSpec.from_dict(_json.loads(args.spec.read_text()))]
    elif args.workload == "mix":
        specs = list(make_app_specs().values())
    elif args.workload == "facebook":
        specs = [FacebookJobSpec()]
    else:
        specs = [app_spec(args.workload)]
    gen = SyntheticTraceGen(
        specs,
        ExponentialArrivals(args.mean_interarrival),
        deadline_policy=deadline_policy,
        seed=args.seed,
    )
    trace = gen.generate(args.jobs)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} jobs to {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .mrprofiler.profiler import trace_from_history

    trace = trace_from_history(args.history.read_text())
    save_trace(trace, args.output)
    print(f"profiled {len(trace)} jobs from {args.history} into {args.output}")
    return 0


class _TraceLoadError(Exception):
    """A trace file did not load: :func:`main` prints it and exits 2."""


def _load_cli_trace(command: str, path: Path) -> list[TraceJob]:
    """Load a JSON or binary trace; a bad file ends the command (exit 2)."""
    from .trace.binfmt import load_trace_auto

    try:
        return load_trace_auto(path)
    except (ValueError, OSError) as exc:
        raise _TraceLoadError(f"simmr {command}: {path}: {exc}") from None


def _replay(
    trace: Sequence[TraceJob],
    scheduler_name: str,
    map_slots: int,
    reduce_slots: int,
    slowstart: float = 0.05,
    record_tasks: bool = False,
    sanitize: Optional[bool] = None,
):
    scheduler = make_scheduler(scheduler_name)
    return simulate(
        trace,
        scheduler,
        ClusterConfig(map_slots, reduce_slots),
        min_map_percent_completed=slowstart,
        record_tasks=record_tasks,
        sanitize=sanitize,
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = _load_cli_trace("replay", args.trace)
    result = _replay(
        trace, args.scheduler, args.map_slots, args.reduce_slots,
        args.slowstart, record_tasks=args.output is not None,
        sanitize=True if args.sanitize else None,
    )
    if args.format_ == "json":
        import json as _json

        doc = {
            "scheduler": result.scheduler_name,
            "makespan_s": result.makespan,
            "events_processed": result.events_processed,
            "events_per_second": result.events_per_second,
            "engine_path": result.engine_path,
            "deadline_utility": result.relative_deadline_exceeded(),
            "jobs": [
                {
                    "job_id": j.job_id,
                    "name": j.name,
                    "submit_time": j.submit_time,
                    "duration": j.duration,
                    "deadline": j.deadline,
                    "met_deadline": j.met_deadline,
                }
                for j in result.jobs
            ],
        }
        print(_json.dumps(doc, indent=2))
        if args.output is not None:
            from .core.results_io import save_result

            save_result(result, args.output)
        if args.csv is not None:
            from .core.results_io import jobs_to_csv

            args.csv.write_text(jobs_to_csv(result))
        return 0
    print(f"scheduler={result.scheduler_name} makespan={result.makespan:.1f}s "
          f"events={result.events_processed} "
          f"({result.events_per_second:,.0f} events/s) "
          f"engine={result.engine_path or '?'}")
    print(f"{'job':>4} {'name':20} {'submit':>10} {'duration':>10} {'deadline':>10} late")
    for job in result.jobs:
        deadline = f"{job.deadline:.1f}" if job.deadline is not None else "-"
        late = "*" if job.met_deadline is False else ""
        print(
            f"{job.job_id:>4} {job.name:20} {job.submit_time:>10.1f} "
            f"{job.duration:>10.1f} {deadline:>10} {late}"
        )
    util = result.relative_deadline_exceeded()
    if util:
        print(f"relative deadline exceeded: {util:.3f}")
    if args.output is not None:
        from .core.results_io import save_result

        save_result(result, args.output)
        print(f"output log written to {args.output}")
    if args.csv is not None:
        from .core.results_io import jobs_to_csv

        args.csv.write_text(jobs_to_csv(result))
        print(f"job table written to {args.csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    trace = _load_cli_trace("compare", args.trace)
    print(f"{'scheduler':10} {'makespan':>10} {'mean T_J':>10} {'util':>8}")
    for name in names:
        result = _replay(trace, name, args.map_slots, args.reduce_slots)
        durations = list(result.durations().values())
        mean_t = sum(durations) / len(durations) if durations else 0.0
        print(
            f"{result.scheduler_name:10} {result.makespan:>10.1f} {mean_t:>10.1f} "
            f"{result.relative_deadline_exceeded():>8.3f}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .core.cluster import ClusterConfig
    from .trace.tools import trace_summary

    trace = _load_cli_trace("stats", args.trace)
    summary = trace_summary(trace)
    print(summary)
    slots = args.map_slots + args.reduce_slots
    print(f"offered load on a {args.map_slots}x{args.reduce_slots} cluster: "
          f"{summary.offered_load(slots):.2f} "
          f"(task-seconds demanded per slot-second over the span)")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from .trace.tools import compact_trace, trace_summary

    trace = _load_cli_trace("compact", args.trace)
    compacted = compact_trace(trace, max_gap=args.max_gap)
    save_trace(compacted, args.output)
    before = trace_summary(trace).span_seconds
    after = trace_summary(compacted).span_seconds
    print(f"compacted {len(trace)} jobs: span {before:.0f}s -> {after:.0f}s "
          f"(max gap {args.max_gap}s)")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .trace.scaling import scale_profile

    trace = _load_cli_trace("scale", args.trace)
    scaled = [
        TraceJob(
            scale_profile(
                j.profile,
                args.factor,
                scale_reduces=not args.pin_reduces,
                seed=args.seed + i,
            ),
            j.submit_time,
            j.deadline,
        )
        for i, j in enumerate(trace)
    ]
    save_trace(scaled, args.output)
    total_before = sum(j.profile.num_maps + j.profile.num_reduces for j in trace)
    total_after = sum(j.profile.num_maps + j.profile.num_reduces for j in scaled)
    print(f"scaled {len(trace)} jobs by x{args.factor:g}: "
          f"{total_before} -> {total_after} tasks; wrote {args.output}")
    return 0


def _plot_sweep(result) -> None:
    from .render import line_plot

    factors = sorted({df for df, _ in result.cells})
    for df in factors:
        series = {
            name: result.series(df, name) for name in ("MaxEDF", "MinEDF")
        }
        print()
        print(
            line_plot(
                series,
                logx=True,
                title=f"deadline factor {df}",
                xlabel="mean inter-arrival (s)",
                ylabel="relative deadline exceeded",
            )
        )


def _cmd_diff_profiles(args: argparse.Namespace) -> int:
    from .mrprofiler.compare import compare_profiles

    trace_a = _load_cli_trace("diff-profiles", args.trace_a)
    trace_b = _load_cli_trace("diff-profiles", args.trace_b)
    try:
        profile_a = trace_a[args.job_a].profile
        profile_b = trace_b[args.job_b].profile
    except IndexError:
        print("job index out of range", file=sys.stderr)
        return 2
    comparison = compare_profiles(profile_a, profile_b, kl_threshold=args.kl_threshold)
    print(comparison)
    return 0 if comparison.same_application else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as _json

    from .core.walltime import elapsed_since, perf_seconds
    from .sweep import run_sweep

    trace = _load_cli_trace("sweep", args.trace)
    map_slots = [int(x) for x in args.map_slots.split(",") if x.strip()]
    if args.reduce_slots is None:
        reduce_slots = map_slots
    else:
        reduce_slots = [int(x) for x in args.reduce_slots.split(",") if x.strip()]
        if len(reduce_slots) != len(map_slots):
            print("--reduce-slots must match --map-slots in length", file=sys.stderr)
            return 2
    clusters = [ClusterConfig(m, r) for m, r in zip(map_slots, reduce_slots)]

    if args.no_cache:
        if args.fresh or args.cache_path:
            print("--no-cache conflicts with --fresh/--cache-path", file=sys.stderr)
            return 2
        cache: object = False
    else:
        cache = args.cache_path if args.cache_path else True

    def progress(done: int, total: int, outcome) -> None:  # SimOutcome
        task, res = outcome.task, outcome.result
        source = "cached" if outcome.cached else "ran"
        print(
            f"[{done}/{total}] {res.scheduler_name} "
            f"{task.cluster.map_slots}x{task.cluster.reduce_slots} "
            f"ss={task.slowstart:g} makespan={res.makespan:.1f}s ({source})",
            file=sys.stderr,
        )

    start = perf_seconds()
    result = run_sweep(
        trace,
        schedulers=[s.strip() for s in args.schedulers.split(",") if s.strip()],
        clusters=clusters,
        slowstarts=[float(x) for x in args.slowstarts.split(",") if x.strip()],
        workers=args.workers,
        cache=cache,
        fresh=args.fresh,
        progress=None if args.quiet or args.format_ == "json" else progress,
    )
    wall = elapsed_since(start)

    if args.format_ == "json":
        doc = {
            "cells": [
                {
                    **c.row(),
                    "cached": c.cached,
                    "event_digest": c.event_digest,
                }
                for c in result.cells
            ],
            "cache_hits": result.cache_hits,
            "executed": result.executed,
            "wall_seconds": wall,
            "workers": args.workers,
        }
        if args.best_by:
            best = result.best_by(args.best_by)
            doc["best"] = {"metric": args.best_by, **best.row()}
        print(_json.dumps(doc, indent=2))
        return 0

    print(result)
    print(
        f"\n{result.executed} cell(s) executed, {result.cache_hits} served "
        f"from cache in {wall:.2f}s"
        + (f" ({args.workers} workers)" if args.workers > 1 else ""),
    )
    if args.best_by:
        best = result.best_by(args.best_by)
        print(
            f"best {args.best_by}: {best.scheduler} on "
            f"{best.map_slots}x{best.reduce_slots} (slowstart {best.slowstart})"
        )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    import json as _json

    from .trace.fit import fit_spec_from_profiles

    trace = _load_cli_trace("fit", args.trace)
    spec = fit_spec_from_profiles(
        [j.profile for j in trace],
        name=args.name,
        same_app_kl_threshold=None if args.no_same_app_check else 2.5,
    )
    args.output.write_text(_json.dumps(spec.to_spec()))
    print(
        f"fitted spec {spec.name!r} from {len(trace)} recorded execution(s); "
        f"map model: {spec.map_durations!r}; wrote {args.output}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments.accuracy import run_accuracy

    print("running the validation loop (emulated cluster -> JobTracker logs "
          "-> MRProfiler -> SimMR replay) ...")
    result = run_accuracy("FIFO", executions_per_app=args.executions, seed=args.seed)
    print(result)
    avg, mx = result.simmr_errors()
    healthy = avg < 5.0 and mx < 10.0
    print(f"\nSimMR replay error: {avg:.1f}% avg / {mx:.1f}% max "
          f"(paper: 2.7% / 6.6%) -> {'OK' if healthy else 'DEGRADED'}")
    return 0 if healthy else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis import (
        AnalysisCache,
        default_registry,
        lint_paths,
        render_github,
        render_json,
        render_sarif,
        render_text,
    )
    from .analysis.config import LintConfig, find_pyproject

    if args.list_rules:
        for info in default_registry:
            print(info.summary())
            print(f"    why:  {info.rationale}")
            print(f"    fix:  {info.hint}")
            print()
        return 0

    paths = list(args.paths)
    if not paths:
        # Default target: the source tree we sit in (src/repro when run
        # from a checkout, else the installed package directory).
        checkout = Path("src/repro")
        paths = [checkout if checkout.is_dir() else Path(__file__).parent]

    config = LintConfig()
    if not args.no_config:
        pyproject = args.config if args.config is not None else find_pyproject(paths[0])
        if pyproject is not None:
            try:
                config = LintConfig.from_pyproject(pyproject)
            except ValueError as exc:
                print(f"simmr lint: {exc}", file=sys.stderr)
                return 2
    overrides = {}
    if args.select is not None:
        overrides["select"] = frozenset(
            s.strip() for s in args.select.split(",") if s.strip()
        )
    if args.disable is not None:
        overrides["disable"] = config.disable | {
            s.strip() for s in args.disable.split(",") if s.strip()
        }
    if overrides:
        config = dataclasses.replace(config, **overrides)
    cache = None
    if not args.no_cache and args.analysis_cache is not None:
        cache = AnalysisCache.load(args.analysis_cache)
    try:
        config.validate(default_registry)
        findings = lint_paths(paths, config=config, cache=cache)
    except ValueError as exc:
        print(f"simmr lint: {exc}", file=sys.stderr)
        return 2

    render = {
        "json": render_json, "github": render_github, "sarif": render_sarif,
    }.get(args.format_, render_text)
    print(render(findings))
    return 1 if findings else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.config import LintConfig, find_pyproject
    from .sanitize.check import run_check

    static = not args.dynamic_only
    dynamic = not args.static_only
    if not static and not dynamic:
        print("simmr check: --static-only and --dynamic-only are mutually "
              "exclusive", file=sys.stderr)
        return 2

    paths = list(args.paths)
    if not paths:
        checkout = Path("src/repro")
        paths = [checkout if checkout.is_dir() else Path(__file__).parent]
    config = LintConfig()
    pyproject = find_pyproject(paths[0])
    if pyproject is not None:
        try:
            config = LintConfig.from_pyproject(pyproject)
        except ValueError as exc:
            print(f"simmr check: {exc}", file=sys.stderr)
            return 2

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    trace = _load_cli_trace("check", args.trace) if args.trace is not None else None
    report = run_check(
        paths,
        config=config,
        schedulers=schedulers,
        trace=trace,
        jobs=args.jobs,
        seed=args.seed,
        cluster=ClusterConfig(args.map_slots, args.reduce_slots),
        static=static,
        dynamic=dynamic,
        policy=not args.no_policy,
        policy_files=tuple(args.policies or ()),
    )
    print(report.render_json() if args.format_ == "json" else report.render_text())
    return 0 if report.ok else 1


def _cmd_evolve(args: argparse.Namespace) -> int:
    import json as _json

    from .policy import EvolveConfig, evolve

    config = EvolveConfig(
        seed=args.seed,
        population=args.population,
        generations=args.generations,
        jobs=args.jobs,
        traces=args.traces,
        mean_interarrival=args.mean_interarrival,
        deadline_factor=args.deadline_factor,
        map_slots=args.map_slots,
        reduce_slots=args.reduce_slots,
        workers=args.workers,
    )

    def progress(generation: int, row: dict) -> None:
        fitness = row["best_fitness"]
        print(
            f"gen {generation:2d}: best {row['best']:<14} "
            f"utility {fitness[0]:.4f} makespan {fitness[1]:.1f} "
            f"({row['simulated']} replays)",
            file=sys.stderr,
        )

    quiet = args.quiet or args.format_ == "json"
    result = evolve(config, progress=None if quiet else progress)

    if args.output is not None:
        args.output.write_text(result.winner_json + "\n")
    if args.format_ == "json":
        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"winner: {result.winner.name} (digest {result.winner_digest})")
        print(f"  tree:           {result.winner_json}")
        print(f"  fitness:        utility {result.winner_fitness[0]:.4f}, "
              f"makespan {result.winner_fitness[1]:.1f}")
        print(f"  event digests:  {', '.join(result.winner_event_digests)}")
        for name, entry in result.baselines.items():
            fitness = entry["fitness"]
            print(f"  vs {name:<12} utility {fitness[0]:.4f}, "
                  f"makespan {fitness[1]:.1f}")
        print(f"  beats baselines: {'yes' if result.beats_baselines else 'NO'}")
        print(f"  ({result.evaluations} unique trees, "
              f"{result.simulated} replays)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .sanitize.digest import trace_digest
    from .trace.binfmt import is_binary_trace_file, save_trace_bin

    if args.trace_command == "pack":
        if is_binary_trace_file(args.input):
            print(f"simmr trace pack: {args.input} is already packed",
                  file=sys.stderr)
            return 2
        trace = _load_cli_trace("trace pack", args.input)
        nbytes = save_trace_bin(trace, args.output)
        json_bytes = args.input.stat().st_size
        ratio = json_bytes / nbytes if nbytes else 0.0
        print(f"packed {len(trace)} jobs: {json_bytes} -> {nbytes} bytes "
              f"({ratio:.1f}x smaller); digest {trace_digest(trace)}")
        return 0
    assert args.trace_command == "unpack"
    if not is_binary_trace_file(args.input):
        print(f"simmr trace unpack: {args.input} is not a binary trace",
              file=sys.stderr)
        return 2
    trace = _load_cli_trace("trace unpack", args.input)
    save_trace(trace, args.output)
    print(f"unpacked {len(trace)} jobs to {args.output}; "
          f"digest {trace_digest(trace)}")
    return 0


#: Suffix multipliers ``simmr cache prune --older-than`` understands.
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"``/``"2w"`` -> seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = float(_DURATION_UNITS[text[-1]])
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"bad duration {text!r}: expected a number with an optional "
            f"{'/'.join(_DURATION_UNITS)} suffix"
        ) from None
    if value < 0:
        raise ValueError("duration must be >= 0")
    return value * unit


def _cmd_cache(args: argparse.Namespace) -> int:
    from .parallel.cache import ResultCache, default_cache_path

    path = args.cache_path if args.cache_path else default_cache_path()
    if args.cache_command != "stats" and not Path(path).is_file():
        # stats on a fresh path legitimately reports an empty store, but
        # prune/clear would silently create an empty file — refuse.
        print(f"simmr cache: no cache file at {path}", file=sys.stderr)
        return 2
    with ResultCache(path) as cache:
        if args.cache_command == "stats":
            info = cache.info()
            print(f"cache {info['path']}")
            print(f"  entries:      {info['entries']} "
                  f"({info['distinct_traces']} trace(s), "
                  f"{info['distinct_schedulers']} scheduler(s))")
            print(f"  payload:      {info['payload_bytes']} bytes "
                  f"(file: {info['file_bytes']} bytes)")
            if info["oldest_age_seconds"] is not None:
                print(f"  entry age:    {info['newest_age_seconds']}s newest, "
                      f"{info['oldest_age_seconds']}s oldest")
            return 0
        if args.cache_command == "prune":
            try:
                age = _parse_duration(args.older_than)
            except ValueError as exc:
                print(f"simmr cache prune: {exc}", file=sys.stderr)
                return 2
            removed = cache.prune_older_than(age)
            print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
                  f"older than {args.older_than} ({len(cache)} left)")
            return 0
        assert args.cache_command == "clear"
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from .service import ServiceConfig, SimulationServer, install_signal_handlers

    if args.no_cache and args.cache_path:
        print("--no-cache conflicts with --cache-path", file=sys.stderr)
        return 2
    cache: object = False if args.no_cache else (args.cache_path or True)

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s", stream=sys.stderr
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache=cache,  # type: ignore[arg-type]
        trace_root=args.trace_root,
        request_timeout=args.request_timeout,
        trace_cache_size=args.trace_cache_size,
    )
    server = SimulationServer(config)
    install_signal_handlers(server)
    host, port = server.address
    # The smoke tests parse this line to discover an ephemeral port —
    # keep its shape stable.
    print(f"simmr service listening on http://{host}:{port} "
          f"(workers={args.workers}, queue={args.queue_size})", flush=True)
    try:
        server.serve_forever()  # returns once a signal starts the drain
    finally:
        server.shutdown()
    print("simmr service drained, bye", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .parallel import SchedulerSpec, SimTask, simulate_many
    from .service import ServiceClient, ServiceError

    trace = _load_cli_trace("submit", args.trace)
    client = ServiceClient(args.url)
    try:
        reply = client.replay(
            trace,
            scheduler=args.scheduler,
            cluster=ClusterConfig(args.map_slots, args.reduce_slots),
            slowstart=args.slowstart,
            timeout=args.timeout,
            max_retries=args.retries,
        )
    except ServiceError as exc:
        print(f"simmr submit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"simmr submit: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1

    result = reply.result
    source = "cache" if reply.cached else "simulated"
    print(f"scheduler={result.scheduler_name} makespan={result.makespan:.1f}s "
          f"jobs={len(result.jobs)} ({source}, request {reply.request_id}, "
          f"{reply.server_seconds:.3f}s on the server)")
    print(f"event_digest={reply.event_digest}")
    if args.verify:
        task = SimTask(
            trace_id="trace",
            scheduler=SchedulerSpec(kind="registry", name=args.scheduler),
            cluster=ClusterConfig(args.map_slots, args.reduce_slots),
            slowstart=args.slowstart,
        )
        [local] = simulate_many({"trace": trace}, [task], cache=None)
        if local.result.event_digest == reply.event_digest:
            print("verify: OK — local replay digest matches")
        else:
            print(f"verify: MISMATCH — local {local.result.event_digest} != "
                  f"service {reply.event_digest}", file=sys.stderr)
            return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id in ("fig1", "fig2"):
        from .experiments.progress import run_progress

        slots = 128 if args.id == "fig1" else 64
        result = run_progress(slots, slots, seed=args.seed)
        print(result)
        if args.plot:
            from .render import line_plot

            series = {
                "map": [], "shuffle": [], "reduce": [],
            }
            for row in result.series(points=58):
                series["map"].append((row["time"], row["map_tasks"]))
                series["shuffle"].append((row["time"], row["shuffle_tasks"]))
                series["reduce"].append((row["time"], row["reduce_tasks"]))
            print()
            print(
                line_plot(
                    series,
                    title=f"WordCount tasks in phase ({slots}x{slots} slots)",
                    xlabel="time (s)",
                    ylabel="tasks",
                )
            )
    elif args.id == "fig3":
        from .experiments.distributions import run_fig3_cdfs

        print(run_fig3_cdfs(seed=args.seed))
    elif args.id == "table1":
        from .experiments.distributions import run_table1_kl

        print(run_table1_kl(seed=args.seed))
    elif args.id == "fig5":
        from .experiments.accuracy import run_accuracy

        for scheduler in ("FIFO", "MinEDF", "MaxEDF"):
            result = run_accuracy(scheduler, seed=args.seed)
            print(result)
            if args.plot:
                from .render import bar_chart

                rows = []
                for app, actual in result.actual.items():
                    rows.append((f"{app} SimMR", result.simmr[app] / actual * 100.0))
                    if result.mumak is not None:
                        rows.append((f"{app} Mumak", result.mumak[app] / actual * 100.0))
                print()
                print(
                    bar_chart(
                        rows,
                        title=f"{scheduler}: simulated completion as % of actual",
                        reference=100.0,
                    )
                )
            print()
    elif args.id == "fig6":
        from .experiments.performance import run_performance

        print(run_performance(seed=args.seed))
    elif args.id == "fig7":
        from .experiments.schedulers_real import run_deadline_comparison_real

        result = run_deadline_comparison_real(runs=args.runs or 50, seed=args.seed)
        print(result)
        if args.plot:
            _plot_sweep(result)
    elif args.id == "fig8":
        from .experiments.schedulers_facebook import run_deadline_comparison_facebook

        result = run_deadline_comparison_facebook(runs=args.runs or 50, seed=args.seed)
        print(result)
        if args.plot:
            _plot_sweep(result)
    elif args.id == "preemption":
        from .experiments.preemption import run_preemption_ablation

        print(run_preemption_ablation(runs=args.runs or 30, seed=args.seed))
    elif args.id == "ablations":
        from .experiments.ablations import (
            run_allocation_sweep,
            run_shuffle_ablation,
            run_slowstart_ablation,
            run_speculation_ablation,
        )

        for fn in (
            run_shuffle_ablation,
            run_slowstart_ablation,
            run_allocation_sweep,
            run_speculation_ablation,
        ):
            print(fn())
            print()
    elif args.id == "zoo":
        from .experiments.scheduler_zoo import run_scheduler_zoo

        print(
            run_scheduler_zoo(
                runs=args.runs or 10, seed=args.seed, workers=args.workers
            )
        )
    elif args.id == "locality":
        from .experiments.locality import run_locality_sweep

        result = run_locality_sweep(seed=args.seed or 2)
        print(result)
        if args.plot:
            from .render import line_plot

            print()
            print(
                line_plot(
                    {"node-local": result.node_locality_series()},
                    title="delay scheduling: node locality vs wait",
                    xlabel="locality wait (s)",
                )
            )
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.id)
    return 0


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "profile": _cmd_profile,
        "replay": _cmd_replay,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "stats": _cmd_stats,
        "compact": _cmd_compact,
        "scale": _cmd_scale,
        "diff-profiles": _cmd_diff_profiles,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "validate": _cmd_validate,
        "lint": _cmd_lint,
        "check": _cmd_check,
        "evolve": _cmd_evolve,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point with shell-grade exit hygiene.

    Ctrl-C exits 130 (128+SIGINT) and a consumer closing the pipe early
    (``simmr ... | head``) exits 141 (128+SIGPIPE) — both silently, no
    traceback, matching what a signal-killed process would report.
    """
    try:
        return _dispatch(argv)
    except _TraceLoadError as exc:
        print(exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout's consumer is gone; Python would still try to flush the
        # buffer at exit and print an unraisable error.  Point the fd at
        # /dev/null so the final flush has somewhere harmless to go.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
