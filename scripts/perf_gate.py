#!/usr/bin/env python3
"""Throughput regression gate: fresh bench vs committed baseline.

Runs ``benchmarks/bench_engine_throughput.py`` (which rewrites
``BENCH_engine_throughput.json`` at the repo root) and compares the
fresh ``events_per_second`` against the committed baseline in
``scripts/perf_baseline.json``.  Also runs ``benchmarks/bench_lint.py``
(writing ``BENCH_lint.json``) and enforces the incremental-analysis
warm-run floor: a warm cached lint must be at least ``--lint-floor``
times faster than the cold run, or the analysis cache has silently
stopped matching.

The tolerance is deliberately generous (default: fresh may be as low
as 50% of baseline) because CI runners and dev containers differ
wildly in single-core speed; the gate exists to catch order-of-
magnitude regressions — an accidentally quadratic event loop, a debug
hook left enabled — not 10% jitter.  Since the columnar kernel landed,
the baseline reflects the vectorized path (~7x the object loop) and
the gate runs as a **blocking** CI job: a kernel silently falling back
to the object engine shows up as a >2x regression, well past any
machine jitter the tolerance absorbs.

Throughput ratios are only meaningful when both runs simulated the
same workload, so the gate first cross-checks ``trace_jobs`` and
``events_processed`` against the baseline and **fails** on any drift —
a changed bench trace needs an explicit ``--update``, not a silent
events/s comparison between different workloads.

Beyond the static headline, the report's per-path rows (``paths`` in
the bench JSON: static multi-pass, static multi-pass streaming the
event digest, Fair replay, preemptive Fair
replay, preemptive EDF replay) are each held to their own
machine-independent kernel-vs-object speedup floor (the row's
``floor_speedup``, set by the bench).  A row without a floor —
preemptive EDF, where both engines run the same heap loop — is held to
the headline's rule instead: its events/s against the baseline row's
at ``--tolerance``.  Any path whose baseline ran on the kernel must
still run on the kernel, in the same kernel mode — a cell silently
leaving its mode fails the gate even when its absolute numbers look
plausible.

Usage:
    python scripts/perf_gate.py            # run bench, compare, report
    python scripts/perf_gate.py --update   # run bench, rewrite baseline
    python scripts/perf_gate.py --no-run   # compare existing JSON only

Exit codes: 0 pass / baseline updated, 1 regression past tolerance,
2 operational error (bench failed, missing files, bad JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "scripts" / "perf_baseline.json"
FRESH_PATH = REPO_ROOT / "BENCH_engine_throughput.json"
LINT_PATH = REPO_ROOT / "BENCH_lint.json"
BENCH = "benchmarks/bench_engine_throughput.py"
LINT_BENCH = "benchmarks/bench_lint.py"

#: Fresh throughput below ``tolerance * baseline`` fails the gate.
DEFAULT_TOLERANCE = 0.5

#: Warm cached lint must beat the cold run by at least this factor.
DEFAULT_LINT_FLOOR = 3.0


def run_bench(bench: str = BENCH) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # No --benchmark-only: the throughput bench's per-path rows come
    # from a plain test that never touches the benchmark fixture.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", bench, "-q"],
        cwd=REPO_ROOT,
        env=env,
    )
    return proc.returncode


def load_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if not isinstance(doc.get("events_per_second"), (int, float)):
        raise ValueError(f"{path}: missing numeric 'events_per_second'")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline from a fresh run",
    )
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="skip the bench; compare the existing BENCH_engine_throughput.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="minimum fresh/baseline throughput ratio (default %(default)s)",
    )
    parser.add_argument(
        "--lint-floor",
        type=float,
        default=DEFAULT_LINT_FLOOR,
        help="minimum warm/cold lint speedup (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance <= 1:
        parser.error("--tolerance must be in (0, 1]")
    if args.lint_floor < 1:
        parser.error("--lint-floor must be >= 1")

    if not args.no_run:
        for bench in (BENCH, LINT_BENCH):
            rc = run_bench(bench)
            if rc != 0:
                print(f"perf gate: benchmark {bench} failed (exit {rc})",
                      file=sys.stderr)
                return 2

    try:
        fresh = load_report(FRESH_PATH)
    except (OSError, ValueError) as exc:
        print(f"perf gate: cannot read fresh report: {exc}", file=sys.stderr)
        return 2
    fresh_eps = float(fresh["events_per_second"])

    if args.update:
        BASELINE_PATH.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"perf gate: baseline updated ({fresh_eps:,.0f} events/s)")
        return 0

    try:
        baseline = load_report(BASELINE_PATH)
    except (OSError, ValueError) as exc:
        print(
            f"perf gate: cannot read baseline ({exc});"
            " run with --update to create it",
            file=sys.stderr,
        )
        return 2
    base_eps = float(baseline["events_per_second"])

    failed = False
    # Workload identity: events/s from different workloads are not
    # comparable, so drift in what was simulated fails the gate outright.
    for key in ("trace_jobs", "events_processed"):
        fresh_val = fresh.get(key)
        base_val = baseline.get(key)
        if fresh_val != base_val:
            print(
                f"perf gate: FAIL — workload drift: fresh {key}={fresh_val}"
                f" vs baseline {key}={base_val}; the bench simulated a"
                " different workload than the baseline (rerun with --update"
                " if the bench trace changed intentionally)",
                file=sys.stderr,
            )
            failed = True

    ratio = fresh_eps / base_eps if base_eps else float("inf")
    print(
        f"perf gate: fresh {fresh_eps:,.0f} events/s"
        f" vs baseline {base_eps:,.0f} events/s"
        f" (ratio {ratio:.2f}, floor {args.tolerance:.2f})"
    )
    if ratio < args.tolerance:
        print(
            "perf gate: FAIL — throughput regressed past the tolerance;"
            " if the machine is simply slower, rerun with --update on"
            " representative hardware",
            file=sys.stderr,
        )
        failed = True

    # Per-path rows: each kernel path's speedup over the object loop is
    # a same-box ratio (machine-independent), so the floor is absolute;
    # the engine_path check catches silent kernel -> fallback rot.
    base_paths = baseline.get("paths", {})
    fresh_paths = fresh.get("paths", {})
    if not base_paths:
        print(
            "perf gate: note — baseline has no per-path rows; rerun with"
            " --update to adopt the multi-path report",
        )
    for name in sorted(base_paths):
        base_row = base_paths[name]
        row = fresh_paths.get(name)
        if row is None:
            print(
                f"perf gate: FAIL — path {name!r} present in baseline but"
                " missing from the fresh report",
                file=sys.stderr,
            )
            failed = True
            continue
        if base_row.get("engine_path") == "kernel" and row.get("engine_path") != "kernel":
            print(
                f"perf gate: FAIL — path {name!r} regressed from the kernel"
                f" to {row.get('engine_path')!r}",
                file=sys.stderr,
            )
            failed = True
        if row.get("kernel_mode") != base_row.get("kernel_mode"):
            print(
                f"perf gate: FAIL — path {name!r} ran in kernel mode"
                f" {row.get('kernel_mode')!r}, baseline"
                f" {base_row.get('kernel_mode')!r}",
                file=sys.stderr,
            )
            failed = True
        for key in ("trace_jobs", "events_processed"):
            if row.get(key) != base_row.get(key):
                print(
                    f"perf gate: FAIL — path {name!r} workload drift:"
                    f" fresh {key}={row.get(key)} vs baseline"
                    f" {key}={base_row.get(key)} (rerun with --update if"
                    " the bench workload changed intentionally)",
                    file=sys.stderr,
                )
                failed = True
        if "floor_speedup" not in base_row:
            # No kernel-vs-object ratio to hold: the headline's rule.
            row_eps = float(row.get("events_per_second", 0.0))
            base_row_eps = float(base_row.get("events_per_second", 0.0))
            row_ratio = row_eps / base_row_eps if base_row_eps else float("inf")
            print(
                f"perf gate: path {name}: {row_eps:,.0f} events/s vs baseline"
                f" {base_row_eps:,.0f} (ratio {row_ratio:.2f}, floor"
                f" {args.tolerance:.2f})"
            )
            if row_ratio < args.tolerance:
                print(
                    f"perf gate: FAIL — path {name!r} throughput regressed"
                    " past the tolerance",
                    file=sys.stderr,
                )
                failed = True
            continue
        floor = float(base_row["floor_speedup"])
        speedup = float(row.get("speedup", 0.0))
        print(
            f"perf gate: path {name}: {speedup:.2f}x kernel-vs-object"
            f" (floor {floor:.1f}x, {row.get('events_per_second', 0):,.0f}"
            " events/s)"
        )
        if speedup < floor:
            print(
                f"perf gate: FAIL — path {name!r} kernel-vs-object speedup"
                f" {speedup:.2f}x fell below its floor {floor:.1f}x",
                file=sys.stderr,
            )
            failed = True

    # Warm-lint floor: a machine-speed-independent ratio, so no
    # committed baseline — the floor is absolute.
    try:
        lint = json.loads(LINT_PATH.read_text())
        speedup = float(lint["speedup"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"perf gate: cannot read lint report: {exc}", file=sys.stderr)
        return 2
    print(
        f"perf gate: warm lint {lint.get('warm_seconds', 0):.3f}s vs cold"
        f" {lint.get('cold_seconds', 0):.2f}s"
        f" (speedup {speedup:.1f}x, floor {args.lint_floor:.1f}x)"
    )
    if speedup < args.lint_floor:
        print(
            "perf gate: FAIL — warm incremental lint is not meaningfully"
            " faster than cold; the analysis cache is not being hit",
            file=sys.stderr,
        )
        failed = True

    if failed:
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
