#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is a report written by ``run.py --json``.  A is the baseline
(the parent commit), B the candidate.  For every workload and metric
the tool prints both medians and quartiles, the fraction of pairs
(``A[i]``, ``B[i]``) that B wins, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

``worse``
    B's median is worse than A's by more than the bound.
``better``
    There are at least ten pairs, B wins at least nine tenths of them,
    and the medians differ by more than the distance between A's
    quartiles.  With fewer pairs a gain is not claimed.
``unresolved``
    Either side's quartile spread is wider than the bound, so "no worse"
    cannot be told from noise, and not every B run beats every A run.
``within``
    None of the above.

Metrics without a bound (the per-layer ones) get ``-``.  The exit code
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9
#: Pairs needed before a gain is claimed.
MIN_PAIRS = 10


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if len(values) == 1:
            return cls(values[0], values[0], values[0])
        q1, median, q3 = statistics.quantiles(values, n=4)
        return cls(median, q1, q3)

    @property
    def spread(self) -> float:
        """Quartile distance as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else 0.0


def verdict(
    a: Sequence[float], b: Sequence[float], *, higher_is_better: bool,
    bound: Optional[float],
) -> tuple[str, float]:
    """The verdict for one metric and the share of pairs B wins."""
    def better(x: float, y: float) -> bool:
        return x > y if higher_is_better else x < y

    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs) / len(pairs)
    if bound is None:
        return "-", wins
    sa, sb = Summary.of(a), Summary.of(b)
    # Positive when B is worse, as a share of A's median.
    change = (sb.median - sa.median) / abs(sa.median)
    if higher_is_better:
        change = -change
    b_beats_all = all(better(y, x) for x in a for y in b)
    if max(sa.spread, sb.spread) > bound and not b_beats_all:
        return "unresolved", wins
    if change > bound:
        return "worse", wins
    if (len(pairs) >= MIN_PAIRS and change < 0 and wins >= WIN_SHARE
            and abs(sb.median - sa.median) > sa.q3 - sa.q1):
        return "better", wins
    return "within", wins


def load_runs(paths: Sequence[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in file order."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, run in report["workloads"].items():
            for metric, entry in run["metrics"].items():
                values.setdefault((workload, metric), []).append(float(entry["value"]))
    return values


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_runs(a_paths), load_runs(b_paths)
    rows = []
    for key in sorted(a_runs.keys() & b_runs.keys()):
        workload, metric = key
        meta = metrics.get(metric, {"better": "lower"})
        a, b = a_runs[key], b_runs[key]
        result, wins = verdict(
            a, b, higher_is_better=meta["better"] == "higher", bound=meta.get("bound")
        )
        rows.append({
            "workload": workload, "metric": metric, "a": Summary.of(a),
            "b": Summary.of(b), "wins": wins, "verdict": result,
            "bound": meta.get("bound"),
        })
    return rows


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = list(argv).index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("compare.py: need at least one report on each side of --", file=sys.stderr)
        return 2
    rows = compare(a_paths, b_paths)

    def cell(s: Summary) -> str:
        return f"{s.median:.6g} [{s.q1:.6g}, {s.q3:.6g}]"

    print(f"{'workload':15} {'metric':24} {'A median [q1, q3]':36} "
          f"{'B median [q1, q3]':36} {'B wins':>6} {'bound':>5}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:15} {row['metric']:24} {cell(row['a']):36} "
              f"{cell(row['b']):36} {row['wins']:>6.0%} {bound:>5}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
