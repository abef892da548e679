#!/usr/bin/env bash
# Paired end-to-end comparison of two commits.
#
# Exports BASE and HEAD with `git archive` into a fresh temporary
# directory, so neither tree carries compiled bytecode or other files a
# checkout collects (a `python -m repro serve` start-up compiles every
# module when `__pycache__` is absent, and a tree that has one starts
# faster).  Then runs PAIRS pairs of `benchmarks/e2e/run.py --json`
# under PYTHONDONTWRITEBYTECODE=1, so both trees stay free of bytecode
# for every run, with BASE first in odd pairs and HEAD first in even
# ones, and hands the reports to `benchmarks/e2e/compare.py`.
#
# Usage: scripts/e2e_pairs.sh BASE [HEAD [PAIRS [run.py arguments...]]]
#        (or: make e2e-pairs BASE=<rev> [HEAD=<rev>] [PAIRS=<n>])
#
#   BASE, HEAD   git revisions (HEAD defaults to HEAD)
#   PAIRS        pairs of runs (default 10; compare.py claims a gain
#                only from ten pairs up)
#   run.py arguments, e.g. `--workload sweep-dynamic --seed 1`, go to
#   every run.
#
# The reports stay in the printed directory; the exit code is
# compare.py's (1 when a metric is worse than its bound).
set -eu
if [ $# -lt 1 ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base=$1
head=${2:-HEAD}
pairs=${3:-10}
shift $(( $# < 3 ? $# : 3 ))

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/e2e-pairs.XXXXXX")
for side in base head; do
    rev=$base
    [ "$side" = head ] && rev=$head
    mkdir "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    echo "$side: $(git -C "$repo" rev-parse --short "$rev") -> $work/$side"
done

export PYTHONDONTWRITEBYTECODE=1
for i in $(seq 1 "$pairs"); do
    order="base head"
    [ $((i % 2)) -eq 0 ] && order="head base"
    for side in $order; do
        echo "== pair $i/$pairs: $side =="
        (cd "$work/$side" && python3 benchmarks/e2e/run.py --json "$work/$side-$i.json" "$@" \
            | tail -n 1)
    done
done

a=() b=()
for i in $(seq 1 "$pairs"); do
    a+=("$work/base-$i.json")
    b+=("$work/head-$i.json")
done
echo "reports: $work"
python3 "$work/head/benchmarks/e2e/compare.py" "${a[@]}" -- "${b[@]}"
