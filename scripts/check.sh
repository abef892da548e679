#!/usr/bin/env bash
# One-shot static gate: simlint + docs + trace pack/unpack smoke +
# ruff + mypy.
#
# simlint and the docs checker always run (both ship with the repo).
# ruff and mypy run when installed and are skipped with a notice
# otherwise, so the gate works in minimal containers; install the
# [dev] extra to get them.
#
# Usage: scripts/check.sh   (or: make lint)
set -u
cd "$(dirname "$0")/.."
fail=0

echo "== simlint (python -m repro lint src/repro) =="
# Every finding fails the gate; accept one at its source with an inline
# suppression comment or [tool.simlint] disable.  The analysis cache
# keeps a repeat run warm.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro lint src/repro \
    --analysis-cache scripts/.analysis_cache.json || fail=1

echo
if [ -d docs ]; then
    echo "== docs (scripts/check_docs.py) =="
    python scripts/check_docs.py || fail=1
else
    echo "== docs: docs/ missing, skipping =="
fi

echo
echo "== trace pack/unpack smoke (simmr trace pack | unpack) =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$smoke_dir" <<'PY' || fail=1
import subprocess, sys
from pathlib import Path

sys.path.insert(0, "src")
from repro.experiments.performance import make_performance_trace
from repro.sanitize.digest import trace_digest
from repro.trace.schema import load_trace, save_trace

out = Path(sys.argv[1])
trace = make_performance_trace(20, mean_interarrival=50.0, seed=7)
save_trace(trace, out / "smoke.json")
digest = trace_digest(trace)

def simmr(*args):
    subprocess.run(
        [sys.executable, "-m", "repro", *args], check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )

simmr("trace", "pack", str(out / "smoke.json"), str(out / "smoke.simmr"))
simmr("trace", "unpack", str(out / "smoke.simmr"), str(out / "roundtrip.json"))
assert trace_digest(load_trace(out / "roundtrip.json")) == digest, "digest drift"
print(f"pack/unpack round trip OK (digest {digest})")

# Flip the low mantissa bit of the last duration (the data section ends
# the file): still a valid duration, so only the digest check can catch it.
packed = bytearray((out / "smoke.simmr").read_bytes())
packed[-8] ^= 0x01
(out / "corrupt.simmr").write_bytes(bytes(packed))
bad = subprocess.run(
    [sys.executable, "-m", "repro", "trace", "unpack",
     str(out / "corrupt.simmr"), str(out / "corrupt.json")],
    capture_output=True, text=True,
    env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
)
assert bad.returncode != 0, "corrupted .simmr unpacked without error"
assert "header digest does not match content" in bad.stderr, bad.stderr
print("corrupted .simmr rejected (header digest does not match content)")

# A version-2 header holds a digest of the retired layout (every
# duration hashed, not each profile's digest): refused, not trusted.
packed = bytearray((out / "smoke.simmr").read_bytes())
packed[8:10] = (2).to_bytes(2, "little")
(out / "v2.simmr").write_bytes(bytes(packed))
old = subprocess.run(
    [sys.executable, "-m", "repro", "trace", "unpack",
     str(out / "v2.simmr"), str(out / "v2.json")],
    capture_output=True, text=True,
    env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
)
assert old.returncode != 0, "version-2 .simmr unpacked without error"
assert "re-pack it from its JSON trace" in old.stderr, old.stderr
print("version-2 .simmr refused (re-pack it from its JSON trace)")
PY

echo
echo "== kernel-vs-object digest smoke (ColumnarEngine vs SimulatorEngine) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY' || fail=1
import sys

sys.path.insert(0, "src")
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine
from repro.experiments.performance import make_performance_trace
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import FIFOScheduler

trace = make_performance_trace(20, mean_interarrival=50.0, seed=7)
digests = {}
for engine, engine_cls in (("object", SimulatorEngine), ("columnar", ColumnarEngine)):
    recorder = DigestRecorder()
    engine_cls(ClusterConfig(16, 16), FIFOScheduler(),
               record_tasks=False, sanitizer=recorder).run(trace)
    digests[engine] = (recorder.hexdigest(), recorder.digest.count)
assert digests["object"] == digests["columnar"], (
    f"engine paths diverged: {digests}")
print(f"object and columnar engines bit-identical "
      f"({digests['object'][1]} events, digest {digests['object'][0]})")
PY

echo
echo "== preemptive Fair digest smoke (Fair+P replay mode vs object) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY' || fail=1
import sys

sys.path.insert(0, "src")
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine
from repro.experiments.performance import make_performance_trace
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import FairScheduler

# Dense arrivals on a small cluster: pools contend, so Fair+P's
# HFS-style preemption actually kills tasks on both engine paths.
trace = make_performance_trace(30, mean_interarrival=10.0, seed=7)
cluster = ClusterConfig(8, 4)
digests = {}
kills = {}
for engine, engine_cls in (("object", SimulatorEngine), ("columnar", ColumnarEngine)):
    recorder = DigestRecorder()
    result = engine_cls(cluster, FairScheduler(preemptive=True),
                        preemption=True, sanitizer=recorder).run(trace)
    digests[engine] = (recorder.hexdigest(), recorder.digest.count)
    kills[engine] = sum(1 for r in result.task_records if r.killed)
assert digests["object"] == digests["columnar"], (
    f"preemptive Fair diverged: {digests}")
assert kills["columnar"] > 0, "smoke ran without any live kills"
assert kills["object"] == kills["columnar"], kills
engine = ColumnarEngine(cluster, FairScheduler(preemptive=True), preemption=True)
engine.run(trace)
assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay"), (
    engine.last_path, engine.last_kernel_mode)
print(f"Fair+P replay mode bit-identical with {kills['columnar']} live kills "
      f"({digests['object'][1]} events, digest {digests['object'][0]})")
PY

echo
echo "== DynamicPriority digest smoke (DP replay mode vs object, budget runs dry) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY' || fail=1
import sys

sys.path.insert(0, "src")
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine
from repro.experiments.performance import make_performance_trace
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import DynamicPriorityScheduler

trace = make_performance_trace(30, mean_interarrival=10.0, seed=7)
cluster = ClusterConfig(8, 4)
# One user with a finite budget that runs dry mid-run; everyone else
# keeps the default unlimited budget.
user = sorted({tj.profile.name for tj in trace})[0]

def scheduler():
    return DynamicPriorityScheduler({user: (200.0, 3.0)})

digests = {}
paths = {}
for engine, engine_cls in (("object", SimulatorEngine), ("columnar", ColumnarEngine)):
    sched = scheduler()
    recorder = DigestRecorder()
    result = engine_cls(cluster, sched, sanitizer=recorder).run(trace)
    digests[engine] = (recorder.hexdigest(), recorder.digest.count)
    paths[engine] = result.engine_path
    assert not sched.accounts[user].paying, "the finite budget never ran dry"
assert digests["object"] == digests["columnar"], (
    f"DynamicPriority diverged: {digests}")
assert paths["columnar"] == "kernel", paths
print(f"DP replay mode bit-identical after user {user!r} ran out of budget "
      f"({digests['object'][1]} events, digest {digests['object'][0]})")
PY

echo
echo "== policy-tree digest smoke (compiled dynamic tree: kernel replay vs object) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY' || fail=1
import sys

sys.path.insert(0, "src")
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine
from repro.experiments.performance import make_performance_trace
from repro.policy import compile_policy, example_policy
from repro.sanitize.digest import DigestRecorder

# The compiled deadline-aware tree is dynamic: the kernel's replay mode
# asks its choose_next_*, as the object engine does.
trace = make_performance_trace(30, mean_interarrival=10.0, seed=7)
cluster = ClusterConfig(8, 4)

def scheduler():
    return compile_policy(example_policy("deadline-aware"))

digests = {}
for engine, engine_cls in (("object", SimulatorEngine), ("columnar", ColumnarEngine)):
    recorder = DigestRecorder()
    engine_cls(cluster, scheduler(), sanitizer=recorder).run(trace)
    digests[engine] = (recorder.hexdigest(), recorder.digest.count)
assert digests["object"] == digests["columnar"], (
    f"policy tree diverged: {digests}")
assert digests["object"] == ("858d7d4f00ba1428ff2dfc3b50dbc192", 22874), digests
engine = ColumnarEngine(cluster, scheduler())
engine.run(trace)
assert (engine.last_path, engine.last_kernel_mode) == ("kernel", "replay"), (
    engine.last_path, engine.last_kernel_mode)
print(f"deadline-aware tree replay mode bit-identical "
      f"({digests['object'][1]} events, digest {digests['object'][0]})")
PY

echo
echo "== policy smoke (POL00x certification + pinned simmr evolve) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY' || fail=1
import sys

sys.path.insert(0, "src")
from repro.core import ClusterConfig, simulate
from repro.experiments.performance import make_performance_trace
from repro.policy import (
    EvolveConfig, compile_policy, evolve, example_policy, validate_policy,
)
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import FIFOScheduler

# 1. every example tree certifies and compiles
for name in ("fifo-tree", "edf-tree", "deadline-aware"):
    report = validate_policy(example_policy(name), label=name)
    assert report.ok, (name, report.findings)
    compile_policy(example_policy(name))

# 2. the compiled fifo-tree replays digest-identical to hand-written FIFO
trace = make_performance_trace(20, mean_interarrival=50.0, seed=7)
digests = []
for sched in (FIFOScheduler(), compile_policy(example_policy("fifo-tree"))):
    recorder = DigestRecorder()
    simulate(trace, sched, ClusterConfig(16, 16),
             record_tasks=False, sanitizer=recorder)
    digests.append(recorder.hexdigest())
assert digests[0] == digests[1], f"tree-FIFO diverged from FIFO: {digests}"

# 3. tiny pinned evolve: winner tree + replay digest are constants
result = evolve(EvolveConfig(
    seed=7, population=8, generations=2, jobs=10, traces=1,
    mean_interarrival=20.0, deadline_factor=1.3,
    map_slots=16, reduce_slots=16,
))
assert result.winner_digest == "9dc0fc4e859bb4ade7c619673843c600", result.winner_digest
assert result.winner_event_digests == ("bd852d1077eef4b4987fe5ecb0429e41",), (
    result.winner_event_digests)
assert result.beats_baselines, result.baselines
print(f"examples certified; tree-FIFO == FIFO ({digests[0]}); "
      f"evolve winner pinned ({result.winner.name}, "
      f"digest {result.winner_digest})")
PY

echo
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check src tests =="
    ruff check src tests || fail=1
else
    echo "== ruff: not installed, skipping (pip install ruff) =="
fi

echo
if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (strict on repro.core / repro.analysis) =="
    MYPYPATH=src mypy -p repro.core -p repro.analysis || fail=1
else
    echo "== mypy: not installed, skipping (pip install mypy) =="
fi

exit $fail
