"""Tests for repro.policy: DSL, POL00x validation, compiler, digests.

The tentpole guarantees under test:

* every POL00x rule fires on a minimal witness document and carries a
  JSON-pointer path into the tree;
* canonical serialization is a fixed point: serialize -> parse ->
  serialize is byte-identical, and the policy digest is stable;
* compiled trees are *real* schedulers — the state-free ``fifo-tree``
  and ``edf-tree`` examples replay event-digest-identical to the
  hand-written FIFO and MaxEDF schedulers on both engine paths, and
  round-tripping the tree through its canonical JSON changes nothing;
* random trees (valid by construction) always certify, and random
  corruptions are rejected with the *specific* POL rule id.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.core import ClusterConfig, TraceJob
from repro.core.engine import SimulatorEngine
from repro.policy import (
    EXAMPLE_POLICIES,
    FEATURES,
    MAX_DEPTH,
    MAX_TERMS,
    CompiledDynamicPolicy,
    CompiledStaticPolicy,
    Leaf,
    PolicyDoc,
    PolicyError,
    Predicate,
    ScoreTerm,
    canonical_policy_json,
    compile_policy,
    example_policy,
    parse_policy,
    policy_digest,
    policy_spec,
    random_policy,
    validate_policy,
)
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import FIFOScheduler
from repro.schedulers.edf import MaxEDFScheduler

from conftest import make_random_profile, run_engine


@pytest.fixture
def trace(rng):
    profiles = [
        make_random_profile(rng, num_maps=16, num_reduces=6),
        make_random_profile(rng, num_maps=40, num_reduces=12),
        make_random_profile(rng, num_maps=6, num_reduces=2),
    ]
    jobs = []
    t = 0.0
    for i in range(9):
        profile = profiles[i % len(profiles)]
        deadline = (t + 300.0 + 90.0 * i) if i % 2 == 0 else None
        jobs.append(TraceJob(profile, t, deadline=deadline))
        t += float(rng.integers(5, 60))
    return jobs


def rule_ids(report):
    return {f.rule_id for f in report.findings}


def run_digest(trace, scheduler, engine=SimulatorEngine, cluster=None):
    recorder = DigestRecorder()
    run_engine(engine, trace, scheduler, cluster or ClusterConfig(16, 16), sanitizer=recorder)
    return recorder.hexdigest()


# --------------------------------------------------------------------------- #
# validation: the POL00x rules
# --------------------------------------------------------------------------- #

class TestValidation:
    def test_examples_all_certify(self):
        for name, doc in EXAMPLE_POLICIES.items():
            report = validate_policy(doc, label=name)
            assert report.ok, report.findings
            assert report.doc is not None

    def test_pol001_not_an_object(self):
        report = validate_policy("[1, 2]")
        assert not report.ok
        assert rule_ids(report) == {"POL001"}

    def test_pol001_invalid_json_text(self):
        report = validate_policy("{nope")
        assert not report.ok
        assert rule_ids(report) == {"POL001"}

    def test_pol001_missing_and_unknown_keys(self):
        report = validate_policy({"version": 1, "bogus": 1})
        assert "POL001" in rule_ids(report)
        messages = " ".join(f.message for f in report.findings)
        assert "bogus" in messages and "'tree' is required" in messages

    def test_pol001_wrong_version(self):
        report = validate_policy(
            {"version": 99, "name": "x", "tree": {"pick": "fifo"}}
        )
        assert not report.ok
        assert "POL001" in rule_ids(report)

    def test_pol001_leaf_and_predicate_mixed(self):
        tree = {"pick": "fifo", "if": {"feature": "queue_depth", "op": "<", "value": 1}}
        report = validate_policy({"version": 1, "name": "x", "tree": tree})
        assert not report.ok
        assert "POL001" in rule_ids(report)

    def test_pol002_unknown_feature(self):
        tree = {"score": [{"feature": "phase_of_moon", "weight": 1.0}]}
        report = validate_policy({"version": 1, "name": "x", "tree": tree})
        assert rule_ids(report) == {"POL002"}
        (finding,) = report.findings
        assert finding.path.endswith("#/tree/score/0/feature")

    def test_pol002_unknown_pick_and_op(self):
        report = validate_policy(
            {"version": 1, "name": "x", "tree": {"pick": "lifo"}}
        )
        assert rule_ids(report) == {"POL002"}
        tree = {
            "if": {"feature": "queue_depth", "op": "==", "value": 1},
            "then": {"pick": "fifo"},
            "else": {"pick": "edf"},
        }
        report = validate_policy({"version": 1, "name": "x", "tree": tree})
        assert "POL002" in rule_ids(report)

    def test_pol003_depth_bound(self):
        tree: dict = {"pick": "fifo"}
        for _ in range(MAX_DEPTH + 1):
            tree = {
                "if": {"feature": "queue_depth", "op": "<", "value": 1.0},
                "then": tree,
                "else": {"pick": "edf"},
            }
        report = validate_policy({"version": 1, "name": "deep", "tree": tree})
        assert not report.ok
        assert "POL003" in rule_ids(report)

    def test_pol003_term_bound_and_zero_weight(self):
        too_many = [
            {"feature": "num_maps", "weight": 1.0} for _ in range(MAX_TERMS + 1)
        ]
        report = validate_policy(
            {"version": 1, "name": "x", "tree": {"score": too_many}}
        )
        assert "POL003" in rule_ids(report)
        # 0 * inf = nan would poison the ordering, so zero weights are banned
        report = validate_policy(
            {"version": 1, "name": "x",
             "tree": {"score": [{"feature": "deadline", "weight": 0.0}]}}
        )
        assert "POL003" in rule_ids(report)

    def test_pol003_non_finite_values(self):
        for bad in (float("inf"), float("nan")):
            report = validate_policy(
                {"version": 1, "name": "x",
                 "tree": {"score": [{"feature": "num_maps", "weight": bad}]}}
            )
            assert "POL003" in rule_ids(report), bad

    def test_pol004_unreachable_branch_warns_but_passes(self):
        # Outer q<5, inner q>=10 on the then-branch: inner-then is dead.
        tree = {
            "if": {"feature": "queue_depth", "op": "<", "value": 5.0},
            "then": {
                "if": {"feature": "queue_depth", "op": ">=", "value": 10.0},
                "then": {"pick": "fifo"},
                "else": {"pick": "edf"},
            },
            "else": {"pick": "sjf"},
        }
        report = validate_policy({"version": 1, "name": "dead", "tree": tree})
        assert "POL004" in rule_ids(report)
        assert report.ok  # WARNING severity: reported, not blocking

    def test_pol005_static_contract(self):
        tree = {"score": [{"feature": "queue_depth", "weight": 1.0}]}
        report = validate_policy(
            {"version": 1, "name": "x", "tree": tree, "static": True}
        )
        assert "POL005" in rule_ids(report)
        # without the declaration the same tree is a fine dynamic policy
        report = validate_policy({"version": 1, "name": "x", "tree": tree})
        assert report.ok

    def test_parse_policy_raises_with_findings(self):
        with pytest.raises(PolicyError) as excinfo:
            parse_policy({"version": 1, "name": "x", "tree": {"pick": "lifo"}})
        assert excinfo.value.findings
        assert excinfo.value.findings[0].rule_id == "POL002"

    def test_findings_carry_label_and_pointer(self):
        report = validate_policy(
            {"version": 1, "name": "x", "tree": {"pick": "lifo"}},
            label="policy:demo",
        )
        (finding,) = report.findings
        assert finding.path == "policy:demo#/tree/pick"
        assert finding.line == 0


# --------------------------------------------------------------------------- #
# canonical serialization
# --------------------------------------------------------------------------- #

class TestCanonicalForm:
    def test_round_trip_fixed_point(self):
        for name in EXAMPLE_POLICIES:
            doc = parse_policy(example_policy(name))
            text = canonical_policy_json(doc)
            again = canonical_policy_json(parse_policy(text))
            assert again == text
            assert policy_digest(parse_policy(text)) == policy_digest(doc)

    def test_canonical_form_is_key_order_independent(self):
        a = {"version": 1, "name": "x", "tree": {"pick": "fifo"}}
        b = {"tree": {"pick": "fifo"}, "name": "x", "version": 1}
        assert canonical_policy_json(parse_policy(a)) == canonical_policy_json(
            parse_policy(b)
        )

    def test_digest_distinguishes_trees(self):
        fifo = parse_policy(example_policy("fifo-tree"))
        edf = parse_policy(example_policy("edf-tree"))
        assert policy_digest(fifo) != policy_digest(edf)


# --------------------------------------------------------------------------- #
# compilation: trees are real schedulers
# --------------------------------------------------------------------------- #

class TestCompiler:
    def test_static_tree_compiles_to_static_priority(self):
        sched = compile_policy(example_policy("fifo-tree"))
        assert isinstance(sched, CompiledStaticPolicy)
        assert sched.static_priority

    def test_dynamic_tree_compiles_to_dynamic(self):
        sched = compile_policy(example_policy("deadline-aware"))
        assert isinstance(sched, CompiledDynamicPolicy)
        assert not getattr(sched, "static_priority", False)

    def test_fifo_tree_digest_identical_to_fifo(self, trace, engine_kind):
        tree = run_digest(trace, compile_policy(example_policy("fifo-tree")),
                          engine=engine_kind)
        hand = run_digest(trace, FIFOScheduler(), engine=engine_kind)
        assert tree == hand

    def test_edf_tree_digest_identical_to_maxedf(self, trace, engine_kind):
        tree = run_digest(trace, compile_policy(example_policy("edf-tree")),
                          engine=engine_kind)
        hand = run_digest(trace, MaxEDFScheduler(), engine=engine_kind)
        assert tree == hand

    def test_round_trip_preserves_replay_digest(self, trace, engine_kind):
        for name in EXAMPLE_POLICIES:
            doc = parse_policy(example_policy(name))
            direct = run_digest(trace, compile_policy(doc.to_dict()),
                                engine=engine_kind)
            rebuilt = run_digest(
                trace, compile_policy(canonical_policy_json(doc)),
                engine=engine_kind,
            )
            assert direct == rebuilt, name

    def test_dynamic_policy_is_deterministic(self, trace):
        doc = example_policy("deadline-aware")
        assert run_digest(trace, compile_policy(doc)) == run_digest(
            trace, compile_policy(doc)
        )

    def test_compile_rejects_invalid(self):
        with pytest.raises(PolicyError):
            compile_policy({"version": 1, "name": "x", "tree": {"pick": "lifo"}})

    def test_policy_spec_is_picklable_and_content_stable(self):
        spec = policy_spec(example_policy("deadline-aware"))
        assert spec.kind == "policy"
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        # same tree with keys shuffled -> same identity string
        doc = example_policy("deadline-aware")
        doc_shuffled = dict(reversed(list(doc.items())))
        assert policy_spec(doc_shuffled).identity() == spec.identity()


# --------------------------------------------------------------------------- #
# property / fuzz
# --------------------------------------------------------------------------- #

class TestFuzz:
    def test_random_policies_always_certify(self):
        rng = random.Random(99)
        for i in range(60):
            doc = random_policy(rng, f"fuzz-{i}")
            report = validate_policy(doc.to_dict())
            assert report.ok, (i, report.findings)
            text = canonical_policy_json(doc)
            assert canonical_policy_json(parse_policy(text)) == text
            compile_policy(text)

    def test_corruptions_rejected_with_specific_rule(self):
        rng = random.Random(7)
        corruptions = [
            # (mutator over a parsed dict, expected rule id)
            (lambda d: d.pop("tree"), "POL001"),
            (lambda d: d.__setitem__("version", 2), "POL001"),
            (lambda d: d.__setitem__("name", ""), "POL001"),
            (lambda d: d.__setitem__("extra", 1), "POL001"),
            (lambda d: _first_leaf(d["tree"]).update(
                {"score": [{"feature": "bogus", "weight": 1.0}]}), "POL002"),
            (lambda d: _first_leaf(d["tree"]).update(
                {"score": [{"feature": "num_maps", "weight": 0.0}]}), "POL003"),
        ]
        for i, (mutate, expected) in enumerate(corruptions * 3):
            doc = random_policy(rng, f"victim-{i}").to_dict()
            mutate(doc)
            report = validate_policy(doc)
            assert not report.ok, (i, doc)
            assert expected in rule_ids(report), (i, expected, report.findings)

    def test_random_trees_replay_deterministically(self, trace):
        rng = random.Random(3)
        for i in range(5):
            doc = random_policy(rng, f"replay-{i}")
            sched = compile_policy(doc.to_dict())
            first = run_digest(trace, sched)
            second = run_digest(trace, compile_policy(doc.to_dict()))
            assert first == second, i


def _first_leaf(tree: dict) -> dict:
    while "if" in tree:
        tree = tree["then"]
    # normalize a pick-leaf into a score-leaf mutation target
    tree.pop("pick", None)
    return tree


# --------------------------------------------------------------------------- #
# feature vocabulary sanity
# --------------------------------------------------------------------------- #

def test_feature_vocabulary_is_complete_and_typed():
    assert len(FEATURES) == 20
    statics = {n for n, info in FEATURES.items() if info.static}
    assert "submit_time" in statics and "deadline" in statics
    assert "queue_depth" not in statics and "deadline_slack" not in statics


def test_is_static_follows_features():
    static_doc = PolicyDoc("s", Leaf(terms=(ScoreTerm("deadline", 1.0),)))
    dynamic_doc = PolicyDoc("d", Predicate(
        "queue_depth", "<", 4.0, Leaf(pick="fifo"), Leaf(pick="edf"),
    ))
    assert static_doc.is_static()
    assert not dynamic_doc.is_static()
