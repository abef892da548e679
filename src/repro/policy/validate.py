"""Static validation of policy trees: the POL00x rule family.

Policies arrive as untrusted JSON (the service's ``policy`` scheduler
kind, `simmr evolve` mutants, files on disk), so validation mirrors how
simlint treats untrusted *source*: every defect becomes a
:class:`~repro.analysis.findings.Finding` with a rule id registered in
the shared :data:`~repro.analysis.rules.default_registry`, and a
document is *certified* exactly when it has no ERROR-severity findings.
The finding's ``path`` is ``<label>#<json-pointer>`` — a pointer into
the tree (``policy.json#/tree/then/if``), the DSL's analogue of
``file:line``.

Rules:

========  ========  ====================================================
POL001    error     document structure: bad JSON, wrong version, unknown
                    or missing keys, wrong types
POL002    error     vocabulary: unknown feature, operator or pick rule
POL003    error     bounds: tree too deep/large, too many score terms,
                    non-finite threshold/weight/bias, zero weight
POL004    warning   unreachable branch (interval analysis along the
                    root-to-leaf path)
POL005    error     static-contract violation: a document declaring
                    ``"static": true`` reads a dynamic feature
========  ========  ====================================================

POL004 is a warning — dead branches are wasteful, not unsafe — so it
does not block service acceptance; everything else does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from ..analysis.findings import Finding, Severity
from .dsl import (
    FEATURES,
    MAX_DEPTH,
    MAX_NODES,
    MAX_TERMS,
    OPS,
    PICK_RULES,
    POLICY_VERSION,
    Leaf,
    Node,
    PolicyDoc,
    PolicyError,
    Predicate,
    ScoreTerm,
)

__all__ = [
    "MAX_POLICY_TEXT",
    "PolicyReport",
    "parse_policy",
    "validate_policy",
]

#: Size cap on a policy's JSON text — the service validates untrusted
#: submissions at request-parse time, so arbitrarily large documents
#: must be refused before they are even decoded.
MAX_POLICY_TEXT = 64 * 1024

_DOC_KEYS = frozenset({"version", "name", "tree", "static"})
_PREDICATE_KEYS = frozenset({"if", "then", "else"})
_CONDITION_KEYS = frozenset({"feature", "op", "value"})
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


@dataclass(frozen=True)
class PolicyReport:
    """Outcome of validating one document."""

    doc: Optional[PolicyDoc]
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def ok(self) -> bool:
        """Certified: schema-valid and free of ERROR findings."""
        return self.doc is not None and not self.errors


class _Collector:
    def __init__(self, label: str) -> None:
        self.label = label
        self.findings: list[Finding] = []

    def report(self, rule_id: str, severity: Severity, pointer: str,
               message: str, hint: str = "") -> None:
        self.findings.append(Finding(
            path=f"{self.label}#{pointer}", line=0, col=0,
            rule_id=rule_id, severity=severity, message=message, hint=hint,
        ))

    def error(self, rule_id: str, pointer: str, message: str, hint: str = "") -> None:
        self.report(rule_id, Severity.ERROR, pointer, message, hint)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_finite(out: _Collector, value: Any, pointer: str, what: str) -> bool:
    """Type (POL001) and finiteness (POL003) of one numeric field."""
    if not _is_number(value):
        out.error("POL001", pointer, f"{what} must be a number, got "
                  f"{type(value).__name__}")
        return False
    if not math.isfinite(float(value)):
        out.error("POL003", pointer, f"{what} must be finite, got {value!r}",
                  hint="non-finite constants make score arithmetic "
                  "order-dependent (inf - inf = nan)")
        return False
    return True


def _parse_leaf(raw: dict, pointer: str, out: _Collector) -> Optional[Leaf]:
    if "pick" in raw:
        extra = set(raw) - {"pick"}
        if extra:
            out.error("POL001", pointer,
                      f"'pick' leaf has unknown key(s): {sorted(extra)}")
            return None
        pick = raw["pick"]
        if not isinstance(pick, str):
            out.error("POL001", f"{pointer}/pick", "'pick' must be a string")
            return None
        if pick not in PICK_RULES:
            out.error("POL002", f"{pointer}/pick",
                      f"unknown pick rule {pick!r}",
                      hint=f"known: {sorted(PICK_RULES)}")
            return None
        return Leaf(pick=pick)

    extra = set(raw) - {"score", "bias"}
    if extra:
        out.error("POL001", pointer,
                  f"leaf has unknown key(s): {sorted(extra)}",
                  hint="a leaf is {'score': [...], 'bias': n} or {'pick': name}")
        return None
    terms_raw = raw.get("score")
    if not isinstance(terms_raw, list):
        out.error("POL001", f"{pointer}/score", "'score' must be a list of terms")
        return None
    if not terms_raw:
        out.error("POL003", f"{pointer}/score", "'score' must have at least one term")
        return None
    if len(terms_raw) > MAX_TERMS:
        out.error("POL003", f"{pointer}/score",
                  f"{len(terms_raw)} score terms exceed the {MAX_TERMS}-term bound")
        return None
    bias = raw.get("bias", 0.0)
    ok = _check_finite(out, bias, f"{pointer}/bias", "'bias'")
    terms: list[ScoreTerm] = []
    for i, term in enumerate(terms_raw):
        tp = f"{pointer}/score/{i}"
        if not isinstance(term, dict) or set(term) != {"feature", "weight"}:
            out.error("POL001", tp,
                      "a term must be exactly {'feature': name, 'weight': n}")
            ok = False
            continue
        feature, weight = term["feature"], term["weight"]
        if not isinstance(feature, str):
            out.error("POL001", f"{tp}/feature", "'feature' must be a string")
            ok = False
        elif feature not in FEATURES:
            out.error("POL002", f"{tp}/feature", f"unknown feature {feature!r}",
                      hint=f"known: {sorted(FEATURES)}")
            ok = False
        if not _check_finite(out, weight, f"{tp}/weight", "'weight'"):
            ok = False
        elif float(weight) == 0.0:
            out.error("POL003", f"{tp}/weight",
                      "'weight' must be non-zero",
                      hint="a zero weight is a no-op term, and 0 * inf "
                      "poisons the score with nan")
            ok = False
        if ok:
            terms.append(ScoreTerm(feature, float(weight)))
    if not ok:
        return None
    return Leaf(terms=tuple(terms), bias=float(bias))


def _parse_node(raw: Any, pointer: str, depth: int, out: _Collector,
                counter: list[int]) -> Optional[Node]:
    if not isinstance(raw, dict):
        out.error("POL001", pointer,
                  f"a node must be an object, got {type(raw).__name__}")
        return None
    counter[0] += 1
    if counter[0] > MAX_NODES:
        out.error("POL003", pointer,
                  f"tree exceeds the {MAX_NODES}-node bound")
        return None
    if "if" not in raw:
        return _parse_leaf(raw, pointer, out)

    if depth >= MAX_DEPTH:
        out.error("POL003", pointer,
                  f"tree exceeds the {MAX_DEPTH}-level depth bound")
        return None
    if set(raw) != _PREDICATE_KEYS:
        out.error("POL001", pointer,
                  f"a predicate must have exactly keys "
                  f"{sorted(_PREDICATE_KEYS)}, got {sorted(raw)}")
        return None
    cond = raw["if"]
    if not isinstance(cond, dict) or set(cond) != _CONDITION_KEYS:
        out.error("POL001", f"{pointer}/if",
                  f"'if' must be exactly {{'feature', 'op', 'value'}}")
        cond_ok = False
        feature = op = None
        value = 0.0
    else:
        cond_ok = True
        feature, op, value = cond["feature"], cond["op"], cond["value"]
        if not isinstance(feature, str):
            out.error("POL001", f"{pointer}/if/feature", "'feature' must be a string")
            cond_ok = False
        elif feature not in FEATURES:
            out.error("POL002", f"{pointer}/if/feature",
                      f"unknown feature {feature!r}",
                      hint=f"known: {sorted(FEATURES)}")
            cond_ok = False
        if not isinstance(op, str) or op not in OPS:
            out.error("POL002", f"{pointer}/if/op",
                      f"unknown operator {op!r}", hint=f"known: {list(OPS)}")
            cond_ok = False
        if not _check_finite(out, value, f"{pointer}/if/value", "'value'"):
            cond_ok = False
    then = _parse_node(raw["then"], f"{pointer}/then", depth + 1, out, counter)
    otherwise = _parse_node(raw["else"], f"{pointer}/else", depth + 1, out, counter)
    if not cond_ok or then is None or otherwise is None:
        return None
    assert isinstance(feature, str) and isinstance(op, str)
    return Predicate(feature, op, float(value), then, otherwise)


# ------------------------------------------------------------------ #
# POL004: unreachable branches, by interval analysis along each path
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class _Interval:
    """Feasible values of one feature on the current path (closed-ish:
    strictness collapses onto the endpoints, which only widens the set —
    the analysis may miss a dead branch but never flags a live one)."""

    lo: float
    hi: float

    def satisfiable(self, op: str, value: float) -> bool:
        if op == "<":
            return self.lo < value
        if op == "<=":
            return self.lo <= value
        if op == ">":
            return self.hi > value
        return self.hi >= value  # ">="

    def assume(self, op: str, value: float) -> "_Interval":
        if op in ("<", "<="):
            return _Interval(self.lo, min(self.hi, value))
        return _Interval(max(self.lo, value), self.hi)

    def refute(self, op: str, value: float) -> "_Interval":
        """The interval on the *else* branch (condition false)."""
        if op in ("<", "<="):
            return _Interval(max(self.lo, value), self.hi)
        return _Interval(self.lo, min(self.hi, value))


def _check_reachability(doc: PolicyDoc, out: _Collector) -> None:
    def walk(node: Node, pointer: str, bounds: dict[str, _Interval]) -> None:
        if not isinstance(node, Predicate):
            return
        info = FEATURES[node.feature]
        interval = bounds.get(node.feature, _Interval(info.lo, info.hi))
        for branch, child, suffix in (
            (interval.satisfiable(node.op, node.value), node.then, "then"),
            (_refutable(interval, node.op, node.value), node.otherwise, "else"),
        ):
            child_pointer = f"{pointer}/{suffix}"
            if not branch:
                out.report(
                    "POL004", Severity.WARNING, child_pointer,
                    f"branch is unreachable: {node.feature} is already "
                    f"bounded to [{interval.lo:g}, {interval.hi:g}] here",
                    hint="delete the dead branch or fix the comparison",
                )
                continue
            narrowed = dict(bounds)
            narrowed[node.feature] = (
                interval.assume(node.op, node.value) if suffix == "then"
                else interval.refute(node.op, node.value)
            )
            walk(child, child_pointer, narrowed)

    walk(doc.tree, "/tree", {})


def _refutable(interval: _Interval, op: str, value: float) -> bool:
    """Can the condition be false anywhere in ``interval``?"""
    if op == "<":
        return interval.hi >= value
    if op == "<=":
        return interval.hi > value
    if op == ">":
        return interval.lo <= value
    return interval.lo < value  # ">="


# ------------------------------------------------------------------ #
# the entry points
# ------------------------------------------------------------------ #

def validate_policy(raw: Any, *, label: str = "<policy>") -> PolicyReport:
    """Validate one untrusted policy document (text or decoded JSON).

    Never raises on bad input — every defect is returned as a finding,
    so the caller (service, CLI, evolve) decides how to present
    rejection.  ``report.ok`` is the certification verdict.
    """
    out = _Collector(label)
    if isinstance(raw, (str, bytes)):
        if len(raw) > MAX_POLICY_TEXT:
            out.error("POL003", "/",
                      f"policy text exceeds {MAX_POLICY_TEXT} bytes")
            return PolicyReport(None, tuple(out.findings))
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            out.error("POL001", "/", f"policy is not valid JSON: {exc}")
            return PolicyReport(None, tuple(out.findings))

    if not isinstance(raw, dict):
        out.error("POL001", "/",
                  f"policy document must be an object, got {type(raw).__name__}")
        return PolicyReport(None, tuple(out.findings))

    unknown = set(raw) - _DOC_KEYS
    if unknown:
        out.error("POL001", "/", f"unknown document key(s): {sorted(unknown)}",
                  hint=f"known: {sorted(_DOC_KEYS)}")
    version = raw.get("version")
    if version != POLICY_VERSION:
        out.error("POL001", "/version",
                  f"'version' must be {POLICY_VERSION}, got {version!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not 1 <= len(name) <= 64 \
            or not set(name) <= _NAME_CHARS:
        out.error("POL001", "/name",
                  "'name' must be 1-64 characters from [A-Za-z0-9._-]")
        name = None
    declared = raw.get("static")
    if declared is not None and not isinstance(declared, bool):
        out.error("POL001", "/static", "'static' must be a boolean")
        declared = None
    if "tree" not in raw:
        out.error("POL001", "/", "'tree' is required")
        return PolicyReport(None, tuple(out.findings))

    tree = _parse_node(raw["tree"], "/tree", 0, out, [0])
    if tree is None or name is None or out.findings and any(
        f.severity is Severity.ERROR for f in out.findings
    ):
        return PolicyReport(None, tuple(out.findings))

    doc = PolicyDoc(name=name, tree=tree, declared_static=declared)
    if declared is True:
        for feature in sorted(doc.features()):
            if not FEATURES[feature].static:
                out.error(
                    "POL005", "/static",
                    f"document declares 'static': true but the tree reads "
                    f"the dynamic feature {feature!r}",
                    hint="a static policy's priority must be constant per "
                    "job — the engine's heap fast path replays stale keys "
                    "otherwise; drop the claim or the dynamic feature",
                )
    _check_reachability(doc, out)
    if any(f.severity is Severity.ERROR for f in out.findings):
        return PolicyReport(None, tuple(out.findings))
    return PolicyReport(doc, tuple(out.findings))


def parse_policy(raw: Any, *, label: str = "<policy>") -> PolicyDoc:
    """Validate and return the typed document, or raise :class:`PolicyError`.

    The raised error carries the findings — callers that need the
    structured rejection (the service) catch and forward them.
    """
    report = validate_policy(raw, label=label)
    if report.doc is None or not report.ok:
        first = report.errors[0] if report.errors else report.findings[0]
        raise PolicyError(
            f"invalid policy: {first.rule_id} at {first.path}: {first.message}",
            findings=report.findings,
        )
    return report.doc
