"""Request/response schema of the simulation service.

One wire format, validated in one place: a JSON document describing a
replay — the trace (inline, a path the *server* resolves inside its
configured trace root, or the content digest of a trace the server
already parsed), the scheduler as a symbolic
:class:`~repro.parallel.executor.SchedulerSpec`, and the engine
configuration.  :func:`parse_request` turns the untrusted document into
a typed :class:`ReplayRequest` or raises :class:`ProtocolError` with the
HTTP status the server should answer; nothing downstream of it touches
raw JSON.  The same module builds the documents the client sends
(:func:`request_document`), so client and server cannot drift apart.

Validation is strict — unknown top-level or config keys are rejected —
because a silently ignored misspelled knob (``"slowstrat"``) would
return a *wrong simulation* with a 200 status, the worst possible
failure mode for a service whose pitch is verifiable replays.

An inline trace crosses the wire once per server: after parsing and
digesting it, the server remembers it in its
:class:`~repro.service.tracecache.TraceCache`, and a later request may
name it by ``trace_digest`` instead.  The server answers a reference
only with a trace it parsed and digested itself, so the result-cache key
never rests on a digest the client computed; an unknown digest is a 404
(:class:`UnknownTraceError`) whose body names the digest, and the client
then sends the trace inline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracecache import TraceCache

from ..core.cluster import ClusterConfig
from ..core.job import TraceJob
from ..parallel.executor import SchedulerSpec, SimTask, spec_kinds
from ..sanitize.digest import trace_digest
from ..trace.schema import trace_from_dict, trace_to_dict

__all__ = [
    "ProtocolError",
    "ReplayRequest",
    "UnknownTraceError",
    "parse_request",
    "request_document",
]

#: Engine knobs a request may set, with their defaults.
_CONFIG_DEFAULTS: dict[str, Any] = {
    "map_slots": 64,
    "reduce_slots": 64,
    "slowstart": 0.05,
    "preemption": False,
}

#: The trace sources; a request names exactly one.
_TRACE_KEYS = ("trace", "trace_path", "trace_digest")
_TOP_LEVEL_KEYS = frozenset({*_TRACE_KEYS, "scheduler", "config", "timeout"})
_SCHEDULER_KEYS = frozenset({"kind", "name", "kwargs", "seeded"})


class ProtocolError(Exception):
    """A request the service must refuse, with the HTTP status to use.

    ``findings`` (optional) carries structured rejection detail — one
    dict per finding in the :class:`~repro.analysis.findings.Finding`
    wire shape (``rule_id``, ``severity``, ``message``, ``path``/
    ``line`` into the submission) — so a rejected ``policy`` scheduler
    gets machine-readable diagnostics in the 4xx body, not just a
    flattened reason string.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        findings: Sequence[Mapping[str, Any]] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.findings: tuple[dict[str, Any], ...] = tuple(
            dict(f) for f in findings
        )


class UnknownTraceError(ProtocolError):
    """404 — ``trace_digest`` names no trace this server holds.

    The client answers it by sending the trace inline; the response
    body carries ``trace_digest`` so the client can tell this 404 from
    any other.
    """

    def __init__(self, digest: str) -> None:
        super().__init__(f"unknown trace digest {digest}; send the trace inline",
                         status=404)
        self.digest = digest


@dataclass(frozen=True)
class ReplayRequest:
    """A validated replay: everything :func:`simulate_many` needs."""

    trace: tuple[TraceJob, ...]
    #: Content digest of ``trace`` — the executor's trace_id and the
    #: first component of the result-cache key.
    digest: str
    scheduler: SchedulerSpec
    cluster: ClusterConfig
    slowstart: float
    preemption: bool
    #: Client-requested wall-clock budget (seconds); None = server default.
    timeout: Optional[float] = None

    def task(self) -> SimTask:
        """The executor task this request resolves to."""
        return SimTask(
            trace_id=self.digest,
            scheduler=self.scheduler,
            cluster=self.cluster,
            slowstart=self.slowstart,
            preemption=self.preemption,
        )


def _require(condition: bool, message: str, status: int = 400) -> None:
    if not condition:
        raise ProtocolError(message, status=status)


def _parse_scheduler(raw: Any) -> SchedulerSpec:
    if raw is None:
        raw = "fifo"
    if isinstance(raw, str):
        raw = {"kind": "registry", "name": raw}
    _require(isinstance(raw, dict), "'scheduler' must be a name or an object")
    unknown = set(raw) - _SCHEDULER_KEYS
    _require(not unknown, f"unknown scheduler key(s): {sorted(unknown)}")
    kind = raw.get("kind", "registry")
    name = raw.get("name")
    kwargs = raw.get("kwargs", {})
    seeded = raw.get("seeded", False)
    _require(isinstance(kind, str) and kind in spec_kinds(),
             f"unknown scheduler kind {kind!r}; known: {list(spec_kinds())}")
    _require(isinstance(name, str) and bool(name), "'scheduler.name' must be a string")
    _require(isinstance(kwargs, dict) and all(isinstance(k, str) for k in kwargs),
             "'scheduler.kwargs' must be an object with string keys")
    _require(isinstance(seeded, bool), "'scheduler.seeded' must be a boolean")
    if kind == "policy":
        # A policy tree is accepted only when the POL00x validation pass
        # certifies it (no ERROR findings); rejections carry the full
        # finding list with JSON paths into the tree.  The accepted tree
        # is re-serialized canonically so equal policies share one
        # content identity (= one result-cache key) regardless of the
        # submitted formatting.
        tree = kwargs.get("tree")
        _require(isinstance(tree, (str, dict)),
                 "'scheduler.kwargs.tree' must be the policy document "
                 "(object, or canonical JSON text) for kind 'policy'")
        from ..policy import MAX_POLICY_TEXT, canonical_policy_json, validate_policy

        if isinstance(tree, str):
            _require(len(tree) <= MAX_POLICY_TEXT,
                     f"policy text exceeds {MAX_POLICY_TEXT} bytes",
                     status=413)
        report = validate_policy(tree, label=f"policy:{name}")
        if not report.ok:
            first = report.errors[0] if report.errors else report.findings[0]
            raise ProtocolError(
                f"policy rejected: {first.rule_id} at {first.path}: "
                f"{first.message}",
                status=422,
                findings=[f.to_dict() for f in report.findings],
            )
        assert report.doc is not None
        kwargs = {**kwargs, "tree": canonical_policy_json(report.doc)}
    spec = SchedulerSpec(
        kind=kind, name=name, kwargs=tuple(sorted(kwargs.items())), seeded=seeded
    )
    # Build (and discard) one instance now so an unknown policy name or a
    # bad constructor argument is a 400 at submit time, not a 500 when a
    # worker finally dequeues the job.
    try:
        spec.build(seed=0)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"cannot build scheduler: {exc}") from None
    return spec


def _parse_config(raw: Any) -> dict[str, Any]:
    if raw is None:
        raw = {}
    _require(isinstance(raw, dict), "'config' must be an object")
    unknown = set(raw) - set(_CONFIG_DEFAULTS)
    _require(not unknown, f"unknown config key(s): {sorted(unknown)}; "
             f"known: {sorted(_CONFIG_DEFAULTS)}")
    config = {**_CONFIG_DEFAULTS, **raw}
    for slots_key in ("map_slots", "reduce_slots"):
        value = config[slots_key]
        _require(isinstance(value, int) and not isinstance(value, bool) and value > 0,
                 f"'config.{slots_key}' must be a positive integer")
    slowstart = config["slowstart"]
    _require(isinstance(slowstart, (int, float)) and not isinstance(slowstart, bool)
             and 0.0 <= float(slowstart) <= 1.0,
             "'config.slowstart' must be a number in [0, 1]")
    config["slowstart"] = float(slowstart)
    _require(isinstance(config["preemption"], bool),
             "'config.preemption' must be a boolean")
    return config


#: A ``trace_digest`` is :func:`trace_digest`'s BLAKE2b-16 hex.
_DIGEST = re.compile(r"[0-9a-f]{32}")


def _load_trace(
    doc: Mapping[str, Any],
    trace_root: Optional[Path],
    trace_cache: "Optional[TraceCache]" = None,
) -> tuple[Sequence[TraceJob], Optional[str]]:
    """The request's trace and, when already known, its content digest.

    Inline traces always parse fresh (their digest is computed by the
    caller).  Server-side ``trace_path`` traces go through the service's
    :class:`~repro.service.tracecache.TraceCache` when one is
    configured, which also pins the digest — a cache hit costs one
    ``stat``, no I/O and no parsing.  A ``trace_digest`` resolves only
    from that cache, to a trace an earlier inline request carried.
    """
    given = [key for key in _TRACE_KEYS if doc.get(key) is not None]
    _require(len(given) == 1,
             "exactly one of 'trace' (inline document), 'trace_path' "
             "(server-side file) or 'trace_digest' (a trace sent before) "
             "is required")
    [source] = given
    if source == "trace":
        try:
            return trace_from_dict(doc["trace"]), None
        except ValueError as exc:
            raise ProtocolError(f"bad trace document: {exc}") from None
    if source == "trace_digest":
        digest = doc["trace_digest"]
        _require(isinstance(digest, str) and _DIGEST.fullmatch(digest) is not None,
                 "'trace_digest' must be 32 lowercase hex digits")
        held = trace_cache.lookup(digest) if trace_cache is not None else None
        if held is None:
            raise UnknownTraceError(digest)
        return held, digest
    by_path = doc["trace_path"]
    _require(isinstance(by_path, str) and bool(by_path),
             "'trace_path' must be a non-empty string")
    _require(trace_root is not None,
             "this server does not serve traces by path (no trace root configured)",
             status=403)
    assert trace_root is not None
    _require(not Path(by_path).is_absolute(), "'trace_path' must be relative")
    resolved = (trace_root / by_path).resolve()
    root = trace_root.resolve()
    _require(resolved == root or root in resolved.parents,
             "'trace_path' escapes the server trace root", status=403)
    if not resolved.is_file():
        raise ProtocolError(f"no such trace on the server: {by_path}", status=404)
    from .tracecache import load_trace_cached

    try:
        return load_trace_cached(resolved, trace_cache)
    except (ValueError, OSError) as exc:
        raise ProtocolError(f"unreadable trace file {by_path}: {exc}") from None


def parse_request(
    doc: Any,
    *,
    trace_root: Optional[Path] = None,
    trace_cache: "Optional[TraceCache]" = None,
) -> ReplayRequest:
    """Validate one ``POST /simulate`` body into a :class:`ReplayRequest`.

    Raises :class:`ProtocolError` carrying the HTTP status: 400 for
    malformed documents, 403 for trace paths outside the configured
    root, 404 for a missing server-side trace file or (as
    :class:`UnknownTraceError`) a ``trace_digest`` not in
    ``trace_cache``, 413 for an oversized
    policy text, 422 for a ``policy`` tree failing POL00x validation —
    with the structured finding list on ``exc.findings`` (rule id,
    message, JSON path into the tree), which the server forwards in the
    response body.  ``trace_cache`` (optional) serves repeated
    ``trace_path`` requests from memory, resolves ``trace_digest``
    references, and remembers each valid inline trace under its digest.
    """
    _require(isinstance(doc, dict), "request body must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    _require(not unknown, f"unknown request key(s): {sorted(unknown)}; "
             f"known: {sorted(_TOP_LEVEL_KEYS)}")

    trace, known_digest = _load_trace(doc, trace_root, trace_cache)
    _require(len(trace) > 0, "trace has no jobs")
    scheduler = _parse_scheduler(doc.get("scheduler"))
    config = _parse_config(doc.get("config"))

    timeout = doc.get("timeout")
    if timeout is not None:
        _require(isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
                 and float(timeout) > 0.0,
                 "'timeout' must be a positive number of seconds")
        timeout = float(timeout)

    request = ReplayRequest(
        trace=tuple(trace),
        digest=known_digest if known_digest is not None else trace_digest(trace),
        scheduler=scheduler,
        cluster=ClusterConfig(config["map_slots"], config["reduce_slots"]),
        slowstart=config["slowstart"],
        preemption=config["preemption"],
        timeout=timeout,
    )
    if trace_cache is not None and doc.get("trace") is not None:
        trace_cache.remember(request.trace, request.digest)
    return request


def request_document(
    *,
    trace: Optional[Sequence[TraceJob]] = None,
    trace_path: Optional[str] = None,
    trace_digest: Optional[str] = None,
    scheduler: "str | SchedulerSpec" = "fifo",
    cluster: Optional[ClusterConfig] = None,
    slowstart: float = 0.05,
    preemption: bool = False,
    timeout: Optional[float] = None,
) -> dict[str, Any]:
    """The JSON document for one replay request (the client's half)."""
    if sum(source is not None for source in (trace, trace_path, trace_digest)) != 1:
        raise ValueError("pass exactly one of trace=, trace_path= or trace_digest=")
    if isinstance(scheduler, SchedulerSpec):
        if not scheduler.cacheable:
            raise ValueError("inline scheduler specs cannot be sent over the wire")
        scheduler_doc: Any = {
            "kind": scheduler.kind,
            "name": scheduler.name,
            "kwargs": dict(scheduler.kwargs),
            "seeded": scheduler.seeded,
        }
    else:
        scheduler_doc = scheduler
    cluster = cluster if cluster is not None else ClusterConfig(64, 64)
    doc: dict[str, Any] = {
        "scheduler": scheduler_doc,
        "config": {
            "map_slots": cluster.map_slots,
            "reduce_slots": cluster.reduce_slots,
            "slowstart": slowstart,
            "preemption": preemption,
        },
    }
    if trace is not None:
        doc["trace"] = trace_to_dict(trace)
    elif trace_path is not None:
        doc["trace_path"] = trace_path
    else:
        doc["trace_digest"] = trace_digest
    if timeout is not None:
        doc["timeout"] = timeout
    return doc
