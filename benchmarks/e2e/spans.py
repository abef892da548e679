"""In-memory span recorder for the benchmark's traced (``--trace 1``) runs.

A span is one call into a layer's public function: its name, start,
end, the span that caused it (``parent``), the thread, and the request
id the thread is serving, where it has one.  Spans stay in memory until
the run ends.  A layer's *self time* is the duration of its spans minus
the durations of their child spans, so the self times of every layer
plus the time no span covers add up to the traced wall time.

The wrappers are installed from here, around functions of the
``repro`` package; nothing under ``src/`` knows about them.  Importing
this module patches nothing: a run calls :func:`install_layers` (and
:func:`install_client` or :func:`install_server` for the service) on a
:class:`SpanRecorder`, and :meth:`SpanRecorder.uninstall` restores the
originals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "LAYER_METRICS",
    "Span",
    "SpanRecorder",
    "install_client",
    "install_layers",
    "install_server",
    "layer_metrics",
    "link_requests",
    "self_times",
    "spans_from_json",
]

#: Span name -> per-layer metric its self time is reported under.  A
#: kernel run that fell back to the object engine counts as object-engine
#: time (the fallback decision is part of that path).
_SELF_METRIC = {
    "trace.to_dict": "trace.to_dict_s",
    "trace.from_dict": "trace.from_dict_s",
    "digest.trace": "digest.trace_s",
    "digest.events": "digest.events_s",
    "kernel.passes": "kernel.passes_s",
    "kernel.replay": "kernel.replay_s",
    "kernel.fallback": "engine.object_s",
    "engine.object": "engine.object_s",
    "schedulers.build": "schedulers.build_s",
    "results_io.to_dict": "results_io.to_dict_s",
    "results_io.from_dict": "results_io.from_dict_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "executor": "executor.self_s",
    "sweep": "sweep.self_s",
    "service.parse": "service.parse_s",
    "service.handler": "service.handler_s",
    "service.transport": "service.transport_s",
}

#: Every per-layer metric a traced run reports, with its unit and which
#: direction is better.  Layers a workload leaves idle report 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{metric: ("s", "lower") for metric in dict.fromkeys(_SELF_METRIC.values())},
    "digest.trace_calls": ("count", "lower"),
    "digest.events": ("count", "higher"),
    "kernel.events": ("count", "higher"),
    "kernel.fallbacks": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "service.queue_s": ("s", "lower"),
    "service.server_s": ("s", "lower"),
    "other_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass(slots=True)
class Span:
    """One recorded call; ``value`` carries a per-call quantity (events
    hashed, events simulated, 1 for a cache hit)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    request_id: Optional[str] = None
    value: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store plus the patches that feed it.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it began.  Finished
    spans are appended to one shared list under a lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self.spans: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request_id(self, request_id: Optional[str]) -> None:
        """Tag spans that end on this thread with ``request_id``."""
        self._local.request_id = request_id

    def request_id(self) -> Optional[str]:
        """The request id this thread is serving, if any."""
        return getattr(self._local, "request_id", None)

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=self._clock(),
            end=0.0,
            parent=stack[-1].id if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} ended out of order")
        stack.pop()
        if span.request_id is None:
            span.request_id = self.request_id()
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        func: Callable[..., Any],
        name: str,
        observe: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` recording one span per call; ``observe(span, args,
        result)`` may rename the span or set its value after a normal
        return."""
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(name)
            try:
                result = func(*args, **kwargs)
                if observe is not None:
                    observe(span, args, result)
                return result
            finally:
                recorder.end(span)

        return traced

    # -- patching --------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        observe: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        self.replace(cls, attr, self.wrap(vars(cls)[attr], name, observe))

    def patch_function(
        self,
        func: Callable[..., Any],
        name: str,
        observe: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Wrap ``func`` in every loaded ``repro`` module that binds it.

        Modules import functions by name (``from ..x import f``), so the
        defining module is only one of the places a call can go through.
        """
        traced = self.wrap(func, name, observe)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------

    def to_json(self) -> list[dict[str, Any]]:
        with self._lock:
            return [asdict(span) for span in self.spans]


def spans_from_json(rows: Iterable[dict[str, Any]], id_offset: int = 0) -> list[Span]:
    """Spans written by :meth:`SpanRecorder.to_json`, ids shifted by
    ``id_offset`` so they cannot collide with another recorder's."""
    spans = []
    for row in rows:
        span = Span(**row)
        span.id += id_offset
        if span.parent is not None:
            span.parent += id_offset
        spans.append(span)
    return spans


# --------------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------------- #

def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: total duration minus the duration of child spans."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - child_time[span.id]
    return dict(totals)


def link_requests(client: list[Span], server: list[Span]) -> list[Span]:
    """Join a service client's spans with the server's, per request id.

    The client's ``service.transport`` span (one request, as the client
    waits on it) becomes the parent of the server's ``service.handler``
    span for the same request, and that handler span the parent of the
    worker-thread spans that ran its simulation (the handler blocks on
    them).  Server spans of requests the client did not send in this
    window are dropped.  Returns the joined list.
    """
    by_request = {s.request_id: s.id for s in client if s.name == "service.transport"}
    handler = {
        s.request_id: s.id
        for s in server
        if s.name == "service.handler" and s.request_id in by_request
    }
    kept = [s for s in server if s.request_id in handler]
    for span in kept:
        if span.parent is None:
            span.parent = (
                by_request[span.request_id]
                if span.name == "service.handler"
                else handler[span.request_id]
            )
    return client + kept


def layer_metrics(
    spans: list[Span],
    *,
    wall: float,
    overhead_frac: float,
    queue_s: float = 0.0,
    server_s: float = 0.0,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry for one traced timed region.

    ``wall`` is the time the spans account for: the timed region, times
    the number of load threads when several run at once.  ``queue_s``
    (time requests waited in the service queue) is carved out of the
    handler's self time, which blocks across it; ``server_s`` is the
    server's own per-request total, reported beside the layers rather
    than as one of them.
    """
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for name, seconds in self_times(spans).items():
        if name in _SELF_METRIC:  # a call that raised keeps its provisional name
            metrics[_SELF_METRIC[name]] += seconds
    metrics["service.handler_s"] -= queue_s
    metrics["service.queue_s"] = queue_s
    metrics["service.server_s"] = server_s
    for span in spans:
        if span.name == "digest.trace":
            metrics["digest.trace_calls"] += 1
        elif span.name == "digest.events":
            metrics["digest.events"] += span.value
        elif span.name in ("kernel.passes", "kernel.replay"):
            metrics["kernel.events"] += span.value
        elif span.name == "kernel.fallback":
            metrics["kernel.fallbacks"] += 1
        elif span.name == "cache.get":
            metrics["cache.hits"] += span.value
            metrics["cache.misses"] += 1 - span.value
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else 0.0
    accounted = sum(
        metrics[name] for name in dict.fromkeys(_SELF_METRIC.values())
    ) + queue_s
    metrics["other_s"] = wall - accounted
    metrics["wall_s"] = wall
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


# --------------------------------------------------------------------------- #
# the layers
# --------------------------------------------------------------------------- #

def _kernel_mode(span: Span, args: tuple, result: Any) -> None:
    engine = args[0]
    if engine.last_path == "object":
        span.name = "kernel.fallback"
    else:
        span.name = f"kernel.{engine.last_kernel_mode}"
        span.value = result.events_processed


def _events_hashed(span: Span, args: tuple, result: Any) -> None:
    span.value = len(args[1])


def _cache_hit(span: Span, args: tuple, result: Any) -> None:
    span.value = 0.0 if result is None else 1.0


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every simulation-side layer."""
    import repro  # noqa: F401 - loads every module the patches must reach
    from repro.core.engine import SimulatorEngine
    from repro.core.kernel import ColumnarEngine
    from repro.core.results_io import result_from_dict, result_to_dict
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import SchedulerSpec, simulate_many
    from repro.sanitize.digest import EventDigest, trace_digest
    from repro.service.protocol import parse_request
    from repro.sweep import run_sweep
    from repro.trace.schema import trace_from_dict, trace_to_dict

    recorder.patch_function(trace_to_dict, "trace.to_dict")
    recorder.patch_function(trace_from_dict, "trace.from_dict")
    recorder.patch_function(trace_digest, "digest.trace")
    recorder.patch_method(EventDigest, "update_many", "digest.events", _events_hashed)
    recorder.patch_method(ColumnarEngine, "run", "kernel", _kernel_mode)
    recorder.patch_method(SimulatorEngine, "run", "engine.object")
    recorder.patch_method(SchedulerSpec, "build", "schedulers.build")
    recorder.patch_function(result_to_dict, "results_io.to_dict")
    recorder.patch_function(result_from_dict, "results_io.from_dict")
    recorder.patch_method(ResultCache, "get", "cache.get", _cache_hit)
    recorder.patch_method(ResultCache, "put", "cache.put")
    recorder.patch_function(simulate_many, "executor")
    recorder.patch_function(run_sweep, "sweep")
    recorder.patch_function(parse_request, "service.parse")


def install_client(recorder: SpanRecorder) -> None:
    """Time each service request as the client sees it."""
    from repro.service.client import ServiceClient

    def request_id(span: Span, args: tuple, reply: Any) -> None:
        span.request_id = reply.request_id

    recorder.patch_method(ServiceClient, "replay", "service.transport", request_id)


def install_server(recorder: SpanRecorder) -> None:
    """Time each request's handler and tag server spans with its id.

    The handler thread learns its request id when the server assigns
    one; the worker thread that simulates a queued request learns it
    from the submit call that handed the request over.
    """
    from repro.service.jobs import JobManager
    from repro.service.server import SimulationServer, _Handler

    submitted: dict[int, Optional[str]] = {}
    lock = threading.Lock()
    next_request_id = SimulationServer.next_request_id
    submit = JobManager.submit
    simulate = JobManager._simulate

    def tagged_request_id(self: Any) -> str:
        request_id = next_request_id(self)
        recorder.set_request_id(request_id)
        return request_id

    def tagged_submit(self: Any, request: Any) -> Any:
        with lock:
            submitted[id(request)] = recorder.request_id()
        ticket = submit(self, request)
        if ticket.done:  # a cache-front hit: no worker will pick it up
            with lock:
                submitted.pop(id(request), None)
        return ticket

    def tagged_simulate(self: Any, request: Any) -> Any:
        with lock:
            request_id = submitted.pop(id(request), None)
        recorder.set_request_id(request_id)
        try:
            return simulate(self, request)
        finally:
            recorder.set_request_id(None)

    recorder.replace(SimulationServer, "next_request_id", tagged_request_id)
    recorder.replace(JobManager, "submit", tagged_submit)
    recorder.replace(JobManager, "_simulate", tagged_simulate)

    def clear_request_id(span: Span, args: tuple, result: Any) -> None:
        span.request_id = recorder.request_id()
        recorder.set_request_id(None)

    recorder.patch_method(_Handler, "do_POST", "service.handler", clear_request_id)
