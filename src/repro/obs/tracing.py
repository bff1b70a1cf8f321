"""Span tracing: nested, context-managed spans with attributes.

A :class:`Tracer` records :class:`Span` trees — one span per unit of
work, nested via a per-thread stack so a span started while another is
open becomes its child.  The module-level default tracer is a
:class:`NoopTracer` whose :meth:`~NoopTracer.span` returns a shared
do-nothing singleton, so instrumentation left in hot paths costs a
single function call and an empty ``with`` block when tracing is
disabled.  Enable recording globally with :func:`enable` (or scoped with
:func:`recording`), then export the finished spans with
:mod:`repro.obs.export`.

Request-scoped tracing builds on two additions:

* every span can carry a ``trace_id`` grouping it into one request's
  tree.  A span created with a ``trace_id`` starts a new trace root; a
  child opened on the same thread inherits the innermost open span's
  trace id automatically;
* :class:`TraceSampler` makes the keep/drop decision per trace id with
  a deterministic hash (same seed + trace id ⇒ same verdict in every
  process), with a ``force`` escape hatch so failed/rejected queries
  and drift exemplars are always kept.

Span start/end times come from ``time.perf_counter`` by default — they
measure *real* wall-clock work, not the simulated clock of
:mod:`repro.env`.  Simulated durations (e.g. a plan step's modeled
elapsed seconds) are attached as span attributes by the instrumented
code.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

_span_ids = itertools.count(1)


@dataclass
class Span:
    """One traced unit of work.

    Spans are context managers: entering records the start time and the
    parent (the innermost open span on the same thread, unless the span
    was created as a trace root), exiting records the end
    time and hands the span to the tracer's finished list.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    span_id: int = field(default_factory=lambda: next(_span_ids))
    parent_id: int | None = None
    trace_id: str | None = None
    start: float = 0.0
    end: float | None = None
    thread: str = ""
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)
    #: True when the span was created as an explicit trace root: the
    #: per-thread stack must not re-parent it.
    _anchored: bool = field(default=False, repr=False, compare=False)

    #: Distinguishes a live span from the no-op singleton without an
    #: isinstance check in hot paths.
    recording = True

    @property
    def duration(self) -> float:
        """Elapsed real seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        return False


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    recording = False
    trace_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: every span is the shared no-op singleton."""

    enabled = False

    def span(
        self, name: str, trace_id: str | None = None, **attributes: Any
    ) -> _NoopSpan:
        return NOOP_SPAN

    def current(self) -> None:
        return None

    def active_trace_id(self) -> None:
        return None

    @contextmanager
    def suppress(self, trace_id: str | None = None) -> Iterator[None]:
        yield

    def suppress_begin(self, trace_id: str | None = None) -> tuple:
        return (False, None)

    def suppress_end(self, token: tuple) -> None:
        pass

    def finished(self) -> list[Span]:
        return []

    def trace(self, trace_id: str) -> list[Span]:
        return []

    def drop_trace(self, trace_id: str) -> int:
        return 0

    def span_count(self, trace_id: str) -> int:
        return 0

    def reset(self) -> None:
        pass


NOOP_TRACER = NoopTracer()


class Tracer:
    """A recording tracer with per-thread span stacks.

    Thread-safe: each thread nests spans on its own stack (so parentage
    never crosses threads), and the finished list is lock-protected.

    With ``local_ids=True`` the tracer numbers spans from its own
    counter instead of the process-global one, so identically-driven
    tracers produce identical span ids — the property loadgen shards
    rely on for byte-identical merged traces at any worker count.
    """

    enabled = True

    #: Dropped-trace ids accumulate lazily; past this many the finished
    #: list is compacted in one pass (amortized O(1) per drop).
    DROP_COMPACT_THRESHOLD = 64

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        local_ids: bool = False,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[Span] = []
        self._dropped: set[str] = set()
        self._trace_counts: dict[str, int] = {}
        self._ids = itertools.count(1) if local_ids else None

    # -- span lifecycle --------------------------------------------------

    def span(
        self, name: str, trace_id: str | None = None, **attributes: Any
    ) -> "Span | _NoopSpan":
        """Create a span; enter it (``with``) to start the clock.

        *trace_id* starts a new trace root (the per-thread stack will
        not re-parent it).  Without it, the innermost open span on the
        entering thread becomes the parent.
        """
        if getattr(self._local, "suppressing", False):
            return NOOP_SPAN
        if self._ids is not None:
            # itertools.count.__next__ is atomic under the GIL.
            span = Span(
                name=name,
                attributes=attributes,
                span_id=next(self._ids),
                _tracer=self,
            )
        else:
            span = Span(name=name, attributes=attributes, _tracer=self)
        if trace_id is not None:
            span.trace_id = trace_id
            span._anchored = True
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _start(self, span: Span) -> None:
        span.thread = threading.current_thread().name
        stack = self._stack()
        if stack and not span._anchored:
            top = stack[-1]
            span.parent_id = top.span_id
            span.trace_id = top.trace_id
        stack.append(span)
        span.start = self._clock()

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        # Normally a strict LIFO pop; tolerate out-of-order exits.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._finished.append(span)
            if span.trace_id is not None:
                self._trace_counts[span.trace_id] = (
                    self._trace_counts.get(span.trace_id, 0) + 1
                )

    # -- per-request suppression ------------------------------------------

    def suppress_begin(self, trace_id: str | None = None) -> tuple:
        """Enter per-thread suppression without a context manager.

        The serving hot path calls this once per unsampled request;
        generator-based ``with`` machinery would cost more than the
        suppressed spans themselves.  Returns the token to hand back to
        :meth:`suppress_end` (in a ``finally``).
        """
        local = self._local
        token = (
            getattr(local, "suppressing", False),
            getattr(local, "suppress_id", None),
        )
        local.suppressing = True
        local.suppress_id = trace_id
        return token

    def suppress_end(self, token: tuple) -> None:
        """Restore the suppression state captured by :meth:`suppress_begin`."""
        local = self._local
        local.suppressing, local.suppress_id = token

    @contextmanager
    def suppress(self, trace_id: str | None = None) -> Iterator[None]:
        """Silence span creation on this thread for the block's duration.

        The head-sampling fast path: a request whose trace id hashed
        out of the sample runs its pipeline with every ``span()`` call
        returning the no-op singleton, so it pays (almost) the
        tracing-off price.  *trace_id* keeps
        :func:`current_trace_id` answering inside the block, so
        accuracy/exemplar links — the signals that can still force-keep
        the request's stub trace — survive suppression.
        """
        token = self.suppress_begin(trace_id)
        try:
            yield
        finally:
            self.suppress_end(token)

    # -- inspection -------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def active_trace_id(self) -> str | None:
        """The calling thread's trace id: the innermost open span's, or
        the id a :meth:`suppress` block carries for an unsampled
        request."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].trace_id
        if getattr(self._local, "suppressing", False):
            return getattr(self._local, "suppress_id", None)
        return None

    def finished(self) -> list[Span]:
        """A snapshot of all completed, undropped spans (finish order)."""
        with self._lock:
            if not self._dropped:
                return list(self._finished)
            dropped = self._dropped
            return [s for s in self._finished if s.trace_id not in dropped]

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans belonging to *trace_id* (finish order)."""
        with self._lock:
            if trace_id in self._dropped:
                return []
            return [s for s in self._finished if s.trace_id == trace_id]

    def span_count(self, trace_id: str) -> int:
        """Finished-span count for one trace — O(1), for the sampler's
        spans-per-trace histogram (a full scan per resolved request
        would make tail resolution quadratic over a serving run)."""
        with self._lock:
            if trace_id in self._dropped:
                return 0
            return self._trace_counts.get(trace_id, 0)

    def drop_trace(self, trace_id: str) -> int:
        """Discard every finished span of *trace_id* (the tail half of a
        sampled-out decision).  O(1): the id goes into a dropped set and
        the finished list compacts only every
        :data:`DROP_COMPACT_THRESHOLD` drops.  Returns 1 if the id was
        newly dropped, else 0.
        """
        if trace_id is None:
            return 0
        with self._lock:
            if trace_id in self._dropped:
                return 0
            self._dropped.add(trace_id)
            self._trace_counts.pop(trace_id, None)
            if len(self._dropped) >= self.DROP_COMPACT_THRESHOLD:
                dropped = self._dropped
                self._finished = [
                    s for s in self._finished if s.trace_id not in dropped
                ]
                self._dropped = set()
        return 1

    def reset(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        with self._lock:
            self._finished.clear()
            self._dropped.clear()
            self._trace_counts.clear()


class TraceSampler:
    """Deterministic head sampling by trace-id hash, resolved at tail.

    The keep/drop verdict for a trace id is a pure function of
    ``(seed, trace_id)`` — the same in every process at any worker
    count.  The serving front end consults :meth:`keep` before running
    each request:
    sampled requests record their full span tree, unsampled requests
    run with every span suppressed (:meth:`Tracer.suppress`) and record
    nothing, so sampling saves recording cost up front rather than
    discarding spans already paid for.  :meth:`resolve` is called once
    at request completion and either keeps what was recorded (counting
    it sampled) or drops it.  ``force=True`` keeps the trace regardless
    of the hash — the always-keep path for failed/rejected
    queries and worst-band accuracy exemplars; a forced-but-unsampled
    request materializes a 1-span root stub at finish, so a postmortem
    at least sees the request and its final status.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate!r}")
        self.rate = float(rate)
        self.seed = int(seed)
        self.sampled = 0
        self.dropped = 0
        self.forced = 0
        # Metric handles cached per registry: resolve() runs once per
        # request, and name-keyed registry lookups there are measurable
        # against the <5% sampled-overhead budget.
        self._registry = None
        self._sampled_counter = None
        self._dropped_counter = None
        self._spans_histogram = None

    def keep(self, trace_id: str) -> bool:
        """The head decision: pure, deterministic, process-independent."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.seed}:{trace_id}".encode("utf-8"))
        return digest / 2**32 < self.rate

    def _bind_metrics(self) -> None:
        from .metrics import get_registry

        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self._sampled_counter = registry.counter("obs.trace.sampled")
            self._dropped_counter = registry.counter("obs.trace.dropped")
            self._spans_histogram = registry.histogram("obs.trace.spans")

    def resolve(
        self, tracer: Tracer | NoopTracer, trace_id: str, force: bool = False
    ) -> bool:
        """Tail resolution: keep (and count) or drop the trace's spans."""
        self._bind_metrics()
        hash_keep = self.keep(trace_id)
        kept = force or hash_keep
        if kept:
            self.sampled += 1
            if not hash_keep:
                self.forced += 1
            self._sampled_counter.add(1.0)
            count = tracer.span_count(trace_id)
            if count:
                self._spans_histogram.record(float(count))
        else:
            self.dropped += 1
            tracer.drop_trace(trace_id)
            self._dropped_counter.add(1.0)
        return kept


# ---------------------------------------------------------------------------
# The global tracer
# ---------------------------------------------------------------------------

_active_tracer: Tracer | NoopTracer = NOOP_TRACER


def get_tracer() -> Tracer | NoopTracer:
    return _active_tracer


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install *tracer* globally; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


def enable(clock: Callable[[], float] = time.perf_counter) -> Tracer:
    """Install (and return) a fresh recording tracer."""
    tracer = Tracer(clock)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the no-op default."""
    set_tracer(NOOP_TRACER)


def enabled() -> bool:
    return _active_tracer.enabled


def span(
    name: str, trace_id: str | None = None, **attributes: Any
) -> Span | _NoopSpan:
    """A span from the global tracer (the one instrumentation calls)."""
    return _active_tracer.span(name, trace_id=trace_id, **attributes)


def current_trace_id() -> str | None:
    """The trace id of this thread's active trace, if any.

    Instrumented code that only wants to *link* to the active trace
    (accuracy exemplars, histogram exemplars) calls this instead of
    threading a context object through every signature.  It answers for
    the innermost open span — and inside a :meth:`Tracer.suppress`
    block, for the unsampled request the block carries — so force-keep
    signals work whether or not the request records spans.
    """
    return _active_tracer.active_trace_id()


@contextmanager
def recording(
    clock: Callable[[], float] = time.perf_counter, local_ids: bool = False
) -> Iterator[Tracer]:
    """Scoped tracing: record within the block, then restore the
    previously installed tracer.  *local_ids* as in :class:`Tracer` —
    loadgen shards pass True (with a simulated clock) so their exported
    spans are a pure function of the shard task."""
    tracer = Tracer(clock, local_ids=local_ids)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
