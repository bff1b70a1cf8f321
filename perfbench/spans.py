"""In-memory spans recorded around calls into the program's layers.

The traced run installs wrappers on the public functions of each layer
(see :func:`perfbench.layers.install`); every call becomes a :class:`Span`
with a name, start, end and parent.  Nothing is written while the
workload runs: spans stay in memory and :func:`write_jsonl` dumps them
when the run ends.

Parentage follows each thread's call stack.  The serving front end runs
requests on a worker thread, so a span opened on a thread with an empty
stack adopts the client request that is open at that moment (the bench
drives one closed-loop client, so at most one is open): every request
becomes one connected tree, rooted at the client-side
``serving.request`` span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable


class Span:
    """One timed call: ``end - start`` wall seconds, under ``parent``."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent_id: int | None, name: str, start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs or {},
        }


class Patcher:
    """Replaces attributes of program objects and puts them back."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class SpanRecorder(Patcher):
    """Collects spans and call counts; owns the wrappers it installs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The open client request; roots on other threads adopt it.
        self._request: Span | None = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            request = self._request
            parent = request.span_id if request is not None else None
        span = Span(next(self._ids), parent, name, self.clock())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def open_request(self) -> Span:
        """The client-side root of one request (see module docstring)."""
        span = self.open("serving.request")
        self._request = span
        return span

    def close_request(self, span: Span) -> None:
        self._request = None
        self.close(span)

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        attrs: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        *name* may be a function of the call's arguments; *attrs* maps
        (args, kwargs, result) to the span's attributes.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name_of(*args, **kwargs) if name_of else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under *name* (no span)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class SpanIndex:
    """Per-name aggregates over a finished recording."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.span_id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        self.spans = spans

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = sum(c.duration for c in self.children.get(span.span_id, ()))
        return span.duration - covered

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent_id) if span.parent_id else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent_id) if parent.parent_id else None
        return False

    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called *name* (only those below an *under* span, if given)."""
        return [
            s
            for s in self.spans
            if s.name == name and (under is None or self.has_ancestor(s, under))
        ]

    def busy(self, name: str, under: str | None = None) -> float:
        """Wall seconds inside *name*, counting nested same-name calls once."""
        return sum(
            s.duration
            for s in self.named(name, under)
            if not self.has_ancestor(s, name)
        )

    def self_time(self, name: str) -> float:
        return sum(self.self_seconds(s) for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in self.named(name))

    def self_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy seconds, self seconds), largest self first."""
        rows: dict[str, list] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            if not self.has_ancestor(span, span.name):
                row[1] += span.duration
            row[2] += self.self_seconds(span)
        return sorted(
            ((name, c, b, s) for name, (c, b, s) in rows.items()),
            key=lambda r: -r[3],
        )


def write_jsonl(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
