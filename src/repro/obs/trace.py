"""Structured execution tracing: a well-formed span tree per query run.

The paper's whole argument is made visually — link-queue evolution plots,
HTTP waterfalls, time-to-first-result annotations (Figs. 2-5) — so the
engine needs first-class execution telemetry rather than ad-hoc log
scraping.  A :class:`Tracer` records :class:`Span` objects forming one
tree per traced execution:

``query``
    └─ ``plan``                     (pipeline compilation)
    └─ ``traversal``
        └─ ``dereference``          (one per document, on a worker track)
            ├─ ``queue-wait``       (enqueue → pop)
            ├─ ``fetch``            (client call, incl. backoffs)
            │   ├─ ``attempt``      (one per logged HTTP attempt)
            │   └─ ``backoff``      (retry sleeps)
            ├─ ``parse``
            └─ ``extract``
    └─ ``advance-batch``            (one per pipeline advance; ``reordered``
        │                            when BGPs re-ordered after it)
        └─ ``join``                 (per join operator, nested)
    plus the instant marker ``first-result``.

Design constraints:

* **Zero overhead when disabled.**  Instrumentation points hold a tracer
  reference that is ``None`` by default and guard with a single identity
  check; no tracer object ever exists on untraced executions.
* **Deterministic under an injected clock.**  Every timestamp comes from
  ``tracer.clock`` (default :func:`time.monotonic`); installing a
  :class:`TickClock` makes traces byte-stable artifacts for golden tests.
* **Async-safe parenting.**  Concurrent tasks pass parents explicitly
  (``begin``/``end``/``add``); synchronous pipeline code may instead use
  the :meth:`Tracer.span` context manager, which maintains a stack.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["Span", "Tracer", "TickClock"]

_UNSET = object()


class Span:
    """One timed node of the trace tree.

    ``end`` is ``None`` while the span is open.  ``kind`` is ``"span"``
    for intervals and ``"instant"`` for zero-duration markers.  ``track``
    is the logical timeline lane (worker index) used by exporters.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "track", "kind", "args", "children")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        track: int = 0,
        kind: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.track = track
        self.kind = kind
        self.args: dict = args if args is not None else {}
        self.children: list["Span"] = []

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds covered; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.duration * 1000:.2f}ms" if self.closed else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class TickClock:
    """A deterministic clock: every call advances time by a fixed step.

    Installing one on a :class:`Tracer` (and therefore, through the
    engine, on the link queue and HTTP client) makes all recorded
    timestamps a pure function of the *sequence* of events — so a
    deterministic execution produces a byte-identical trace, suitable for
    golden-output tests.
    """

    __slots__ = ("now", "step")

    def __init__(self, step: float = 0.001, start: float = 0.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class Tracer:
    """Records spans for one (or more) query executions.

    Spans are kept in creation order (``spans``); the tree is reachable
    from ``roots``.  All timestamps come from :attr:`clock`.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._spans: list[Span] = []
        self._roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @property
    def spans(self) -> list[Span]:
        """All spans in creation order."""
        return list(self._spans)

    @property
    def roots(self) -> list[Span]:
        return list(self._roots)

    def __len__(self) -> int:
        return len(self._spans)

    def open_spans(self) -> list[Span]:
        return [span for span in self._spans if not span.closed]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _attach(self, span: Span, parent: Optional[Span]) -> Span:
        self._spans.append(span)
        if parent is not None:
            parent.children.append(span)
        else:
            self._roots.append(span)
        return span

    def begin(
        self,
        name: str,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        track: Optional[int] = None,
        **args,
    ) -> Span:
        """Open a span (explicit-parent form, safe across async tasks)."""
        if start is None:
            start = self._clock()
        if track is None:
            track = parent.track if parent is not None else 0
        span = Span(
            name,
            self._next_id,
            parent.span_id if parent is not None else None,
            start,
            track=track,
            args=args,
        )
        self._next_id += 1
        return self._attach(span, parent)

    def end(self, span: Span, end: Optional[float] = None, **args) -> Span:
        """Close a span (idempotent: a closed span keeps its first end)."""
        if args:
            span.args.update(args)
        if span.end is None:
            span.end = end if end is not None else self._clock()
        return span

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        track: Optional[int] = None,
        **args,
    ) -> Span:
        """Record a retroactive, already-closed span with explicit times."""
        span = self.begin(name, parent=parent, start=start, track=track, **args)
        span.end = end
        return span

    def instant(
        self,
        name: str,
        parent: Optional[Span] = None,
        ts: Optional[float] = None,
        **args,
    ) -> Span:
        """Record a zero-duration marker event (e.g. ``first-result``)."""
        if ts is None:
            ts = self._clock()
        span = self.begin(name, parent=parent, start=ts, **args)
        span.end = ts
        span.kind = "instant"
        return span

    @contextmanager
    def span(self, name: str, parent=_UNSET, track: Optional[int] = None, **args) -> Iterator[Span]:
        """Context-manager span for synchronous code; nests via a stack.

        Without an explicit ``parent``, the innermost open context-manager
        span becomes the parent — so pipeline operators nest under their
        ``advance-batch`` span without threading references around.
        """
        if parent is _UNSET:
            resolved = self._stack[-1] if self._stack else None
        else:
            resolved = parent
        entry = self.begin(name, parent=resolved, track=track, **args)
        self._stack.append(entry)
        try:
            yield entry
        finally:
            self._stack.pop()
            self.end(entry)

    def close_open_spans(self, end: Optional[float] = None) -> int:
        """Force-close any spans left open (e.g. after cancellation)."""
        open_spans = self.open_spans()
        if not open_spans:
            return 0
        if end is None:
            end = self._clock()
        for span in open_spans:
            span.end = end
        return len(open_spans)
