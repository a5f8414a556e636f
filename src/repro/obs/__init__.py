"""Zero-dependency observability: structured tracing.

The engine's execution telemetry layer (see DESIGN.md §"Observability"):

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` /
  :class:`TickClock`: one well-formed span tree per query execution;
* :mod:`repro.obs.export` — Chrome trace-event JSON and a text
  flamegraph summary;
* :mod:`repro.obs.analysis` — trace invariants, canonical signatures,
  and trace-derived execution stats for the test harness.

Tracing is opt-in: pass ``tracer=`` to ``LinkTraversalEngine.query``;
without one no instrumentation code runs beyond one ``is None`` check per
site.  The counts every run keeps — ``ExecutionStats``, the client's
``RequestLog`` and ``ResilienceStats``, a service's ``statistics()`` —
are the one set of books; a trace is a view over the same events.
"""

from .analysis import (
    check_trace_invariants,
    match_requests_to_attempts,
    span_tree_signature,
    trace_execution_stats,
)
from .export import chrome_trace_events, render_trace_summary, write_chrome_trace
from .trace import Span, TickClock, Tracer

__all__ = [
    "Span",
    "Tracer",
    "TickClock",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_trace_summary",
    "check_trace_invariants",
    "match_requests_to_attempts",
    "span_tree_signature",
    "trace_execution_stats",
]
