"""Trace analysis: structural invariants, tree signatures, derived stats.

Traces are testable artifacts, not just debug output.  This module holds
the checks the test harness runs against every recorded execution:

* :func:`check_trace_invariants` — the span tree is *well-formed*: every
  span closed, children contained in their parents, sibling start times
  monotone in recording order, ids consistent;
* :func:`match_requests_to_attempts` — the trace and the request log
  agree: every :class:`~repro.net.log.RequestRecord` has exactly one
  ``attempt`` span with identical url/timestamps/attempt number;
* :func:`span_tree_signature` — a timestamp-free canonical form of the
  tree, equal across runs with the same seed (determinism tests);
* :func:`trace_execution_stats` — the engine's ``ExecutionStats``
  recomputed purely from trace events, for reconciliation tests.
"""

from __future__ import annotations

from typing import Optional

from .trace import Span, Tracer

__all__ = [
    "check_trace_invariants",
    "match_requests_to_attempts",
    "span_tree_signature",
    "trace_execution_stats",
]

#: Slack for float comparisons on derived interval bounds.
_EPS = 1e-9

#: Span args that are stable across runs and identify a span structurally.
_SIGNATURE_ARGS = (
    "url",
    "attempt",
    "status",
    "via",
    "via_predicate",
    "via_pattern",
    "via_class",
    "discovered_via",
    "depth",
    "outcome",
    "refused",
    "pruned",
    "from_cache",
    "revalidated",
    "retried",
    "error",
    "format",
    "triples",
    "links",
)


def check_trace_invariants(tracer: Tracer) -> list[str]:
    """All structural violations in the trace (empty == well-formed)."""
    violations: list[str] = []
    spans = tracer.spans
    by_id: dict[int, Span] = {}

    for span in spans:
        if span.span_id in by_id:
            violations.append(f"duplicate span id {span.span_id} ({span.name})")
        by_id[span.span_id] = span
        if not span.closed:
            violations.append(f"span {span.name!r} (id {span.span_id}) never closed")
        elif span.end < span.start - _EPS:
            violations.append(
                f"span {span.name!r} (id {span.span_id}) ends before it starts"
            )
        if span.kind == "instant" and span.closed and span.end != span.start:
            violations.append(f"instant {span.name!r} (id {span.span_id}) has duration")

    def _ordering_time(span: Span) -> float:
        # Dereference spans are backdated to their link's *enqueue* time
        # (queue wait included), so under non-FIFO queue disciplines
        # (lifo/priority/fair) sibling starts legitimately run backwards.
        # Order siblings by when they actually entered service — the end
        # of the queue-wait child — which is chronological for every
        # discipline; spans without a queue-wait child are not backdated.
        for child in span.children:
            if child.name == "queue-wait":
                return child.end
        return span.start

    for parent in spans:
        previous_start: Optional[float] = None
        for child in parent.children:
            if child.parent_id != parent.span_id:
                violations.append(
                    f"child {child.name!r} (id {child.span_id}) does not point back "
                    f"to parent {parent.name!r} (id {parent.span_id})"
                )
            if child.start < parent.start - _EPS:
                violations.append(
                    f"{child.name!r} (id {child.span_id}) starts at {child.start:.6f} "
                    f"before parent {parent.name!r} at {parent.start:.6f}"
                )
            if child.closed and parent.closed and child.end > parent.end + _EPS:
                violations.append(
                    f"{child.name!r} (id {child.span_id}) ends at {child.end:.6f} "
                    f"after parent {parent.name!r} at {parent.end:.6f}"
                )
            ordering = _ordering_time(child)
            if previous_start is not None and ordering < previous_start - _EPS:
                violations.append(
                    f"sibling {child.name!r} (id {child.span_id}) under "
                    f"{parent.name!r} starts before its predecessor "
                    f"({ordering:.6f} < {previous_start:.6f})"
                )
            previous_start = ordering

    return violations


def match_requests_to_attempts(log, tracer: Tracer) -> list[str]:
    """Reconcile the request log with the trace's ``attempt`` spans.

    Every logged HTTP attempt (:class:`~repro.net.log.RequestRecord`)
    must correspond to exactly one ``attempt`` span with the same URL,
    start/finish timestamps, attempt number, and status — and vice versa.
    Returns the list of mismatches (empty == perfectly reconciled).
    """
    def record_key(record) -> tuple:
        return (record.url, record.started_at, record.finished_at, record.attempt, record.status)

    def span_key(span: Span) -> tuple:
        return (
            span.args.get("url"),
            span.start,
            span.end,
            span.args.get("attempt"),
            span.args.get("status"),
        )

    violations: list[str] = []
    remaining: dict[tuple, int] = {}
    for span in tracer.spans:
        if span.name == "attempt":
            key = span_key(span)
            remaining[key] = remaining.get(key, 0) + 1

    for record in log.records:
        key = record_key(record)
        count = remaining.get(key, 0)
        if count <= 0:
            violations.append(f"request {key} has no matching attempt span")
        else:
            remaining[key] = count - 1

    for key, count in remaining.items():
        if count > 0:
            violations.append(f"attempt span {key} has no matching request record ×{count}")
    return violations


def _signature(span: Span) -> tuple:
    args = tuple(
        (name, span.args[name]) for name in _SIGNATURE_ARGS if name in span.args
    )
    children = tuple(sorted(_signature(child) for child in span.children))
    return (span.name, span.kind, args, children)


def span_tree_signature(tracer: Tracer) -> tuple:
    """A canonical, timestamp-free form of the span tree.

    Children are sorted (not kept in recording order) so the signature is
    invariant under benign async interleavings — two runs with the same
    seed must produce equal signatures even if workers were scheduled in
    a different order.
    """
    return tuple(sorted(_signature(root) for root in tracer.roots))


def trace_execution_stats(tracer: Tracer) -> dict:
    """``ExecutionStats``-equivalent counters recomputed from the trace.

    Used by reconciliation tests: each value here must equal the
    corresponding field the engine accumulated through its own counters.

    Live (standing-query) executions add the maintenance books: every
    :meth:`~repro.ltqp.live.LiveQuery.refresh` leaves one ``refresh``
    span (outcome ``changed``/``unchanged``/``failed`` plus the diff
    sizes) with the ``dereference`` spans of the links it re-opened under
    it, and each signed maintenance batch leaves an ``apply-batch`` span,
    so the counters here must reconcile with the standing query's event
    history and ``failed_refreshes`` map.  A held document's refetch
    (``refreshed``) or a gone one (``gone``) is no fetched document.
    """
    documents_fetched = 0
    triples_stored = 0
    documents_failed = 0
    documents_retried = 0
    documents_abandoned = 0
    documents_refused = 0
    refusals_by_kind: dict[str, int] = {}
    http_retries = 0
    http_timeouts = 0
    breaker_fast_fails = 0
    refreshes = 0
    refreshes_changed = 0
    refreshes_unchanged = 0
    refreshes_failed = 0
    diff_added = 0
    diff_removed = 0
    apply_batches = 0
    retraction_batches = 0
    maintenance_changes = 0
    first_result_ts: Optional[float] = None
    query_start: Optional[float] = None

    for span in tracer.spans:
        if span.name == "refresh":
            refreshes += 1
            outcome = span.args.get("outcome")
            if outcome == "changed":
                refreshes_changed += 1
                diff_added += span.args.get("added", 0)
                diff_removed += span.args.get("removed", 0)
            elif outcome == "unchanged":
                refreshes_unchanged += 1
            elif outcome == "failed":
                refreshes_failed += 1
        elif span.name == "apply-batch":
            apply_batches += 1
            if span.args.get("sign", 1) < 0:
                retraction_batches += 1
            maintenance_changes += span.args.get("changes", 0)
        elif span.name == "dereference":
            outcome = span.args.get("outcome")
            if outcome == "ok":
                documents_fetched += 1
                triples_stored += span.args.get("kept", 0)
            elif outcome == "refused":
                # A budget refusal is deliberate, not a failure.
                documents_refused += 1
                kind = span.args.get("refused") or "unknown"
                refusals_by_kind[kind] = refusals_by_kind.get(kind, 0) + 1
            # Uncounted: in flight as max_documents filled; turned away or
            # parked by source selection, which is scoping, not failure; a
            # live refresh of a held document, or of one that is gone.
            elif outcome not in ("over-bound", "pruned", "deferred", "refreshed", "gone"):
                documents_failed += 1
                if outcome == "retried":
                    documents_retried += 1
                elif outcome == "abandoned":
                    documents_abandoned += 1
        elif span.name == "attempt":
            if span.args.get("retried"):
                http_retries += 1
            error = span.args.get("error") or ""
            if error == "request timed out":
                http_timeouts += 1
            elif error == "circuit breaker open":
                breaker_fast_fails += 1
        elif span.name == "first-result" and first_result_ts is None:
            first_result_ts = span.start
        elif span.name == "query" and query_start is None:
            query_start = span.start

    time_to_first_result = None
    if first_result_ts is not None and query_start is not None:
        time_to_first_result = first_result_ts - query_start

    return {
        "documents_fetched": documents_fetched,
        "triples_stored": triples_stored,
        "documents_failed": documents_failed,
        "documents_retried": documents_retried,
        "documents_abandoned": documents_abandoned,
        "documents_refused": documents_refused,
        "refusals_by_kind": dict(sorted(refusals_by_kind.items())),
        "http_retries": http_retries,
        "http_timeouts": http_timeouts,
        "breaker_fast_fails": breaker_fast_fails,
        "time_to_first_result": time_to_first_result,
        "refreshes": refreshes,
        "refreshes_changed": refreshes_changed,
        "refreshes_unchanged": refreshes_unchanged,
        "refreshes_failed": refreshes_failed,
        "diff_added": diff_added,
        "diff_removed": diff_removed,
        "apply_batches": apply_batches,
        "retraction_batches": retraction_batches,
        "maintenance_changes": maintenance_changes,
    }
