"""Execution statistics: time-to-first-result, links followed, queue evolution.

The paper's headline quantitative claims live here:

* "first results showing up in less than a second" → :attr:`ExecutionStats.time_to_first_result`
* "non-complex queries can be completed in the order of seconds" → :attr:`total_time`
* optimizing "the number of links that need to be followed" → :attr:`documents_fetched`, :attr:`links_queued`
* link-queue evolution [34] → :attr:`queue_samples`

Since lenient execution silently tolerates network faults, the stats also
carry a **completeness report** (:meth:`ExecutionStats.completeness`):
how many documents were attempted, retried, and finally abandoned, which
origins tripped their circuit breakers, and an estimate of how many links
the abandoned documents would have contributed — so "the query returned
N results" can always be qualified with "and here is what it may have
missed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .links import QueueSample

__all__ = ["TimedResult", "ExecutionStats"]


@dataclass(slots=True)
class TimedResult:
    """One query result with its arrival time (seconds from start)."""

    binding: "object"
    elapsed: float


@dataclass(slots=True)
class ExecutionStats:
    """Aggregated metrics for one query execution."""

    started_at: float = 0.0
    finished_at: float = 0.0
    first_result_at: Optional[float] = None
    result_count: int = 0
    documents_fetched: int = 0
    documents_failed: int = 0
    #: Of the fetched documents, how many skipped the parse because the
    #: shared parsed-document store already held them (warm service runs).
    documents_from_store: int = 0
    #: Distinct triples of the documents ingested, and how many of them
    #: carried a predicate the plan reads and were therefore kept in the
    #: growing source (equal when the plan can read any quad).
    triples_discovered: int = 0
    triples_stored: int = 0
    links_queued: int = 0
    links_by_extractor: dict[str, int] = field(default_factory=dict)
    #: A :class:`~repro.ltqp.links.QueueSamples` after a run (flat arrays;
    #: a sample is an object only once read).
    queue_samples: Sequence[QueueSample] = field(default_factory=list)
    #: True when the compiled plan has no blocking operators — every result
    #: can stream during traversal instead of waiting for the finalize pass.
    streaming: bool = True
    #: BGP join re-orders the pipeline made while the plan was open.
    replans: int = 0
    #: Errors raised while tearing down the traversal task.  Shutdown must
    #: not fail the query, but swallowing these silently hides real bugs —
    #: they are recorded here instead.
    shutdown_errors: list[str] = field(default_factory=list)

    # -- degradation accounting (lenient mode under faults) ----------------
    #: Links re-queued after a retryable dereference failure.
    documents_retried: int = 0
    #: Retryable failures given up on for good (retries + re-queues spent).
    documents_abandoned: int = 0
    #: Client-level HTTP retry attempts during this execution.
    http_retries: int = 0
    #: Attempts that hit the per-request timeout.
    http_timeouts: int = 0
    #: Requests fast-failed because the origin's circuit breaker was open.
    breaker_fast_fails: int = 0
    #: Origin → number of closed→open breaker transitions in this run.
    origins_tripped: dict[str, int] = field(default_factory=dict)

    # -- refusal accounting (adversarial hardening budgets) -----------------
    #: Documents the engine *chose* not to take: origin dereference/byte
    #: budgets, the client read cap, or the parse cap.  Distinct from
    #: ``documents_abandoned`` (wanted but lost to faults) — a refusal is
    #: deliberate, attributed, and never retried.
    documents_refused: int = 0
    #: Budget kind → refusal count.  Kinds: ``origin-derefs``,
    #: ``origin-bytes``, ``doc-bytes`` (client read cap), ``parse-bytes``
    #: (parse cap); attribution only, not counted in ``documents_refused``:
    #: ``depth`` (link extraction suppressed at max depth) and
    #: ``max-documents`` / ``max-duration`` (one per link the bound left
    #: unfetched).
    refusals_by_kind: dict[str, int] = field(default_factory=dict)
    #: Origin → refusal count (same attribution, sliced by who caused it).
    refusals_by_origin: dict[str, int] = field(default_factory=dict)

    # -- source-selection accounting (guided traversal, DESIGN.md §4g) ------
    #: Links the :class:`~repro.ltqp.guided.SourceSelector` declined to
    #: dereference.  A prune is *scoping*, not degradation: the user (or a
    #: pod's published spec/summary) declared those documents outside the
    #: query's subweb, so ``complete`` stays true — the answer is complete
    #: *for the restricted subweb*, and ``spec_restricted`` says so.
    links_pruned: int = 0
    #: Selector rule label → pruned-link count (``spec:…``, ``hint:…``,
    #: ``origin:undeclared``).
    pruned_by_rule: dict[str, int] = field(default_factory=dict)
    #: Origin → pruned-link count.
    pruned_by_origin: dict[str, int] = field(default_factory=dict)
    #: Pod declarations turned away, so nothing they said was used: a
    #: source index describing a pod it is not served from (an index
    #: speaks for its own pod only), or a subweb spec that does not parse.
    declarations_rejected: int = 0

    def note_pruned(self, rule: str, origin: str) -> None:
        """Attribute one selector-pruned link to its rule and origin."""
        self.links_pruned += 1
        self.pruned_by_rule[rule] = self.pruned_by_rule.get(rule, 0) + 1
        self.pruned_by_origin[origin] = self.pruned_by_origin.get(origin, 0) + 1

    def note_refusal(self, kind: str, origin: str, document: bool = True) -> None:
        """Attribute one budget refusal to ``kind`` and ``origin``.

        ``document=False`` records attribution without counting a refused
        document (depth suppression: the document itself was taken; a
        whole-run bound: no document was refused, the run stopped)."""
        if document:
            self.documents_refused += 1
        self.refusals_by_kind[kind] = self.refusals_by_kind.get(kind, 0) + 1
        self.refusals_by_origin[origin] = self.refusals_by_origin.get(origin, 0) + 1

    def note_shutdown_error(self, stage: str, error: BaseException) -> None:
        """Record an exception swallowed during task teardown."""
        self.shutdown_errors.append(f"{stage}: {type(error).__name__}: {error}")

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def time_to_first_result(self) -> Optional[float]:
        if self.first_result_at is None:
            return None
        return self.first_result_at - self.started_at

    @property
    def documents_attempted(self) -> int:
        """Distinct documents traversal tried to obtain (fetched, lost,
        or refused by a hardening budget)."""
        return self.documents_fetched + self.documents_abandoned + self.documents_refused

    def estimated_missing_links(self) -> int:
        """How many links the abandoned documents likely held.

        Abandoned documents were never parsed, so their out-links are
        unknown; estimate with the mean out-degree of the documents that
        *were* fetched.  Zero when nothing was abandoned.
        """
        if not self.documents_abandoned:
            return 0
        seeds = self.links_by_extractor.get("seed", 0)
        discovered = max(0, self.links_queued - seeds)
        if not self.documents_fetched:
            return self.documents_abandoned
        return round(self.documents_abandoned * discovered / self.documents_fetched)

    def completeness(self) -> dict:
        """The degradation report: what lenient execution may have lost."""
        return {
            "complete": self.documents_abandoned == 0 and self.documents_refused == 0,
            "spec_restricted": self.links_pruned > 0,
            "links_pruned": self.links_pruned,
            "pruned_by_rule": dict(sorted(self.pruned_by_rule.items())),
            "pruned_by_origin": dict(sorted(self.pruned_by_origin.items())),
            "declarations_rejected": self.declarations_rejected,
            "documents_attempted": self.documents_attempted,
            "documents_fetched": self.documents_fetched,
            "documents_retried": self.documents_retried,
            "documents_abandoned": self.documents_abandoned,
            "documents_refused": self.documents_refused,
            "refusals_by_kind": dict(sorted(self.refusals_by_kind.items())),
            "refusals_by_origin": dict(sorted(self.refusals_by_origin.items())),
            "http_retries": self.http_retries,
            "http_timeouts": self.http_timeouts,
            "breaker_fast_fails": self.breaker_fast_fails,
            "origins_tripped": dict(sorted(self.origins_tripped.items())),
            "estimated_missing_links": self.estimated_missing_links(),
        }

    def summary(self) -> dict:
        """A JSON-friendly digest (used by the bench harness)."""
        return {
            "results": self.result_count,
            "total_time_s": round(self.total_time, 4),
            "ttfr_s": (
                round(self.time_to_first_result, 4)
                if self.time_to_first_result is not None
                else None
            ),
            "documents_fetched": self.documents_fetched,
            "documents_failed": self.documents_failed,
            "documents_from_store": self.documents_from_store,
            "triples_discovered": self.triples_discovered,
            "triples_stored": self.triples_stored,
            "links_queued": self.links_queued,
            "links_by_extractor": dict(sorted(self.links_by_extractor.items())),
            "streaming": self.streaming,
            "replans": self.replans,
            "shutdown_errors": list(self.shutdown_errors),
            "completeness": self.completeness(),
        }
