"""Links and link queues.

The link queue is the central data structure of LTQP (Fig. 1): seed URLs
initialize it, the dereferencer drains it, and link extractors append to
it.  Queues deduplicate (a URL is traversed at most once per execution) and
record statistics for the queue-evolution analysis (bench E9, after [34]).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..net.message import split_url

__all__ = [
    "Link",
    "LinkProvenance",
    "LinkQueue",
    "FairLinkQueue",
    "QueueSample",
    "QueuePolicyContext",
    "EXTRACTOR_RANK",
    "provenance_rank",
    "QUEUE_POLICIES",
    "queue_factory_for",
    "build_queue",
    "origin_of",
]


@dataclass(frozen=True, slots=True)
class LinkProvenance:
    """Why a link exists: the evidence the extractor saw when it emitted it.

    ``extractor`` is the extractor kind (``"match"``, ``"type-index"``,
    ``"hint"``, …— also mirrored in ``Link.via``).  ``predicate`` is the
    IRI of the triple predicate that produced the link, when one did
    (``ldp:contains`` for container members, ``pim:storage`` for storage
    links, the matched data predicate for cMatch links).  ``pattern`` is a
    compact rendering of the query pattern the producing triple matched
    (cMatch only).  ``for_class`` is the ``solid:forClass`` IRI of the
    type-index registration (or hint container summary) that scoped the
    link.  ``parent_depth`` is the traversal depth of the document the
    link was found in.  Guided scoring, trace spans, and the waterfall all
    read from this instead of parsing ``via`` strings.
    """

    extractor: str
    predicate: Optional[str] = None
    pattern: Optional[str] = None
    for_class: Optional[str] = None
    parent_depth: int = 0

    def describe(self) -> str:
        """One-line human rendering for traces and the waterfall."""
        parts = [self.extractor]
        if self.predicate:
            parts.append(f"via {_local_name(self.predicate)}")
        if self.for_class:
            parts.append(f"for {_local_name(self.for_class)}")
        if self.pattern:
            parts.append(f"matching {self.pattern}")
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class Link:
    """A URL awaiting dereferencing.

    ``parent_url`` is the document whose content produced this link (None
    for seeds), ``depth`` its distance from the seeds, ``via`` the name of
    the extractor that found it, ``attempts`` how many times it has been
    re-queued after retryable dereference failures.  ``enqueued_at`` is
    stamped by the queue (its clock) on push/requeue — the tracer's
    ``queue-wait`` spans measure from it.  ``provenance`` carries the
    structured :class:`LinkProvenance` when the extractor supplied one;
    ``via`` stays as the coarse extractor name so existing span
    attributes and per-extractor counters keep their meaning.  ``origin``
    (:func:`origin_of` the URL) is stamped by the queue on admission, once,
    for everything downstream that accounts per origin — fair lanes,
    admission, budgets, refusal attribution.
    """

    url: str
    parent_url: Optional[str] = None
    depth: int = 0
    via: str = "seed"
    attempts: int = 0
    enqueued_at: float = 0.0
    provenance: Optional[LinkProvenance] = None
    origin: str = ""

    @property
    def is_seed(self) -> bool:
        return self.parent_url is None


#: Shared extractor ranking (smaller pops first) used by the priority and
#: guided disciplines: structural metadata — hint/spec documents, storage
#: and type-index pointers — before plain data links, seeds first.
EXTRACTOR_RANK: dict[str, int] = {
    "seed": 0,
    "hint": 1,
    "storage": 2,
    "type-index": 3,
    "hint-container": 3,
    "ldp-container": 4,
    "ldp-scoped": 4,
    "match": 5,
    "all-iris": 6,
}

#: Rank for extractors absent from :data:`EXTRACTOR_RANK`.
UNKNOWN_EXTRACTOR_RANK = 9


def provenance_rank(link: Link) -> int:
    """The shared coarse rank of a link's producing extractor."""
    kind = link.provenance.extractor if link.provenance is not None else link.via
    return EXTRACTOR_RANK.get(kind, UNKNOWN_EXTRACTOR_RANK)


@dataclass(slots=True)
class QueuePolicyContext:
    """What a queue-policy factory may draw on when building its queue.

    Every factory registered in :data:`QUEUE_POLICIES` takes exactly one
    of these.
    The basic disciplines ignore it; the guided queue scores with both
    fields.  Fields are deliberately loose-typed so the registry keeps no
    import edges into the guided package.
    """

    #: The :class:`~repro.ltqp.extractors.QueryContext` of the query (or None).
    query: Optional[object] = None
    #: The execution's :class:`~repro.ltqp.guided.CardinalityHints` (or None).
    hints: Optional[object] = None


@dataclass(slots=True)
class QueueSample:
    """A point-in-time snapshot of queue state."""

    timestamp: float
    queue_length: int
    pushed_total: int
    popped_total: int


#: A queue discipline: maps a pending link and its push sequence number
#: to a sortable key — smaller pops first, ties by sequence number.
Score = Callable[[Link, int], tuple]


def _fifo(link: Link, seq: int) -> tuple:
    """Breadth-first: push order alone — the default in the paper's engine."""
    return ()


def _lifo(link: Link, seq: int) -> tuple:
    """Depth-first: the newest link first.

    Dives into each pod before finishing breadth — one of the queue
    disciplines whose effect on result arrival [34] studies.  Termination
    and answers are unaffected; arrival order and queue shape change.
    """
    return (-seq,)


def _priority(link: Link, seq: int) -> tuple:
    """Shallow links first, then Solid-metadata extractors (profile /
    type-index links, per :data:`EXTRACTOR_RANK`) over plain data links,
    so structural documents are read early (an enhancement direction the
    paper cites [34])."""
    return (link.depth, provenance_rank(link))


class LinkQueue:
    """The ordered link queue: a deduplicating heap of ``(score, seq, link)``.

    A discipline is a :data:`Score` function, not a class — ``score``
    defaults to push order (fifo).  Scores are computed on push; a
    discipline whose scores depend on state that changes while links wait
    (the guided queue's result-contribution boosts) calls :meth:`rescore`,
    and the next pop re-scores every pending entry once, keeping each
    entry's sequence number.
    """

    def __init__(self, score: Score = _fifo) -> None:
        self._score = score
        self._heap: list[tuple[tuple, int, Link]] = []
        self._seq = 0
        self._stale = False
        self._seen: set[str] = set()
        self._pushed = 0
        self._popped = 0
        self._samples: list[QueueSample] = []
        #: Timestamp source for samples and ``Link.enqueued_at`` stamps;
        #: the engine swaps in the tracer's clock on traced executions.
        self.clock: Callable[[], float] = time.monotonic
        #: Optional per-sample callback (queue-depth gauge wiring).
        self.observer: Optional[Callable[[QueueSample], None]] = None

    # -- storage (overridden by the one non-score discipline) -----------------

    def _push_impl(self, link: Link) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._score(link, self._seq), self._seq, link))

    def _pop_impl(self) -> Link:
        if self._stale:
            # A promotion can lift entries buried anywhere in the heap,
            # which top-of-heap lazy re-scoring cannot see; many rescore()
            # calls between two pops coalesce into this one O(n) re-heap.
            self._heap = [
                (self._score(link, seq), seq, link) for _, seq, link in self._heap
            ]
            heapq.heapify(self._heap)
            self._stale = False
        if not self._heap:
            raise IndexError("pop from empty link queue")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def rescore(self) -> None:
        """The score function's inputs changed: re-score pending links
        before the next pop."""
        self._stale = True

    # -- public API -------------------------------------------------------------

    def push(self, link: Link) -> bool:
        """Enqueue unless the URL was already seen; returns True if enqueued."""
        url = _strip_fragment(link.url)
        if url in self._seen:
            return False
        self._pushed += 1
        self._admit(link, url)
        return True

    def requeue(self, link: Link) -> bool:
        """Re-admit an already-seen URL for another dereference attempt.

        Bypasses deduplication — the fault-tolerant engine uses this to
        give retryable failures (e.g. a tripped circuit breaker) another
        chance once the queue cycles back around, instead of silently
        discarding the document.  Requeues do not count as pushes, so link
        statistics stay comparable.  The link is re-stamped but otherwise
        kept whole — provenance, depth, and therefore queue rank survive
        the retry (a link must not lose its priority for having hit a
        flaky server).
        """
        self._admit(link, _strip_fragment(link.url))
        return True

    def _admit(self, link: Link, url: str) -> None:
        self._seen.add(url)
        origin = link.origin or origin_of(url)  # a requeued link has its stamp
        self._push_impl(replace(link, url=url, enqueued_at=self.clock(), origin=origin))
        self._sample()

    def pop(self) -> Link:
        """Dequeue the next link; raises IndexError when empty."""
        link = self._pop_impl()
        self._popped += 1
        self._sample()
        return link

    def has_seen(self, url: str) -> bool:
        return _strip_fragment(url) in self._seen

    @property
    def empty(self) -> bool:
        return len(self) == 0

    @property
    def pushed_total(self) -> int:
        return self._pushed

    @property
    def popped_total(self) -> int:
        return self._popped

    @property
    def samples(self) -> list[QueueSample]:
        """Queue-length samples recorded at every push/pop."""
        return list(self._samples)

    def _sample(self) -> None:
        sample = QueueSample(
            timestamp=self.clock(),
            queue_length=len(self),
            pushed_total=self._pushed,
            popped_total=self._popped,
        )
        self._samples.append(sample)
        if self.observer is not None:
            self.observer(sample)


class FairLinkQueue(LinkQueue):
    """Round-robin across origins — the anti-starvation discipline, and
    the one that is a rotation rather than an order (so not a score).

    Each origin gets its own FIFO lane; ``pop`` serves one link from the
    origin at the head of a rotation, then moves that origin to the back.
    Within a round, every origin with pending links is served exactly
    once, so an origin holding 1000 links cannot delay another origin's
    first dereference by more than one round.  This is the queue-side
    half of the adversarial hardening (DESIGN.md §4e): a hostile pod can
    fill its own lane, never the queue.

    Newly seen origins join the *back* of the rotation (they wait at most
    one full round), and an origin whose lane drains leaves the rotation
    until it has links again.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lanes: dict[str, deque[Link]] = {}
        self._rotation: deque[str] = deque()
        self._size = 0

    def _push_impl(self, link: Link) -> None:
        origin = link.origin  # "" for unparseable URLs: they share a lane
        lane = self._lanes.get(origin)
        if lane is None:
            lane = self._lanes[origin] = deque()
            self._rotation.append(origin)
        lane.append(link)
        self._size += 1

    def _pop_impl(self) -> Link:
        while self._rotation:
            origin = self._rotation[0]
            lane = self._lanes.get(origin)
            if not lane:
                # Lane drained since its last turn: retire it.  A later
                # push for this origin re-creates lane and rotation entry
                # together, so the two structures never disagree.
                self._rotation.popleft()
                self._lanes.pop(origin, None)
                continue
            link = lane.popleft()
            self._rotation.rotate(-1)
            self._size -= 1
            return link
        raise IndexError("pop from empty link queue")

    def __len__(self) -> int:
        return self._size


def _make_guided(context: QueuePolicyContext) -> LinkQueue:
    # Imported lazily: the guided package imports this module for Link and
    # the ranking table, so a top-level import here would be circular.
    from .guided import GuidedLinkQueue

    return GuidedLinkQueue(context)


#: Named queue disciplines selectable via ``TraversalPolicy.queue_policy``
#: (and the CLI ``--queue-policy`` flag).  Every factory has the one
#: signature ``(QueuePolicyContext) -> LinkQueue``.
QUEUE_POLICIES: dict[str, Callable[[QueuePolicyContext], LinkQueue]] = {
    "fifo": lambda context: LinkQueue(_fifo),
    "lifo": lambda context: LinkQueue(_lifo),
    "priority": lambda context: LinkQueue(_priority),
    "fair": lambda context: FairLinkQueue(),
    "guided": _make_guided,
}


def queue_factory_for(policy: str) -> Callable[[QueuePolicyContext], LinkQueue]:
    """Resolve a queue-policy name to its queue factory."""
    try:
        return QUEUE_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown queue policy {policy!r} (choose from {sorted(QUEUE_POLICIES)})"
        ) from None


def build_queue(
    factory: Callable[[QueuePolicyContext], LinkQueue], context: QueuePolicyContext
) -> LinkQueue:
    """Build one execution's queue: invoke ``factory`` with the policy context."""
    return factory(context)


def _strip_fragment(url: str) -> str:
    return url.split("#", 1)[0]


def origin_of(url: str) -> str:
    """``scheme://host[:port]`` of an http(s) URL; ``""`` for anything
    else (dereferencing rejects it)."""
    try:
        origin, _, _ = split_url(url)
    except ValueError:
        return ""
    return origin


def _local_name(iri: str) -> str:
    """The part of an IRI after the last ``#`` or ``/`` — for display only."""
    for sep in ("#", "/"):
        if sep in iri:
            tail = iri.rsplit(sep, 1)[1]
            if tail:
                return tail
    return iri
