"""Links and the link queue.

The link queue is the central data structure of LTQP (Fig. 1): seed URLs
initialize it, the dereferencer drains it, and link extractors append to
it.  The queue deduplicates (a URL is traversed at most once per execution)
and records statistics for the queue-evolution analysis (bench E9, after
[34]).  There is one queue; a discipline is the score it takes of a link
once, on admission.
"""

from __future__ import annotations

import heapq
import time
from array import array
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence

from ..net.message import split_url

__all__ = [
    "Link",
    "LinkProvenance",
    "LinkQueue",
    "QueueSample",
    "QueueSamples",
    "QueuePolicyContext",
    "EXTRACTOR_RANK",
    "QUERY_MATCH_TIER",
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
    for everything downstream that accounts per origin — the fair score,
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
    "hint-member": 3,
    "ldp-container": 4,
    "ldp-scoped": 4,
    "match": 5,
    "all-iris": 6,
}

#: Rank for extractors absent from :data:`EXTRACTOR_RANK`.
UNKNOWN_EXTRACTOR_RANK = 9

#: The guided tier of a data link produced by a predicate the query itself
#: uses — ahead of type-index/container structure (3), after storage (2).
QUERY_MATCH_TIER = 2.5


def provenance_rank(link: Link) -> int:
    """The shared coarse rank of a link's producing extractor."""
    kind = link.provenance.extractor if link.provenance is not None else link.via
    return EXTRACTOR_RANK.get(kind, UNKNOWN_EXTRACTOR_RANK)


@dataclass(slots=True)
class QueuePolicyContext:
    """What a queue-policy factory may draw on when building its queue.

    Every factory registered in :data:`QUEUE_POLICIES` takes exactly one
    of these; only the guided score reads it.
    """

    #: The :class:`~repro.ltqp.extractors.QueryContext` of the query (or
    #: None) — loose-typed so this module imports nothing above it.
    query: Optional[object] = None


@dataclass(slots=True)
class QueueSample:
    """A point-in-time snapshot of queue state."""

    timestamp: float
    queue_length: int
    pushed_total: int
    popped_total: int


class QueueSamples(Sequence[QueueSample]):
    """The queue's samples, one per push and pop, as flat typed arrays.

    A crawl samples thousands of times; keeping each sample as an object
    would leave thousands of small containers for the collector to trace
    for as long as the statistics live.  The four columns are arrays of
    machine numbers instead (timestamps as doubles, lengths and totals as
    integers), and a :class:`QueueSample` is built only when one is read.
    """

    __slots__ = ("_timestamps", "_lengths", "_pushed", "_popped")

    def __init__(self) -> None:
        self._timestamps = array("d")
        self._lengths = array("q")
        self._pushed = array("q")
        self._popped = array("q")

    def record(
        self, timestamp: float, queue_length: int, pushed_total: int, popped_total: int
    ) -> None:
        self._timestamps.append(timestamp)
        self._lengths.append(queue_length)
        self._pushed.append(pushed_total)
        self._popped.append(popped_total)

    def copy(self) -> "QueueSamples":
        samples = QueueSamples()
        samples._timestamps.extend(self._timestamps)
        samples._lengths.extend(self._lengths)
        samples._pushed.extend(self._pushed)
        samples._popped.extend(self._popped)
        return samples

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(len(self)))]
        return QueueSample(
            self._timestamps[index], self._lengths[index], self._pushed[index], self._popped[index]
        )

    def __iter__(self) -> Iterator[QueueSample]:
        return map(QueueSample, self._timestamps, self._lengths, self._pushed, self._popped)

    def __repr__(self) -> str:
        return f"QueueSamples({len(self)} samples)"


#: A queue discipline: maps an admitted link and its admission sequence
#: number to a sortable key — smaller pops first, ties by sequence number.
#: Called exactly once per admission, in admission order.
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


def _fair() -> Score:
    """Anti-starvation: how many links of this link's origin were admitted
    before it (requeues included).

    An origin's n-th link never waits behind another origin's n-th or
    later, so an origin holding 1000 links cannot delay another origin's
    first dereference by more than one pop per origin: a hostile pod
    lengthens its own tail, never the queue (DESIGN.md §4e).
    """
    admitted: dict[str, int] = {}

    def score(link: Link, seq: int) -> tuple:
        count = admitted.get(link.origin, 0)  # "" for unparseable URLs: shared
        admitted[link.origin] = count + 1
        return (count,)

    return score


def _guided(context: QueuePolicyContext) -> Score:
    """Rank a link by what its provenance says (Guided LTQP,
    arXiv:2005.02239): the :data:`EXTRACTOR_RANK` tier — seeds, then
    source-index documents, storage and type-index pointers, then data
    links — except that a data link produced by a predicate the query
    itself uses (``likes``, ``hasPost``, …) is a join edge, promoted to
    :data:`QUERY_MATCH_TIER`.  Without the promotion a query whose first
    answer lives across a ``likes`` hop (Discover template 8) drains every
    container of the seed pod before taking the one hop that produces a
    result."""
    joins = frozenset(
        predicate.value for predicate in getattr(context.query, "predicates", ())
    )

    def score(link: Link, seq: int) -> tuple:
        tier = provenance_rank(link)
        provenance = link.provenance
        if provenance is not None and provenance.predicate in joins and tier > QUERY_MATCH_TIER:
            return (QUERY_MATCH_TIER,)
        return (tier,)

    return score


class LinkQueue:
    """The link queue: a deduplicating heap of ``(score, seq, link)``.

    A discipline is a :data:`Score` function, not a class — ``score``
    defaults to push order (fifo).  The score is taken once, when a link
    is admitted (push or requeue), and never revisited.
    """

    def __init__(self, score: Score = _fifo) -> None:
        self._score = score
        self._heap: list[tuple[tuple, int, Link]] = []
        self._seq = 0
        self._seen: set[str] = set()
        self._pushed = 0
        self._popped = 0
        self._samples = QueueSamples()
        #: Timestamp source for samples and ``Link.enqueued_at`` stamps;
        #: the engine swaps in the tracer's clock on traced executions.
        self.clock: Callable[[], float] = time.monotonic

    def __len__(self) -> int:
        return len(self._heap)

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
        link = Link(
            url, link.parent_url, link.depth, link.via, link.attempts, self.clock(),
            link.provenance, origin,
        )
        self._seq += 1
        heapq.heappush(self._heap, (self._score(link, self._seq), self._seq, link))
        self._sample()

    def pop(self) -> Link:
        """Dequeue the next link; raises IndexError when empty."""
        if not self._heap:
            raise IndexError("pop from empty link queue")
        link = heapq.heappop(self._heap)[2]
        self._popped += 1
        self._sample()
        return link

    def drain(self) -> list[Link]:
        """Take every link still queued, in no particular order."""
        links = [entry[2] for entry in self._heap]
        self._heap.clear()
        return links

    def forget(self, urls: Iterable[str]) -> None:
        """Un-see fragment-free ``urls``: a later push of one is new again."""
        self._seen.difference_update(urls)

    def has_seen(self, url: str) -> bool:
        return _strip_fragment(url) in self._seen

    @property
    def seen(self) -> AbstractSet[str]:
        """Every fragment-free URL ever admitted (a live view, not a copy)."""
        return self._seen

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
    def samples(self) -> QueueSamples:
        """Queue-length samples recorded at every push/pop (a snapshot)."""
        return self._samples.copy()

    def _sample(self) -> None:
        self._samples.record(self.clock(), len(self._heap), self._pushed, self._popped)


#: Named queue disciplines selectable via ``TraversalPolicy.queue_policy``
#: (and the CLI ``--queue-policy`` flag).  Every factory has the one
#: signature ``(QueuePolicyContext) -> LinkQueue``.
QUEUE_POLICIES: dict[str, Callable[[QueuePolicyContext], LinkQueue]] = {
    "fifo": lambda context: LinkQueue(_fifo),
    "lifo": lambda context: LinkQueue(_lifo),
    "priority": lambda context: LinkQueue(_priority),
    "fair": lambda context: LinkQueue(_fair()),
    "guided": lambda context: LinkQueue(_guided(context)),
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
