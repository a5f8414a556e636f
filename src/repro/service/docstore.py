"""The cross-query parsed-document store.

The structural-assumptions evaluation (Taelman & Verborgh 2023) shows
dereference cost — fetch *plus parse* — dominates LTQP end-to-end time.
The HTTP cache (:mod:`repro.net.cache`) already amortizes the fetch
across queries; this store amortizes the parse: it remembers, per URL,
the :class:`~repro.rdf.document.ParsedDocument` a response body parsed
into, keyed by the response's *validator* (its ETag, or a hash of the body
when the server sends none).

A warm query through the :class:`~repro.service.QueryService` therefore
touches neither the network (HTTP-cache hit) nor the parser (store hit):
the dereferencer asks the store before parsing and hands the stored
document — the same object, so its predicate index is built once for
every query that reads it — to the per-query triple source and the link
extractors.

Invalidation rides the existing ETag/revalidation machinery: the store
never guesses at freshness itself.  The HTTP layer decides whether a
cached response may be reused or must be revalidated; whatever response
comes out of that machinery carries a validator, and a changed document
has a changed validator — the store drops the stale entry and the
document is re-parsed.

Bounded memory and (optional) persistence both live in the shared
:class:`~repro.storage.tier.StorageTier`: hot entries stay decoded in a
true-LRU in-process cache; with a
:class:`~repro.storage.SqliteBackend` below, entries additionally
write through in the process-portable term-table wire form
(:mod:`repro.service.wire`; triples and validator, not the index, which
the decoded value rebuilds on first use) — so a restarted
service reopens the same store file warm, and the *first* lookup after
an upstream change still invalidates through the ordinary revalidation
path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..net.message import Response
from ..rdf.document import ParsedDocument
from ..rdf.triples import Triple
from ..storage import SqliteBackend, StorageTier

__all__ = ["StoredDocument", "DocumentStore"]


@dataclass(slots=True, frozen=True)
class StoredDocument:
    """One parsed document and its identity validator."""

    url: str
    validator: str
    document: ParsedDocument
    stored_at: float


#: The form marker every persisted document payload starts with: the wire
#: block of :mod:`repro.service.wire` (kind-tagged term table) as JSON.
#: :func:`decode_stored_document` reads this form and no other.
DOCUMENT_FORM = b"repro.document/tagged-terms\n"


def encode_stored_document(document: StoredDocument) -> bytes:
    """Form marker, then the wire block plus a wall-clock timestamp as JSON.

    ``stored_at`` is monotonic (meaningless across processes); the
    persisted form carries the equivalent wall-clock instant so a
    restarted process can reconstruct a comparable monotonic age.
    """
    from .wire import document_to_wire

    payload = document_to_wire(document)
    payload["stored_wall"] = time.time() - (time.monotonic() - document.stored_at)
    return DOCUMENT_FORM + json.dumps(payload).encode("utf-8")


def decode_stored_document(raw: bytes) -> StoredDocument:
    """Rebuild a document over this process's canonical terms.

    Raises :class:`ValueError` on bytes in any other form — a store file
    written by an older build, a corrupt row — which the storage tier
    answers as a miss.
    """
    from .wire import document_from_wire

    if not raw.startswith(DOCUMENT_FORM):
        raise ValueError("not a stored document in this build's form")
    payload = json.loads(raw[len(DOCUMENT_FORM) :])
    age = max(0.0, time.time() - float(payload["stored_wall"]))
    return document_from_wire(payload, stored_at=time.monotonic() - age)


class DocumentStore:
    """URL-keyed store of parsed documents with validator-based identity.

    ``max_documents`` bounds *memory*: beyond it the least-recently-used
    entry leaves the in-process cache (the same
    :class:`~repro.storage.tier.StorageTier` discipline as
    :class:`~repro.net.cache.HttpCache`).  With a ``backend``
    the evicted entry stays reachable on disk — capacity outgrows RAM
    and survives restarts.  Counters (``hits``/``misses``/
    ``invalidations``) feed :meth:`statistics`, the service's book.
    """

    def __init__(
        self,
        max_documents: int = 100_000,
        backend: Optional[SqliteBackend] = None,
    ) -> None:
        self._tier = StorageTier(
            "documents",
            max_documents,
            encode_stored_document,
            decode_stored_document,
            backend=backend,
        )
        self.hits = 0
        self.misses = 0
        #: Lookups that found the URL but with a *different* validator —
        #: the document changed upstream and its entry was dropped.
        self.invalidations = 0
        #: Parses that went through the store (cold-path ``put`` calls).
        self.parses = 0

    def __len__(self) -> int:
        return len(self._tier)

    def __contains__(self, url: str) -> bool:
        return url in self._tier

    @property
    def tier(self) -> StorageTier:
        return self._tier

    @staticmethod
    def validator_for(response: Response) -> str:
        """The response's identity: its ETag, else a body digest."""
        etag = response.header("etag")
        if etag:
            return etag
        return "sha1:" + hashlib.sha1(response.body).hexdigest()

    def lookup(self, url: str, validator: str) -> Optional[StoredDocument]:
        """The stored parse of ``url`` *iff* the validator still matches."""
        entry = self._tier.get(url)
        if entry is None:
            self.misses += 1
            return None
        if entry.validator != validator:
            # The revalidation machinery produced a different body: the
            # document changed, so the stored parse is stale.
            self._tier.delete(url)
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self, url: str, validator: str, document: ParsedDocument | Iterable[Triple]
    ) -> StoredDocument:
        """Remember one parse.  Bare triples become the document value here."""
        if not isinstance(document, ParsedDocument):
            document = ParsedDocument(document)
        entry = StoredDocument(
            url=url, validator=validator, document=document, stored_at=time.monotonic()
        )
        self._tier.put(url, entry)
        self.parses += 1
        return entry

    def entries(self) -> list[StoredDocument]:
        """All stored documents, oldest first (export order)."""
        return sorted(
            (entry for _, entry in self._tier.items()),
            key=lambda entry: entry.stored_at,
        )

    def adopt(self, entry: StoredDocument) -> None:
        """Install an entry parsed elsewhere (warm shard handoff).

        Counts as neither a hit nor a parse: the *receiving* process did
        no work.  The entry keeps its validator, so the first lookup after
        an upstream change still invalidates it through the ordinary
        revalidation path.  Eviction discipline matches :meth:`put`.
        """
        self._tier.put(entry.url, entry)

    def flush(self) -> None:
        """Commit pending backend writes (no-op without persistence)."""
        self._tier.flush()

    def clear(self) -> None:
        self._tier.clear()
        self.hits = self.misses = self.invalidations = self.parses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def statistics(self) -> dict:
        return {
            "documents": len(self._tier),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "parses": self.parses,
            # One per upstream edit the store noticed; the diff itself is
            # ``GrowingTripleSource.put_document``'s, per plan read set.
            "diffs": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
            "storage": self._tier.statistics(),
        }
