"""The dereferencer: URL → RDF triples (Fig. 1).

Fetches a document over the (simulated) Web, negotiates an RDF
serialization, and parses it with the document URL as base IRI.  In
lenient mode — the paper's CLI runs ``--lenient`` against the open Web —
*every* failure class follows the same contract: HTTP errors, redirect
anomalies (loops, missing or malformed ``Location`` headers), invalid
URLs, unsupported content types, and parse failures all yield an empty
:class:`DereferenceResult` carrying the error text; with
``lenient=False`` they all raise :class:`DereferenceError` instead.

Failures are additionally classified as *retryable* (transient transport
or server trouble — worth re-queueing through the link queue) or
permanent (the document simply is not there / is not RDF).

The dereferencer is the one home of three settings, given at
construction: leniency, the extra (auth) request headers, and the
document store.  An engine is handed one instance and every execution
fetches through it, so it holds nothing of any execution: tracer,
resilience counters and the parse cap arrive with each
:meth:`Dereferencer.dereference` call, and blank-node labels derive from
the document URL, not from instance state.  Pass ``document_store`` (see
:class:`~repro.service.docstore.DocumentStore`) and successfully parsed
documents are remembered keyed by their HTTP validator (ETag, or a body
hash when the server sends none) — a repeat dereference whose response
carries the same validator skips the parse entirely and returns the
stored :class:`~repro.rdf.document.ParsedDocument` itself (predicate index
included), with ``from_store`` set on the result.  Because the
validator comes from the response, the existing HTTP-cache revalidation
machinery is also the store's invalidation: a changed document gets a new
ETag, misses the store, and is re-parsed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urljoin

from ..net.client import HttpClient
from ..net.message import Response
from ..net.resilience import _is_retryable
from ..rdf.document import ParsedDocument
from ..rdf.ntriples import NTriplesParseError, parse_nquads, parse_ntriples
from ..rdf.trig import parse_trig
from ..rdf.turtle import TurtleParseError, parse_turtle

__all__ = ["DereferenceError", "DereferenceResult", "Dereferencer"]


class DereferenceError(RuntimeError):
    """Raised in strict (non-lenient) mode when dereferencing fails."""

    def __init__(self, url: str, message: str) -> None:
        super().__init__(f"dereference failed for {url}: {message}")
        self.url = url


#: What a dereference that parsed nothing carries (the value is immutable).
_NO_DOCUMENT = ParsedDocument()

#: Redirects followed before a chain counts as a loop.
_MAX_REDIRECTS = 5


@dataclass(slots=True)
class DereferenceResult:
    """Outcome of dereferencing one URL."""

    url: str
    status: int
    #: What the body parsed into (empty for a failure or refusal).
    document: ParsedDocument = _NO_DOCUMENT
    error: str = ""
    #: Transient failure — retrying (or re-queueing the link) may succeed.
    retryable: bool = False
    #: Parse was skipped: ``document`` is the parsed-document store's own.
    from_store: bool = False
    #: Budget kind that refused this document (``"doc-bytes"`` when the
    #: client aborted the transfer at its read cap, ``"parse-bytes"``
    #: when the body arrived but exceeded the parse cap).  Empty for
    #: ordinary successes and failures.  Refusals are never retryable:
    #: the document will be over the cap on every retry too.
    refused: str = ""
    #: Bytes actually transferred for this document (at most the client
    #: read cap when the transfer was aborted) — what per-origin byte
    #: budgets are charged with.
    bytes_fetched: int = 0

    @property
    def ok(self) -> bool:
        return not self.error and 200 <= self.status < 300


class Dereferencer:
    """Fetch-and-parse with a uniform lenient-error contract.

    Built over the :class:`~repro.net.client.HttpClient` it fetches
    through (whose network policy it reads, never sets); owns ``lenient``,
    ``extra_headers`` — sent with every request, e.g. a Solid-OIDC session's
    — and the optional ``document_store``.
    """

    def __init__(
        self,
        client: HttpClient,
        lenient: bool = True,
        extra_headers: Optional[dict[str, str]] = None,
        document_store=None,
    ) -> None:
        self._client = client
        self._lenient = lenient
        self._extra_headers = dict(extra_headers or {})
        #: Optional :class:`~repro.service.docstore.DocumentStore` — the
        #: cross-query parsed-document cache.
        self.document_store = document_store

    @property
    def client(self) -> HttpClient:
        return self._client

    async def dereference(
        self,
        url: str,
        parent_url: Optional[str] = None,
        trace_parent=None,
        tracer=None,
        revalidate: bool = False,
        provenance=None,
        resilience=None,
        max_parse_bytes: Optional[int] = None,
    ) -> DereferenceResult:
        """Fetch ``url`` (fragment stripped), following redirects, and
        parse the RDF body.  The *final* URL becomes the base IRI and the
        document's provenance — e.g. a slash-less container URL 301s to
        the container, whose members then resolve correctly.
        With a ``tracer``, the fetch spans and the ``parse`` span nest
        under ``trace_parent``; ``tracer`` and ``resilience`` (the calling
        execution's :class:`~repro.net.resilience.ResilienceStats`) ride
        on to :meth:`~repro.net.client.HttpClient.fetch`.  A body larger than
        ``max_parse_bytes`` is refused (kind ``"parse-bytes"``) *before*
        decoding or tokenizing, so a hostile document cannot buy CPU with
        bytes; ``None`` / ``0`` disables the cap.
        ``revalidate=True`` forces a conditional request even while the
        HTTP cache still considers its copy fresh — the live-refresh path,
        where the point is to observe upstream change *now*.
        ``provenance`` (a :class:`~repro.ltqp.links.LinkProvenance`)
        tells this document's parse span why the link existed."""
        url, response, anomaly = await self._follow(
            url.split("#", 1)[0],
            parent_url,
            trace_parent=trace_parent,
            revalidate=revalidate,
            tracer=tracer,
            resilience=resilience,
        )
        if anomaly:
            return self._failure(url, response.status if response is not None else 0, anomaly)
        refusal = self._refusal(url, response, max_parse_bytes)
        if refusal is not None:
            return refusal
        store = self.document_store
        if store is not None:
            validator = store.validator_for(response)
            stored = store.lookup(url, validator)
            if stored is not None:
                return DereferenceResult(
                    url=url,
                    status=response.status,
                    document=stored.document,
                    from_store=True,
                    bytes_fetched=len(response.body),
                )
        parse_started = tracer.clock() if tracer is not None else 0.0
        error = ""
        try:
            document = _parse_body(url, response)
        except (TurtleParseError, NTriplesParseError, ValueError) as parse_error:
            error = f"parse error: {parse_error}"
        else:
            if document is None:
                return self._failure(
                    url, response.status, f"unsupported content type {response.content_type!r}"
                )
        if tracer is not None:
            if error:
                outcome = {"error": error}
            else:
                outcome = {"triples": len(document)}
                if provenance is not None:
                    outcome["discovered_via"] = provenance.describe()
            tracer.add(
                "parse",
                parse_started,
                tracer.clock(),
                parent=trace_parent,
                url=url,
                format=response.content_type,
                **outcome,
            )
        if error:
            return self._failure(url, response.status, error)
        if store is not None:
            store.put(url, validator, document)
        return DereferenceResult(
            url=url, status=response.status, document=document, bytes_fetched=len(response.body)
        )

    async def _follow(
        self, url: str, parent_url: Optional[str], **fetch
    ) -> tuple[str, Optional[Response], str]:
        """Fetch ``url`` and whatever it redirects to.  Returns the final
        URL and its response — or, for a redirect anomaly or an unfetchable
        URL, the URL it happened at, the response if there was one, and
        what went wrong.  ``fetch`` rides on to the client."""
        for _ in range(_MAX_REDIRECTS + 1):
            try:
                response = await self._client.fetch(
                    url, headers=self._extra_headers, parent_url=parent_url, **fetch
                )
            except ValueError as error:
                # An unsupported scheme or malformed URL is the same class
                # of lenient failure as a redirect loop — not a crash.
                return url, None, f"invalid URL: {error}"
            if response.status not in (301, 302, 303, 307, 308):
                return url, response, ""
            location = response.header("location")
            if not location:
                return url, response, "redirect without location"
            # Relative Location headers are legal (RFC 7231 §7.1.2).
            parent_url, url = url, urljoin(url, location).split("#", 1)[0]
        return url, None, "too many redirects"

    def _refusal(
        self, url: str, response: Response, max_parse_bytes: Optional[int]
    ) -> Optional[DereferenceResult]:
        """The failure a final response amounts to, if it is one: a dead
        connection, a read-cap abort, an HTTP error, a body over the parse
        cap.  ``None`` means the body is worth parsing."""
        if response.status == 0 and response.header("x-error") == "body-too-large":
            # The client aborted the transfer at its read cap.  This is a
            # policy refusal, not a network failure — and it is permanent:
            # the body is over the cap on every retry.
            try:
                fetched = min(
                    int(response.header("x-refused-bytes") or 0),
                    self._client.policy.max_response_bytes or 0,
                )
            except ValueError:
                fetched = 0
            return self._failure(
                url, 0, "refused: response body over read cap", refused="doc-bytes", bytes_fetched=fetched
            )
        if not response.ok:
            message = f"HTTP {response.status}" if response.status else "connection failed"
            return self._failure(
                url, response.status, message, retryable=_is_retryable(response)
            )
        body_bytes = len(response.body)
        if max_parse_bytes and body_bytes > max_parse_bytes:
            # Checked on the raw byte length before any decode/tokenize
            # work — an oversized document costs O(1) CPU to refuse.
            return self._failure(
                url,
                response.status,
                f"refused: document of {body_bytes} bytes over parse cap",
                refused="parse-bytes",
                bytes_fetched=body_bytes,
            )
        return None

    def _failure(self, url: str, status: int, message: str, **fields) -> DereferenceResult:
        """The lenient contract's one exit: an empty result carrying the
        error (and any ``retryable`` / ``refused`` / ``bytes_fetched``)."""
        if not self._lenient:
            raise DereferenceError(url, message)
        return DereferenceResult(url=url, status=status, error=message, **fields)


def _parse_body(url: str, response: Response) -> Optional[ParsedDocument]:
    """What an RDF body parses into, by content type; ``None`` for a type
    that is not RDF.  ``url`` is the base IRI."""
    content_type = response.content_type
    if content_type not in _RDF_CONTENT_TYPES:
        return None
    # The blank-node namespace is a function of the document URL alone:
    # distinct per document (no collisions in the growing source), and
    # the same in every parse, process and service lifetime — so a
    # live re-diff of an edited document stays minimal, and a parse
    # restored from a persistent store or adopted from another worker
    # can never share labels with a fresh parse of a different URL.
    bnode_prefix = f"d{hashlib.sha1(url.encode('utf-8')).hexdigest()[:16]}_"
    text = response.text
    if content_type == "application/n-triples":
        return ParsedDocument(parse_ntriples(text, bnode_prefix))
    # Named graphs inside a fetched document flatten into the document's
    # triples (the source keys provenance by URL).
    if content_type == "application/n-quads":
        return ParsedDocument(quad.triple for quad in parse_nquads(text, bnode_prefix))
    if content_type == "application/trig":
        return ParsedDocument(
            quad.triple for quad in parse_trig(text, base_iri=url, bnode_prefix=bnode_prefix)
        )
    return ParsedDocument(parse_turtle(text, base_iri=url, bnode_prefix=bnode_prefix))


#: The bodies :func:`_parse_body` reads; any other type is not RDF.
_RDF_CONTENT_TYPES = frozenset(
    {
        "text/turtle",
        "",
        "text/plain",
        "application/trig",
        "application/n-triples",
        "application/n-quads",
    }
)
