"""Round-trip tests: every RDF term shape through the storage codec.

The persistence tier serializes parsed documents via the term-table wire
codec (:mod:`repro.service.wire`) and HTTP cache entries via a JSON
envelope.  These tests push each through a *real* SQLite reopen — the
exact path a warm restart takes — and assert term-level equality, so an
encoding bug in any surface form (language tags, datatypes, blank
nodes, embedded quotes/newlines) cannot hide behind the in-memory LRU.
"""

import time

from repro.net.cache import CacheEntry, HttpCache, decode_cache_entry, encode_cache_entry
from repro.net.message import Response
from repro.rdf.terms import (
    XSD_DATETIME,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Literal,
    NamedNode,
)
from repro.rdf.triples import Triple
from repro.service.docstore import (
    DocumentStore,
    decode_stored_document,
    encode_stored_document,
)
from repro.storage import SqliteBackend

EX = "https://pod.example/profile/card#"


def iri(suffix):
    return NamedNode(EX + suffix)


TERM_SHAPE_TRIPLES = [
    Triple(iri("me"), iri("name"), Literal("Zulma")),
    Triple(iri("me"), iri("name"), Literal("Çınar Ağaçlı", language="tr")),
    Triple(iri("me"), iri("bio"), Literal("line one\nline \"two\"\ttab\\slash", language="en-GB")),
    Triple(iri("me"), iri("age"), Literal("42", datatype=XSD_INTEGER)),
    Triple(iri("me"), iri("score"), Literal("6.02E23", datatype=XSD_DOUBLE)),
    Triple(iri("me"), iri("born"), Literal("1990-05-04T12:30:00Z", datatype=XSD_DATETIME)),
    Triple(BlankNode("b0"), iri("knows"), BlankNode("b1")),
    Triple(iri("me"), iri("address"), BlankNode("addr")),
    Triple(iri("me"), iri("homepage"), NamedNode("https://example.org/päge?q=a&b=c#frag")),
    Triple(iri("me"), iri("note"), Literal("x" * 5000)),  # long literal
]


class TestDocumentCodec:
    def test_every_term_shape_round_trips(self):
        store = DocumentStore()
        document = store.put("https://pod.example/doc", 'W/"v1"', TERM_SHAPE_TRIPLES)
        decoded = decode_stored_document(encode_stored_document(document))
        assert decoded.url == document.url
        assert decoded.validator == document.validator
        assert decoded.document.triples == tuple(TERM_SHAPE_TRIPLES)

    def test_age_survives_the_clock_translation(self):
        store = DocumentStore()
        document = store.put("https://pod.example/doc", "sha1:abc", TERM_SHAPE_TRIPLES)
        decoded = decode_stored_document(encode_stored_document(document))
        # Persisted entries carry wall-clock stamps; the decoded monotonic
        # stored_at must reconstruct (approximately) the same age.
        assert abs(decoded.stored_at - document.stored_at) < 2.0


class TestDocumentStoreRestart:
    URL = "https://pod.example/profile/card"

    def _warm_store(self, path):
        backend = SqliteBackend(path)
        store = DocumentStore(backend=backend)
        store.put(self.URL, 'W/"v1"', TERM_SHAPE_TRIPLES)
        backend.close()

    def test_lookup_hits_across_restart(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        self._warm_store(path)

        backend = SqliteBackend(path)
        try:
            store = DocumentStore(backend=backend)
            assert len(store) == 1
            document = store.lookup(self.URL, 'W/"v1"')
            assert document is not None
            assert store.hits == 1
            assert document.document.triples == tuple(TERM_SHAPE_TRIPLES)
            assert document.validator == 'W/"v1"'
        finally:
            backend.close()

    def test_validator_keyed_invalidation_after_restart(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        self._warm_store(path)

        backend = SqliteBackend(path)
        try:
            store = DocumentStore(backend=backend)
            # The document changed upstream while we were down: the
            # revalidation machinery now presents a different validator.
            assert store.lookup(self.URL, 'W/"v2"') is None
            assert store.invalidations == 1 and store.misses == 1
            # The stale entry is gone from both tiers — the next lookup
            # is an ordinary cold miss (re-parse path).
            assert self.URL not in store
            assert store.lookup(self.URL, 'W/"v2"') is None
            assert store.invalidations == 1  # no double-count
        finally:
            backend.close()

    def test_validator_digest_form_survives(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        validator = DocumentStore.validator_for(Response(200, {}, b"body-bytes"))
        assert validator.startswith("sha1:")
        store = DocumentStore(backend=backend)
        store.put(self.URL, validator, TERM_SHAPE_TRIPLES[:2])
        backend.close()

        reopened = SqliteBackend(path)
        try:
            assert DocumentStore(backend=reopened).lookup(self.URL, validator) is not None
        finally:
            reopened.close()


class TestCacheEntryCodec:
    def _entry(self, max_age=300.0):
        response = Response(
            200,
            {"content-type": "text/turtle", "etag": '"v1"'},
            "décodage \n\"quoted\"".encode("utf-8"),
        )
        return CacheEntry(
            response=response,
            etag='"v1"',
            stored_at=time.monotonic(),
            max_age=max_age,
        )

    def test_round_trip(self):
        entry = self._entry()
        decoded = decode_cache_entry(encode_cache_entry(entry))
        assert decoded.etag == entry.etag
        assert decoded.max_age == entry.max_age
        assert decoded.response.status == 200
        assert decoded.response.headers == entry.response.headers
        assert decoded.response.body == entry.response.body

    def test_freshness_window_survives(self):
        fresh = decode_cache_entry(encode_cache_entry(self._entry(max_age=300.0)))
        assert fresh.is_fresh()
        stale = decode_cache_entry(encode_cache_entry(self._entry(max_age=0.0)))
        assert not stale.is_fresh()


class TestHttpCacheRestart:
    def test_lookup_across_restart(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        cache = HttpCache(default_max_age=300, backend=backend)
        cache.store(
            "https://pod.example/doc",
            Response(200, {"etag": '"v1"'}, b"payload"),
        )
        backend.close()

        reopened = SqliteBackend(path)
        try:
            warm = HttpCache(default_max_age=300, backend=reopened)
            assert len(warm) == 1
            entry = warm.lookup("https://pod.example/doc")
            assert entry is not None
            assert entry.response.body == b"payload"
            assert entry.etag == '"v1"'
            # Stored moments ago: still inside its freshness window, so a
            # warm restart serves it without touching the network at all.
            assert entry.is_fresh()
        finally:
            reopened.close()

    def test_both_tiers_share_one_file(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            cache = HttpCache(backend=backend)
            store = DocumentStore(backend=backend)
            cache.store("https://pod.example/doc", Response(200, {}, b"x"))
            store.put("https://pod.example/doc", "v", TERM_SHAPE_TRIPLES[:1])
            assert backend.namespaces() == {"http": 1, "documents": 1}
        finally:
            backend.close()


class TestBlankNodesAcrossLifetimes:
    """A document restored from the store and one parsed fresh in a later
    lifetime must not share blank-node labels: the label namespace is a
    function of the document URL, not of a per-process parse counter."""

    QUERY = (
        'SELECT ?s WHERE { ?s <https://h.example/p> "a" . ?s <https://h.example/p> "b" }'
    )

    def _lifetime(self, internet, store_path, seeds):
        import asyncio

        from repro.net import NoLatency
        from repro.service import QueryService, SharedResources

        resources = SharedResources(internet, latency=NoLatency(), store_path=store_path)
        try:
            service = QueryService(resources)
            return asyncio.run(service.run(self.QUERY, seeds=seeds))
        finally:
            resources.close()

    def test_restored_and_fresh_documents_do_not_share_labels(self, tmp_path):
        from repro.net import Internet, StaticApp

        app = StaticApp()
        app.put("/a", '_:x <https://h.example/p> "a" .')
        app.put("/b", '_:x <https://h.example/p> "b" .')
        internet = Internet()
        internet.register("https://h.example", app)
        seeds = ["https://h.example/a", "https://h.example/b"]
        store_path = str(tmp_path / "store.sqlite")

        one_lifetime = self._lifetime(internet, str(tmp_path / "other.sqlite"), seeds)
        assert one_lifetime.bindings == []  # two documents, two distinct nodes

        self._lifetime(internet, store_path, seeds[:1])  # lifetime 1 stores /a
        second = self._lifetime(internet, store_path, seeds)  # restores /a, parses /b
        assert second.stats.documents_from_store == 1
        assert second.bindings == []



class TestUndecodableEntriesAreMisses:
    """A stored value the decoder rejects is dropped, counted and answered
    as a miss: one bad row never breaks a lookup, and the caller re-fetches."""

    URL = "https://pod.example/doc"

    def test_corrupt_document_row(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            store = DocumentStore(backend=backend)
            backend.put("documents", self.URL, b"{not json")
            assert store.lookup(self.URL, "v") is None
            assert store.misses == 1
            assert store.statistics()["storage"]["discarded"] == 1
            assert backend.get("documents", self.URL) is None
            # The re-parse stores the document again, and it reads back.
            store.put(self.URL, "v", TERM_SHAPE_TRIPLES)
            assert store.tier.peek(self.URL).document.triples == tuple(TERM_SHAPE_TRIPLES)
        finally:
            backend.close()

    def test_corrupt_rows_are_skipped_by_peek_and_entries(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            store = DocumentStore(backend=backend)
            store.put(self.URL, "v", TERM_SHAPE_TRIPLES[:1])
            backend.put("documents", self.URL + "/bad", b"\xff\xfe")
            backend.put("documents", self.URL + "/worse", b"garbage")
            assert store.tier.peek(self.URL + "/bad") is None
            assert [entry.url for entry in store.entries()] == [self.URL]
            assert store.tier.statistics()["discarded"] == 2
            assert backend.namespaces() == {"documents": 1}
        finally:
            backend.close()

    def test_corrupt_http_row(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            cache = HttpCache(backend=backend)
            backend.put("http", self.URL, b"\x00garbage")
            assert cache.lookup(self.URL) is None
            assert cache.statistics()["storage"]["discarded"] == 1
            assert self.URL not in cache
        finally:
            backend.close()

    def test_http_entry_in_an_older_form_is_a_miss(self, tmp_path):
        # The body as base64 inside one JSON object, no form marker.
        import base64
        import json

        older = {
            "status": 200,
            "headers": {"etag": '"v1"'},
            "body": base64.b64encode(b"payload").decode("ascii"),
            "etag": '"v1"',
            "max_age": 300.0,
            "stored_wall": time.time(),
        }
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            cache = HttpCache(backend=backend)
            backend.put("http", self.URL, json.dumps(older).encode("utf-8"))
            assert cache.lookup(self.URL) is None
            assert cache.statistics()["storage"]["discarded"] == 1
        finally:
            backend.close()
