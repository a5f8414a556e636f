"""Tests for the process-portable wire forms (results + documents)."""

import json

import pytest

from repro.ltqp.live import ResultChange
from repro.ltqp.stats import TimedResult
from repro.rdf.terms import (
    RDF_LANGSTRING,
    XSD_DATETIME,
    XSD_INTEGER,
    BlankNode,
    Literal,
    NamedNode,
    Variable,
    intern_iri,
)
from repro.rdf.document import ParsedDocument
from repro.rdf.triples import Triple
from repro.service.docstore import (
    DocumentStore,
    StoredDocument,
    decode_stored_document,
    encode_stored_document,
)
from repro.service.wire import (
    decode_events,
    decode_results,
    document_from_wire,
    document_to_wire,
    encode_events,
    encode_results,
)
from repro.storage import SqliteBackend
from repro.sparql.bindings import Binding

ALICE = NamedNode("https://solidbench.example/pods/alice/profile#me")
NAME = NamedNode("https://example.org/name")


def binding(**pairs):
    return Binding(tuple((Variable(k), v) for k, v in pairs.items()))


def term_roundtrip(term):
    """One term through a result block's term table and back."""
    block = encode_results([TimedResult(binding(x=term), 0.0)])
    return decode_results(block)[0].binding[Variable("x")]


class TestTermCodec:
    @pytest.mark.parametrize(
        "term",
        [
            NamedNode("https://a.example/x"),
            BlankNode("b0"),
            Literal("plain"),
            Literal("hallo", language="nl"),
            Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Variable("name"),
        ],
    )
    def test_roundtrip(self, term):
        back = term_roundtrip(term)
        assert back == term
        assert type(back) is type(term)

    def test_decoded_iri_is_interned(self):
        back = term_roundtrip(NamedNode("https://a.example/pool"))
        assert back is intern_iri("https://a.example/pool")


class TestResultCodec:
    def test_bindings_roundtrip_with_dedup(self):
        rows = [
            TimedResult(binding(s=ALICE, name=Literal("Alice")), 0.01),
            TimedResult(binding(s=ALICE, name=Literal("Bob")), 0.02),
        ]
        block = encode_results(rows)
        # ALICE appears twice but travels once.
        assert len(block["terms"]) == 3
        back = decode_results(block)
        assert [t.binding for t in back] == [t.binding for t in rows]
        assert [t.elapsed for t in back] == [0.01, 0.02]

    def test_heterogeneous_rows_pad_unbound(self):
        rows = [
            TimedResult(binding(s=ALICE), 0.0),
            TimedResult(binding(s=ALICE, name=Literal("Alice")), 0.0),
        ]
        back = decode_results(encode_results(rows))
        assert len(back[0].binding) == 1
        assert len(back[1].binding) == 2

    def test_empty(self):
        assert decode_results(encode_results([])) == []

    def test_ask_empty_binding_roundtrip(self):
        rows = [TimedResult(Binding(()), 0.0)]
        back = decode_results(encode_results(rows))
        assert back[0].binding == Binding(())


class TestDocumentWire:
    def make_document(self):
        triples = (
            Triple(ALICE, NAME, Literal("Alice")),
            Triple(ALICE, NamedNode("https://example.org/knows"),
                   NamedNode("https://solidbench.example/pods/bob/profile#me")),
        )
        return StoredDocument(
            url="https://solidbench.example/pods/alice/profile",
            validator='W/"abc123"',
            document=ParsedDocument(triples),
            stored_at=12.5,
        )

    def test_roundtrip_preserves_identity(self):
        document = self.make_document()
        back = document_from_wire(document_to_wire(document))
        assert back.url == document.url
        # The validator is the 304-revalidation key: it must survive the
        # handoff byte-for-byte or the importing shard re-parses everything.
        assert back.validator == document.validator
        assert back.document == document.document

    def test_payload_in_a_form_this_build_does_not_write_is_a_miss(self, tmp_path):
        # An older build persisted N-Triples term strings ("<iri>", "\"lit\"")
        # in its term tables, with or without a "links" list.  Read as
        # tagged terms they would be IRIs named "<iri>": such a payload
        # must be dropped and re-fetched, never decoded into a document.
        document = self.make_document()
        old = {
            "url": document.url,
            "validator": document.validator,
            "terms": [f"<{ALICE.value}>", f"<{NAME.value}>", '"Alice"'],
            "rows": [[0, 1, 2]],
            "stored_wall": 0.0,
        }
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            store = DocumentStore(backend=backend)
            for payload in (old, dict(old, links=[document.url])):
                backend.put("documents", document.url, json.dumps(payload).encode("utf-8"))
                assert store.lookup(document.url, document.validator) is None
                assert document.url not in store
            assert store.tier.statistics()["discarded"] == 2
            assert store.hits == 0 and store.misses == 2
        finally:
            backend.close()

    def test_import_into_store_counts_no_parse(self):
        document = self.make_document()
        store = DocumentStore()
        store.adopt(document_from_wire(document_to_wire(document)))
        assert store.parses == 0
        assert store.lookup(document.url, document.validator) is not None
        assert store.hits == 1


#: Terms whose values are built to trip a codec that reads surface syntax:
#: every one must come back equal and of the same class through every block.
ADVERSARIAL_TERMS = [
    NamedNode("https://a.example/päge/日本?q=a&b=c#frag"),
    NamedNode("https://a.example/caf%C3%A9/%3Cx%3E"),
    NamedNode('https://a.example/odd"quote\\back>angle'),
    Literal('say "hi"'),
    Literal("back\\slash \\u0041 \\n"),
    Literal("line\nbreak\ttab\rreturn"),
    Literal(""),
    Literal("https://a.example/looks-like-an-iri"),
    Literal("<https://a.example/x>"),
    Literal("@en"),
    Literal("_:b0"),
    Literal("?x"),
    Literal('"quoted"@en'),
    Literal('{"_": "b0"}'),
    Literal("Çınar Ağaçlı ✓ \U0001F600"),
    Literal("hallo", language="nl"),
    Literal("colour", language="en-GB"),
    Literal("", language="en"),
    Literal("42", datatype=XSD_INTEGER),
    Literal("1990-05-04T12:30:00Z", datatype=XSD_DATETIME),
    Literal("<x>", datatype="https://a.example/dt#odd"),
    Literal("bare", datatype=RDF_LANGSTRING),
    BlankNode("b0"),
    BlankNode("dabc123_0"),
    BlankNode("https://a.example/bnode-label"),
]
SUBJECT = NamedNode("https://a.example/s")
PREDICATE = NamedNode("https://a.example/p")


class TestAdversarialTerms:
    def assert_same(self, back):
        assert back == ADVERSARIAL_TERMS
        assert [type(term) for term in back] == [type(term) for term in ADVERSARIAL_TERMS]
        for term, original in zip(back, ADVERSARIAL_TERMS):
            if isinstance(original, NamedNode):
                assert term is intern_iri(original.value)

    def stored(self):
        triples = [Triple(SUBJECT, PREDICATE, term) for term in ADVERSARIAL_TERMS]
        return StoredDocument("https://a.example/doc", 'W/"1"', ParsedDocument(triples), 0.0)

    def test_document_block(self):
        back = document_from_wire(json.loads(json.dumps(document_to_wire(self.stored()))))
        self.assert_same([triple.object for triple in back.document.triples])

    def test_result_rows(self):
        rows = [TimedResult(binding(x=term), 0.0) for term in ADVERSARIAL_TERMS]
        back = decode_results(json.loads(json.dumps(encode_results(rows))))
        self.assert_same([row.binding[Variable("x")] for row in back])

    def test_events(self):
        events = [
            ResultChange(seq=seq, binding=binding(x=term), delta=-1, url="https://a.example/doc")
            for seq, term in enumerate(ADVERSARIAL_TERMS)
        ]
        back = decode_events(json.loads(json.dumps(encode_events(events))))
        assert back == events
        self.assert_same([event.binding[Variable("x")] for event in back])

    def test_sqlite_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        document = self.stored()
        DocumentStore(backend=backend).adopt(document)
        backend.close()
        reopened = SqliteBackend(path)
        try:
            back = DocumentStore(backend=reopened).lookup(document.url, document.validator)
            self.assert_same([triple.object for triple in back.document.triples])
        finally:
            reopened.close()


def test_every_served_document_round_trips_to_its_parsed_triples(small_universe):
    from repro.rdf.turtle import parse_turtle

    checked = 0
    for pod in small_universe.pods.values():
        for path in sorted(set(pod.document_paths()) | pod.container_paths()):
            url = pod.document_url(path)
            triples = parse_turtle(pod.serialize_document(path), base_iri=url, bnode_prefix="d_")
            stored = StoredDocument(url, "v", ParsedDocument(triples), 0.0)
            back = decode_stored_document(encode_stored_document(stored))
            assert back.document.triples == stored.document.triples, url
            checked += 1
    assert checked > 3000
