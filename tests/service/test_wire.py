"""Tests for the process-portable wire forms (results + documents)."""

import pytest

from repro.ltqp.stats import TimedResult
from repro.rdf.terms import BlankNode, Literal, NamedNode, Variable, intern_iri
from repro.rdf.document import ParsedDocument
from repro.rdf.triples import Triple
from repro.service.docstore import StoredDocument
from repro.service.wire import (
    decode_results,
    decode_term,
    document_from_wire,
    document_to_wire,
    encode_results,
    encode_term,
)
from repro.sparql.bindings import Binding

ALICE = NamedNode("https://solidbench.example/pods/alice/profile#me")
NAME = NamedNode("https://example.org/name")


def binding(**pairs):
    return Binding(tuple((Variable(k), v) for k, v in pairs.items()))


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
        back = decode_term(encode_term(term))
        assert back == term
        assert type(back) is type(term)

    def test_decoded_iri_is_interned(self):
        back = decode_term(encode_term(NamedNode("https://a.example/pool")))
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

    def test_payload_written_before_links_were_dropped_still_decodes(self):
        # A store file persisted by an older build carries a "links" list
        # in every document payload; it must reopen warm, not fail.
        document = self.make_document()
        old_payload = dict(document_to_wire(document), links=[document.url])
        assert document_from_wire(old_payload, stored_at=document.stored_at) == document

    def test_import_into_store_counts_no_parse(self):
        from repro.service.docstore import DocumentStore

        document = self.make_document()
        store = DocumentStore()
        store.adopt(document_from_wire(document_to_wire(document)))
        assert store.parses == 0
        assert store.lookup(document.url, document.validator) is not None
        assert store.hits == 1
