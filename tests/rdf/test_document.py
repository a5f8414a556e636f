"""Unit tests for the parsed-document value."""

from repro.rdf import Literal, NamedNode, ParsedDocument, Triple


def t(subject: int, predicate: str) -> Triple:
    return Triple(NamedNode(f"http://x/s{subject}"), NamedNode(f"http://x/{predicate}"), Literal("o"))


P, Q, R = (NamedNode(f"http://x/{name}") for name in "pqr")


class TestParsedDocument:
    def test_triples_keep_document_order_and_duplicates(self):
        document = ParsedDocument([t(2, "p"), t(1, "q"), t(2, "p")])
        assert document.triples == (t(2, "p"), t(1, "q"), t(2, "p"))
        assert list(document) == list(document.triples) and len(document) == 3
        assert document.distinct == 2

    def test_select_merges_buckets_in_document_order(self):
        document = ParsedDocument([t(1, "q"), t(2, "p"), t(3, "r"), t(4, "q"), t(5, "p")])
        assert document.select([P]) == [t(2, "p"), t(5, "p")]
        assert document.select({P, Q}) == [t(1, "q"), t(2, "p"), t(4, "q"), t(5, "p")]
        assert document.select([NamedNode("http://x/absent")]) == document.select(()) == []
        assert set(document.predicates) == {P, Q, R}

    def test_the_index_is_built_once_and_on_first_use(self):
        document = ParsedDocument([t(1, "p"), t(2, "q")])
        assert document._positions is None  # nobody has asked yet
        document.select([P])
        index = document._positions
        document.select([Q]), document.predicates, document.select([P, Q])
        assert document._positions is index

    def test_it_is_a_value(self):
        one, same = ParsedDocument([t(1, "p")]), ParsedDocument(iter([t(1, "p")]))
        same.select([P])  # the index is not part of the value
        assert one == same and hash(one) == hash(same)
        assert one != ParsedDocument([t(2, "p")]) and one != [t(1, "p")]
        assert ParsedDocument() == ParsedDocument([]) and ParsedDocument().distinct == 0
