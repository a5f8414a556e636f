"""Unit tests for the Turtle parser."""

import asyncio
from collections import Counter

import pytest

from repro.rdf import (
    BlankNode,
    Literal,
    NamedNode,
    RDF,
    Triple,
    TurtleParseError,
    TurtleParser,
    parse_turtle,
)
from repro.net import Request
from repro.rdf.terms import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER


def triples_of(text: str, base: str = "") -> list[Triple]:
    return parse_turtle(text, base_iri=base)


class TestDirectives:
    def test_prefix_directive(self):
        ts = triples_of("@prefix ex: <http://x/> . ex:a ex:p ex:b .")
        assert ts == [Triple(NamedNode("http://x/a"), NamedNode("http://x/p"), NamedNode("http://x/b"))]

    def test_sparql_style_prefix_without_dot(self):
        ts = triples_of("PREFIX ex: <http://x/>\nex:a ex:p ex:b .")
        assert len(ts) == 1

    def test_base_resolution(self):
        ts = triples_of("@base <http://host/dir/> . <doc> <p> <../up> .")
        assert ts[0].subject == NamedNode("http://host/dir/doc")
        assert ts[0].object == NamedNode("http://host/up")

    def test_external_base_parameter(self):
        ts = triples_of("<> <p> <child> .", base="http://host/container/")
        assert ts[0].subject == NamedNode("http://host/container/")
        assert ts[0].object == NamedNode("http://host/container/child")

    def test_empty_prefix(self):
        ts = triples_of("@prefix : <http://x/> . :a :p :b .")
        assert ts[0].subject == NamedNode("http://x/a")

    def test_undefined_prefix_raises(self):
        with pytest.raises(TurtleParseError):
            triples_of("ex:a ex:p ex:b .")


class TestTermSyntax:
    def test_a_keyword(self):
        ts = triples_of("<http://x/s> a <http://x/C> .")
        assert ts[0].predicate == RDF.type

    def test_literal_with_language(self):
        ts = triples_of('<http://x/s> <http://x/p> "hallo"@de .')
        assert ts[0].object == Literal("hallo", language="de")

    def test_literal_with_datatype_iri(self):
        ts = triples_of('<http://x/s> <http://x/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert ts[0].object == Literal("5", datatype=XSD_INTEGER)

    def test_literal_with_prefixed_datatype(self):
        text = (
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> . "
            '<http://x/s> <http://x/p> "5"^^xsd:integer .'
        )
        assert triples_of(text)[0].object == Literal("5", datatype=XSD_INTEGER)

    @pytest.mark.parametrize(
        "token,datatype",
        [("42", XSD_INTEGER), ("-3", XSD_INTEGER), ("4.5", XSD_DECIMAL), ("1e3", XSD_DOUBLE)],
    )
    def test_numeric_shorthand(self, token, datatype):
        ts = triples_of(f"<http://x/s> <http://x/p> {token} .")
        assert ts[0].object.datatype == datatype

    def test_boolean_shorthand(self):
        ts = triples_of("<http://x/s> <http://x/p> true, false .")
        assert {t.object.value for t in ts} == {"true", "false"}
        assert all(t.object.datatype == XSD_BOOLEAN for t in ts)

    def test_long_string_with_newlines(self):
        ts = triples_of('<http://x/s> <http://x/p> """line1\nline2""" .')
        assert ts[0].object.value == "line1\nline2"

    def test_single_quoted_string(self):
        ts = triples_of("<http://x/s> <http://x/p> 'hi' .")
        assert ts[0].object == Literal("hi")

    def test_escapes_in_string(self):
        ts = triples_of('<http://x/s> <http://x/p> "tab\\there" .')
        assert ts[0].object.value == "tab\there"

    def test_comments_ignored(self):
        ts = triples_of("# leading comment\n<http://x/s> <http://x/p> 1 . # trailing")
        assert len(ts) == 1


class TestAbbreviations:
    def test_predicate_object_lists(self):
        ts = triples_of("<http://x/s> <http://x/p> 1 ; <http://x/q> 2, 3 .")
        assert len(ts) == 3

    def test_trailing_semicolon_allowed(self):
        ts = triples_of("<http://x/s> <http://x/p> 1 ; .")
        assert len(ts) == 1

    def test_blank_node_labels_are_stable_within_document(self):
        ts = triples_of("_:a <http://x/p> _:b . _:a <http://x/q> _:b .")
        assert ts[0].subject == ts[1].subject
        assert ts[0].object == ts[1].object

    def test_blank_node_labels_differ_across_parsers(self):
        first = parse_turtle("_:a <http://x/p> 1 .", bnode_prefix="x")
        second = parse_turtle("_:a <http://x/p> 1 .", bnode_prefix="y")
        assert first[0].subject != second[0].subject

    def test_anonymous_blank_node_property_list(self):
        ts = triples_of("<http://x/s> <http://x/p> [ <http://x/q> 1 ] .")
        assert len(ts) == 2
        inner = [t for t in ts if t.predicate == NamedNode("http://x/q")][0]
        assert isinstance(inner.subject, BlankNode)

    def test_collection(self):
        ts = triples_of("<http://x/s> <http://x/p> (1 2) .")
        firsts = [t for t in ts if t.predicate == RDF.first]
        rests = [t for t in ts if t.predicate == RDF.rest]
        assert len(firsts) == 2
        assert rests[-1].object == RDF.nil

    def test_empty_collection_is_nil(self):
        ts = triples_of("<http://x/s> <http://x/p> () .")
        assert ts[0].object == RDF.nil


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<http://x/s> <http://x/p> .",  # missing object
            '<http://x/s> <http://x/p> "unterminated .',
            "<http://x/s> <http://x/p> 1",  # missing dot
            "<http://x/s> <http://x/p> 1 . <http://x/s>",  # dangling subject
        ],
    )
    def test_malformed_documents_raise(self, bad):
        with pytest.raises(TurtleParseError):
            triples_of(bad)

    def test_error_carries_position(self):
        try:
            triples_of("<http://x/s>\n<http://x/p> .")
        except TurtleParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected TurtleParseError")

    def test_parser_exposes_collected_prefixes(self):
        parser = TurtleParser("@prefix ex: <http://x/> . ex:a ex:p 1 .")
        parser.parse()
        assert parser.prefixes == {"ex": "http://x/"}


class TestGrammar:
    """Cases of the Turtle grammar that the terminals decide."""

    def test_integer_before_the_statement_dot(self):
        # DECIMAL needs a digit after its ".": "1." is INTEGER 1, then ".".
        ts = triples_of("<http://x/s> <http://x/p> 1.")
        one = Literal("1", datatype=XSD_INTEGER)
        assert ts == [Triple(NamedNode("http://x/s"), NamedNode("http://x/p"), one)]

    @pytest.mark.parametrize(
        "token,datatype",
        [("1.e3", XSD_DOUBLE), (".5", XSD_DECIMAL), ("+4.0", XSD_DECIMAL), ("-2E-2", XSD_DOUBLE)],
    )
    def test_numeric_forms(self, token, datatype):
        ts = triples_of(f"<http://x/s> <http://x/p> {token}.")
        assert ts[0].object == Literal(token, datatype=datatype)

    def test_repeated_semicolons(self):
        ts = triples_of("<http://x/s> <http://x/p> <http://x/o> ;; <http://x/q> <http://x/r> ; ; .")
        assert [t.predicate for t in ts] == [NamedNode("http://x/p"), NamedNode("http://x/q")]

    def test_local_name_escapes(self):
        ts = triples_of("@prefix ex: <http://x/> . ex:a\\-b ex:p ex:c\\.d, ex:e\\~ .")
        assert ts[0].subject == NamedNode("http://x/a-b")
        assert [t.object for t in ts] == [NamedNode("http://x/c.d"), NamedNode("http://x/e~")]

    def test_local_name_dots_and_percent_encodings(self):
        ts = triples_of("@prefix ex: <http://x/> . ex:a.b ex:p ex:c%20d.")
        assert ts[0].subject == NamedNode("http://x/a.b")
        assert ts[0].object == NamedNode("http://x/c%20d")

    def test_a_prefixed_name_is_read_whole(self):
        # "ex:a" is one name, not "ex:" followed by the keyword "a".
        with pytest.raises(TurtleParseError):
            triples_of("@prefix ex: <http://x/> . ex:a ex:p .")

    def test_nested_lists_and_brackets(self):
        ts = triples_of("<http://x/s> <http://x/p> ( [ <http://x/q> ( ) ] ( 1 ) ) .")
        assert len(ts) == 8  # 1 inside [ ], 2 for ( 1 ), 4 for the outer list, 1 for it
        assert ts[-1].subject == NamedNode("http://x/s")

    def test_anonymous_blank_nodes_are_counted_in_document_order(self):
        ts = parse_turtle("[ <http://x/p> [] ] <http://x/q> ( 1 ) .", bnode_prefix="n")
        assert [t.subject.value for t in ts] == ["n1", "n3", "n3", "n1"]
        assert ts[0].object == BlankNode("n2")


class TestErrorPositions:
    """Where each malformed document is reported: a table of line and
    column per input, unchanged across rewrites of the parser."""

    TABLE = [
        ('<http://x/s> <http://x/p> .', 1, 28),
        ('<http://x/s> <http://x/p> "unterminated .', 1, 27),
        ('<http://x/s> <http://x/p> 1', 1, 28),
        ('<http://x/s> <http://x/p> 1 . <http://x/s>', 1, 43),
        ('<http://x/s>\n<http://x/p> .', 2, 15),
        ('ex:a ex:p ex:b .', 1, 4),
        ('@prefix ex: <http://x/> .\nex:a ex:p ex:b .\nex:a nope:p ex:b .', 3, 11),
        ('@prefix ex: <http://x/>', 1, 24),
        ('@prefix ex: <http://x/> ex:a ex:p ex:b .', 1, 25),
        ('@prefix ex: http://x/ .', 1, 13),
        ('@base http://x/ .', 1, 7),
        ('<http://x/s> <http://x/p> <http://x/o>', 1, 39),
        ('<http://x/s> <http://x/p> <http://x/o> ;', 1, 41),
        ('<http://x/s> <http://x/p> <http://x/o> ,', 1, 41),
        ('<http://x/s> <http://x/p> <http://x/o> <http://x/q> .', 1, 40),
        ('<http://x/s> <http://x/p> [ <http://x/q> 1 .', 1, 44),
        ('<http://x/s> <http://x/p> [ <http://x/q> 1 ] ]', 1, 46),
        ('<http://x/s> <http://x/p> ( 1 2 .', 1, 34),
        ('<http://x/s> <http://x/p> (1 2', 1, 31),
        ('<http://x/s> <http://x/p> <http://x/o> . ]', 1, 42),
        ('<http://x/s> <http://x/p> """never closed .', 1, 27),
        ("<http://x/s> <http://x/p> 'single\n' .", 1, 27),
        ('<http://x/s>\n  <http://x/p>\n    "a"@ .', 3, 8),
        ('<http://x/s> <http://x/p> <bad iri> .', 1, 27),
        ('<http://x/s> <http://x/p> <http://x/o> .\n\n# comment\n<http://x/s> <http://x/p>', 4, 26),
        ('"literal" <http://x/p> <http://x/o> .', 1, 1),
        ('<http://x/s> "lit" <http://x/o> .', 1, 14),
        ('<http://x/s> <http://x/p> @x .', 1, 27),
        ('<http://x/s> <http://x/p> 1 ;\n  <http://x/q> .', 2, 17),
        ('<http://x/s> <http://x/p> _:b1 ,\n  .', 2, 4),
        ('[ <http://x/p> 1 ', 1, 18),
        ('<http://x/s> <http://x/p> { } .', 1, 27),
        ('<http://x/s> <http://x/p> ) .', 1, 27),
        ('<http://x/s> a .', 1, 17),
        ('a <http://x/p> <http://x/o> .', 1, 2),
        ('<http://x/s> <http://x/p> <http://x/o> . .', 1, 43),
        ('PREFIX ex: <http://x/>\nex:a ex:p .', 2, 12),
        ('<http://x/s> <http://x/p> "x"^^<http://x/dt .', 1, 32),
        ('_: <http://x/p> 1 .', 1, 1),
        ('<http://x/s> <http://x/p> - .', 1, 28),
        ('<http://x/s> <http://x/p> tru .', 1, 30),
        ('<http://x/s> <http://x/p> "x"^^ .', 1, 32),
        ('@prefix ex <http://x/> .', 1, 11),
        ('@prefix : <http://x/> .\n:a :b :c ;\n   :d .', 3, 8),
    ]

    @pytest.mark.parametrize("text,line,column", TABLE)
    def test_position(self, text, line, column):
        with pytest.raises(TurtleParseError) as raised:
            parse_turtle(text)
        assert (raised.value.line, raised.value.column) == (line, column)


class TestServedCorpus:
    def test_every_served_document_parses_to_its_pod_triples(self, small_universe):
        """Each document and container listing the universe's server renders
        parses back to exactly the triples its pod holds."""

        async def fetch_all():
            served = []
            for pod in small_universe.pods.values():
                for path in sorted(set(pod.document_paths()) | pod.container_paths()):
                    url = pod.document_url(path)
                    response = await small_universe.internet.dispatch(Request("GET", url, {}, b""))
                    assert response.status == 200, url
                    document = pod.document(path)
                    if document is None:
                        held = pod.container_triples(path)
                    else:
                        held = document.triples
                    served.append((url, response.text, held))
            return served

        served = asyncio.run(fetch_all())
        assert len(served) > 3000
        for url, text, held in served:
            assert Counter(parse_turtle(text, base_iri=url, bnode_prefix="")) == Counter(held), url
