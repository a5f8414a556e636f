"""Unit tests for the TriG parser."""

import pytest

from repro.rdf import Dataset, Literal, NamedNode, Quad, Triple
from repro.rdf.trig import parse_trig
from repro.rdf.turtle import TurtleParseError


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


class TestTriG:
    def test_default_graph_plain_statement(self):
        quads = parse_trig("<http://x/a> <http://x/p> <http://x/b> .")
        assert quads == [Quad(n("a"), n("p"), n("b"), None)]

    def test_default_graph_block(self):
        quads = parse_trig("{ <http://x/a> <http://x/p> 1 . <http://x/b> <http://x/p> 2 }")
        assert len(quads) == 2
        assert all(q.graph is None for q in quads)

    def test_labelled_graph_block(self):
        quads = parse_trig("<http://x/g> { <http://x/a> <http://x/p> <http://x/b> }")
        assert quads[0].graph == n("g")

    def test_graph_keyword(self):
        quads = parse_trig("GRAPH <http://x/g> { <http://x/a> <http://x/p> 1 . }")
        assert quads[0].graph == n("g")

    def test_prefixed_graph_label(self):
        text = "@prefix ex: <http://x/> . ex:g { ex:a ex:p ex:b }"
        quads = parse_trig(text)
        assert quads[0].graph == n("g")

    def test_prefixed_subject_not_mistaken_for_label(self):
        text = "@prefix ex: <http://x/> . ex:a ex:p ex:b ."
        quads = parse_trig(text)
        assert quads[0].graph is None
        assert quads[0].subject == n("a")

    def test_mixed_document(self):
        text = """
        @prefix ex: <http://x/> .
        ex:a ex:p 1 .
        ex:g1 { ex:a ex:p 2 . ex:b ex:p 3 }
        GRAPH ex:g2 { ex:c ex:p 4 }
        { ex:d ex:p 5 }
        """
        quads = parse_trig(text)
        graphs = [q.graph for q in quads]
        assert graphs == [None, n("g1"), n("g1"), n("g2"), None]

    def test_optional_trailing_dot_inside_block(self):
        with_dot = parse_trig("<http://x/g> { <http://x/a> <http://x/p> 1 . }")
        without = parse_trig("<http://x/g> { <http://x/a> <http://x/p> 1 }")
        assert with_dot == without

    def test_turtle_abbreviations_inside_block(self):
        text = "<http://x/g> { <http://x/a> <http://x/p> 1, 2 ; <http://x/q> [ <http://x/r> 3 ] }"
        quads = parse_trig(text)
        assert len(quads) == 4
        assert all(q.graph == n("g") for q in quads)

    def test_base_resolution_applies(self):
        quads = parse_trig("<g> { <a> <p> <b> }", base_iri="http://host/dir/")
        assert quads[0].graph == NamedNode("http://host/dir/g")
        assert quads[0].subject == NamedNode("http://host/dir/a")

    def test_quads_load_into_dataset(self):
        quads = parse_trig("<http://x/g> { <http://x/a> <http://x/p> 1 }")
        dataset = Dataset()
        dataset.update(quads)
        assert dataset.has_graph(n("g"))
        assert len(dataset.union) == 1

    def test_unterminated_block_raises(self):
        with pytest.raises(TurtleParseError):
            parse_trig("<http://x/g> { <http://x/a> <http://x/p> 1 ")

    def test_empty_block(self):
        assert parse_trig("<http://x/g> { }") == []
