"""Unit tests for Triple, Quad, and TriplePattern."""

import pytest

from repro.rdf import BlankNode, Literal, NamedNode, Quad, Triple, TriplePattern, Variable


def n(suffix: str) -> NamedNode:
    return NamedNode(f"http://x/{suffix}")


class TestTriple:
    def test_iteration_order(self):
        t = Triple(n("s"), n("p"), Literal("o"))
        assert list(t) == [n("s"), n("p"), Literal("o")]

    def test_ntriples_rendering(self):
        t = Triple(n("s"), n("p"), Literal("o"))
        assert t.to_ntriples() == '<http://x/s> <http://x/p> "o" .'

    def test_hashable(self):
        assert len({Triple(n("s"), n("p"), n("o")), Triple(n("s"), n("p"), n("o"))}) == 1


class TestQuad:
    def test_triple_projection(self):
        q = Quad(n("s"), n("p"), n("o"), n("g"))
        assert q.triple == Triple(n("s"), n("p"), n("o"))
        assert q.triple == Triple(*q[:3])

    def test_unpacks_as_its_four_fields(self):
        s, p, o, g = Quad(n("s"), n("p"), n("o"), n("g"))
        assert (s, p, o, g) == (n("s"), n("p"), n("o"), n("g"))
        assert list(Quad(n("s"), n("p"), n("o"))) == [n("s"), n("p"), n("o"), None]

    def test_a_triple_never_equals_a_quad(self):
        triple = Triple(n("s"), n("p"), n("o"))
        assert triple != Quad(*triple)
        assert triple != Quad(*triple, n("g"))
        assert len({triple, Quad(*triple)}) == 2

    def test_nquads_rendering_with_and_without_graph(self):
        with_graph = Quad(n("s"), n("p"), n("o"), n("g"))
        without = Quad(n("s"), n("p"), n("o"))
        assert with_graph.to_nquads().endswith("<http://x/g> .")
        assert without.to_nquads().endswith("<http://x/o> .")


class TestTriplePattern:
    def test_variables(self):
        p = TriplePattern(Variable("s"), n("p"), Variable("o"))
        assert p.variables() == {Variable("s"), Variable("o")}

    def test_matches_with_variables_as_wildcards(self):
        p = TriplePattern(Variable("s"), n("p"), None)
        assert p.matches(Triple(n("a"), n("p"), Literal("x")))
        assert not p.matches(Triple(n("a"), n("q"), Literal("x")))

    def test_matches_concrete_terms(self):
        p = TriplePattern(n("a"), n("p"), Literal("x"))
        assert p.matches(Triple(n("a"), n("p"), Literal("x")))
        assert not p.matches(Triple(n("a"), n("p"), Literal("y")))

    def test_str_rendering(self):
        p = TriplePattern(None, n("p"), Variable("o"))
        assert str(p) == "_ <http://x/p> ?o"


class TestHashedInC:
    """Statements and terms hash, compare and iterate without calling back
    into Python: statements are tuples, terms compare by identity."""

    @pytest.mark.parametrize("statement", [Triple, Quad, TriplePattern])
    @pytest.mark.parametrize("method", ["__hash__", "__eq__", "__iter__"])
    def test_statements_inherit_from_tuple(self, statement, method):
        assert getattr(statement, method) is getattr(tuple, method)

    @pytest.mark.parametrize("term", [NamedNode, BlankNode, Literal, Variable])
    @pytest.mark.parametrize("method", ["__hash__", "__eq__"])
    def test_terms_inherit_from_object(self, term, method):
        assert getattr(term, method) is getattr(object, method)
