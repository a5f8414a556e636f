"""Tests for DESCRIBE queries (concise bounded descriptions)."""

import pytest

from repro.rdf import BlankNode, Graph, NamedNode, Variable, parse_turtle
from repro.sparql import SparqlParseError, evaluate_query, parse_query

DATA = """
@prefix ex: <http://x/> .
ex:a ex:p ex:b ;
     ex:q [ ex:r 1 ; ex:s [ ex:t 2 ] ] .
ex:b ex:p ex:c ; ex:label "B" .
ex:c ex:p ex:a .
"""


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


@pytest.fixture(scope="module")
def graph():
    return Graph(parse_turtle(DATA))


class TestParsing:
    def test_describe_iri(self):
        query = parse_query("DESCRIBE <http://x/a>")
        assert query.form == "DESCRIBE"
        assert query.describe_targets == (n("a"),)

    def test_describe_multiple_targets(self):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE ex:a ex:b")
        assert len(query.describe_targets) == 2

    def test_describe_variable_with_where(self):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE ?x WHERE { ?x ex:p ex:c }")
        assert query.describe_targets == (Variable("x"),)

    def test_describe_star(self):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE * WHERE { ?x ex:p ?y }")
        assert query.describe_targets == ()

    def test_describe_without_targets_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("DESCRIBE WHERE { ?x ?p ?o }")


class TestEvaluation:
    def test_cbd_includes_blank_node_closure(self, graph):
        triples = evaluate_query(graph, parse_query("DESCRIBE <http://x/a>"))
        subjects = {t.subject for t in triples}
        # a's direct triples plus the nested blank node descriptions.
        assert n("a") in subjects
        assert sum(1 for s in subjects if isinstance(s, BlankNode)) == 2
        assert len(triples) == 5

    def test_cbd_stops_at_named_nodes(self, graph):
        triples = evaluate_query(graph, parse_query("DESCRIBE <http://x/a>"))
        # b's own triples are not part of a's description.
        assert not any(t.subject == n("b") for t in triples)

    def test_describe_variable_binds_through_where(self, graph):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE ?x WHERE { ?x ex:p ex:c }")
        triples = evaluate_query(graph, query)
        assert {t.subject for t in triples} == {n("b")}
        assert len(triples) == 2

    def test_describe_star_describes_all_bound_resources(self, graph):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE * WHERE { ex:c ex:p ?y }")
        triples = evaluate_query(graph, query)
        assert any(t.subject == n("a") for t in triples)

    def test_describe_unknown_resource_is_empty(self, graph):
        assert evaluate_query(graph, parse_query("DESCRIBE <http://x/nothing>")) == []

    def test_duplicate_descriptions_merged(self, graph):
        query = parse_query("PREFIX ex: <http://x/> DESCRIBE ex:a ex:a")
        triples = evaluate_query(graph, query)
        assert len(triples) == len(set(triples))


class TestEngineIntegration:
    def test_describe_over_traversal(self, tiny_universe):
        engine = tiny_universe.fast_engine()
        webid = tiny_universe.webid(0)
        result = engine.query(f"DESCRIBE <{webid}>").run_sync()
        assert len(result) > 0
        # DESCRIBE is monotonic: CBD triples stream as roots are discovered.
        assert result.stats.streaming
        subjects = {
            timed.binding[Variable("subject")] for timed in result.results
        }
        assert NamedNode(webid) in subjects

    def test_describe_target_becomes_seed(self, tiny_universe):
        from repro.ltqp import LinkTraversalEngine
        from repro.sparql import parse_query as pq

        webid = tiny_universe.webid(1)
        seeds = LinkTraversalEngine.seeds_from_query(pq(f"DESCRIBE <{webid}>"))
        assert seeds == [webid]
