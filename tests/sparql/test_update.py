"""Unit tests for SPARQL Update parsing and application."""

import pytest

from repro.rdf import BlankNode, Graph, Literal, NamedNode, Triple, parse_turtle
from repro.rdf.terms import XSD_INTEGER
from repro.sparql.parser import SparqlParseError
from repro.sparql.update import (
    DeleteData,
    DeleteWhere,
    InsertData,
    Modify,
    apply_update,
    parse_update,
)

EX = "PREFIX ex: <http://x/>\n"


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


@pytest.fixture()
def graph():
    return Graph(
        parse_turtle(
            """
            @prefix ex: <http://x/> .
            ex:a ex:p ex:b ; ex:q "old" .
            ex:b ex:p ex:c .
            """
        )
    )


class TestParsing:
    def test_insert_data(self):
        ops = parse_update(EX + "INSERT DATA { ex:a ex:p ex:b . ex:a ex:q 5 }")
        assert len(ops) == 1 and isinstance(ops[0], InsertData)
        assert len(ops[0].triples) == 2

    def test_delete_data(self):
        ops = parse_update(EX + 'DELETE DATA { ex:a ex:q "old" }')
        assert isinstance(ops[0], DeleteData)

    def test_delete_where(self):
        ops = parse_update(EX + "DELETE WHERE { ?s ex:p ?o }")
        assert isinstance(ops[0], DeleteWhere)
        assert len(ops[0].patterns) == 1

    def test_modify(self):
        ops = parse_update(
            EX + 'DELETE { ?s ex:q "old" } INSERT { ?s ex:q "new" } WHERE { ?s ex:q "old" }'
        )
        op = ops[0]
        assert isinstance(op, Modify)
        assert op.delete_template and op.insert_template and op.where

    def test_insert_where_without_delete(self):
        ops = parse_update(EX + "INSERT { ?s ex:r ?o } WHERE { ?s ex:p ?o }")
        op = ops[0]
        assert isinstance(op, Modify) and op.delete_template == ()

    def test_multiple_operations_separated_by_semicolons(self):
        ops = parse_update(
            EX + "INSERT DATA { ex:a ex:p ex:b } ; DELETE DATA { ex:a ex:p ex:c }"
        )
        assert len(ops) == 2

    def test_prefixes_expand(self):
        ops = parse_update(EX + "INSERT DATA { ex:a ex:p ex:b }")
        assert ops[0].triples[0].subject == n("a")

    def test_variables_rejected_in_data_block(self):
        with pytest.raises(SparqlParseError):
            parse_update(EX + "INSERT DATA { ?s ex:p ex:b }")

    def test_blank_nodes_allowed_in_insert_data(self):
        ops = parse_update(EX + "INSERT DATA { _:x ex:p ex:b }")
        from repro.rdf import BlankNode

        assert isinstance(ops[0].triples[0].subject, BlankNode)

    def test_empty_update_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_update(EX)


class TestApplication:
    def test_insert_data(self, graph):
        before = len(graph)
        counts = apply_update(graph, parse_update(EX + "INSERT DATA { ex:z ex:p ex:w }"))
        assert counts == {"added": 1, "removed": 0}
        assert len(graph) == before + 1

    def test_insert_is_idempotent(self, graph):
        update = parse_update(EX + "INSERT DATA { ex:a ex:p ex:b }")
        counts = apply_update(graph, update)
        assert counts["added"] == 0  # triple already present

    def test_delete_data(self, graph):
        counts = apply_update(graph, parse_update(EX + 'DELETE DATA { ex:a ex:q "old" }'))
        assert counts["removed"] == 1
        assert Triple(n("a"), n("q"), Literal("old")) not in graph

    def test_delete_where_removes_all_instantiations(self, graph):
        counts = apply_update(graph, parse_update(EX + "DELETE WHERE { ?s ex:p ?o }"))
        assert counts["removed"] == 2
        assert list(graph.match(None, n("p"), None)) == []

    def test_modify_rewrites_values(self, graph):
        update = parse_update(
            EX + 'DELETE { ?s ex:q "old" } INSERT { ?s ex:q "new" } WHERE { ?s ex:q "old" }'
        )
        counts = apply_update(graph, update)
        assert counts == {"added": 1, "removed": 1}
        assert graph.value(n("a"), n("q"), None) == Literal("new")

    def test_insert_where_copies_pattern(self, graph):
        update = parse_update(EX + "INSERT { ?o ex:invP ?s } WHERE { ?s ex:p ?o }")
        counts = apply_update(graph, update)
        assert counts["added"] == 2
        assert Triple(n("b"), n("invP"), n("a")) in graph

    def test_sequence_applied_in_order(self, graph):
        updates = parse_update(
            EX + "INSERT DATA { ex:t ex:p ex:u } ; DELETE DATA { ex:t ex:p ex:u }"
        )
        counts = apply_update(graph, updates)
        assert counts == {"added": 1, "removed": 1}
        assert Triple(n("t"), n("p"), n("u")) not in graph


class TestTemplateBlankNodes:
    """An INSERT template's blank nodes are fresh per solution, new to the
    graph, and labelled the same way on every run."""

    UPDATE = EX + "INSERT { ?s ex:has [ ex:r 1 ] } WHERE { ?s ex:p ?o }"

    def made(self, graph):
        return sorted(graph.objects(None, n("has")), key=lambda node: node.value)

    def test_each_solution_gets_its_own_blank_node(self, graph):
        counts = apply_update(graph, parse_update(self.UPDATE))
        assert counts == {"added": 4, "removed": 0}  # two solutions, two triples each
        made = self.made(graph)
        assert len(made) == 2 and all(isinstance(node, BlankNode) for node in made)
        assert [graph.value(node, n("r"), None) for node in made] == [Literal("1", datatype=XSD_INTEGER)] * 2
        assert {graph.value(None, n("has"), node) for node in made} == {n("a"), n("b")}

    def test_a_second_update_does_not_merge_with_the_first(self, graph):
        apply_update(graph, parse_update(self.UPDATE))
        assert apply_update(graph, parse_update(self.UPDATE))["added"] == 4
        assert len(self.made(graph)) == 4

    def test_labels_avoid_the_graph_and_do_not_depend_on_the_run(self, graph):
        graph.add(Triple(BlankNode("u0_0"), n("q"), Literal("taken")))
        twin = graph.copy()
        apply_update(graph, parse_update(self.UPDATE))
        apply_update(twin, parse_update(self.UPDATE))
        assert BlankNode("u0_0") not in self.made(graph)
        assert set(graph) == set(twin)

    def test_delete_templates_still_match_the_where_blank_nodes(self, graph):
        counts = apply_update(graph, parse_update(EX + "DELETE WHERE { ?s ex:p [] }"))
        assert counts["removed"] == 2
