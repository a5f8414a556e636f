"""Unit tests for the snapshot evaluator."""

from collections import Counter

import pytest

from repro.rdf import Dataset, Graph, Literal, NamedNode, Quad, Triple, Variable, parse_turtle
from repro.sparql import SnapshotEvaluator, evaluate_query, parse_query
from repro.sparql.bindings import Binding

DATA = """
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/> .
ex:alice foaf:name "Alice" ; foaf:knows ex:bob, ex:carol ; ex:age 30 .
ex:bob   foaf:name "Bob" ;   foaf:knows ex:carol ;         ex:age 25 .
ex:carol foaf:name "Carol" ;                               ex:age 35 .
ex:dave  foaf:name "Dave" .
"""

PREFIXES = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nPREFIX ex: <http://example.org/>\n"


@pytest.fixture(scope="module")
def graph():
    return Graph(parse_turtle(DATA))


def rows(graph, text):
    return evaluate_query(graph, parse_query(PREFIXES + text))


def values(graph, text, variable):
    return sorted(
        binding[Variable(variable)].value
        for binding in rows(graph, text)
        if Variable(variable) in binding
    )


class TestBGP:
    def test_single_pattern(self, graph):
        assert values(graph, "SELECT ?n WHERE { ex:alice foaf:name ?n }", "n") == ["Alice"]

    def test_join_two_patterns(self, graph):
        result = values(
            graph, "SELECT ?n WHERE { ex:alice foaf:knows ?f . ?f foaf:name ?n }", "n"
        )
        assert result == ["Bob", "Carol"]

    def test_no_match(self, graph):
        assert rows(graph, "SELECT ?x WHERE { ex:nobody foaf:name ?x }") == []

    def test_empty_bgp_yields_one_empty_solution(self, graph):
        assert len(rows(graph, "SELECT * WHERE { }")) == 1

    def test_shared_variable_in_one_pattern(self, graph):
        # ?x knows ?x: nobody knows themself.
        assert rows(graph, "SELECT ?x WHERE { ?x foaf:knows ?x }") == []

    def test_integer_object_before_the_triple_dot(self, graph):
        # "30." is the integer 30 and the end of the triple, not 30.0.
        assert values(graph, "SELECT ?n WHERE { ?p ex:age 30. ?p foaf:name ?n }", "n") == ["Alice"]

    def test_variable_predicate(self, graph):
        predicates = values(graph, "SELECT ?p WHERE { ex:dave ?p ?o }", "p")
        assert predicates == ["http://xmlns.com/foaf/0.1/name"]


class TestFilters:
    def test_numeric_filter(self, graph):
        result = values(graph, "SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER(?a > 26) }", "n")
        assert result == ["Alice", "Carol"]

    def test_filter_error_drops_solution(self, graph):
        # Dave has no age; comparing unbound errors → dropped, not crash.
        result = values(
            graph,
            "SELECT ?n WHERE { ?p foaf:name ?n OPTIONAL { ?p ex:age ?a } FILTER(?a > 26) }",
            "n",
        )
        assert result == ["Alice", "Carol"]

    def test_regex_filter(self, graph):
        result = values(graph, 'SELECT ?n WHERE { ?p foaf:name ?n FILTER REGEX(?n, "^[AB]") }', "n")
        assert result == ["Alice", "Bob"]


class TestOptional:
    def test_optional_keeps_unmatched(self, graph):
        result = rows(
            graph, "SELECT ?n ?f WHERE { ?p foaf:name ?n OPTIONAL { ?p foaf:knows ?f } }"
        )
        names_without_friends = [
            b[Variable("n")].value for b in result if Variable("f") not in b
        ]
        assert sorted(names_without_friends) == ["Carol", "Dave"]

    def test_optional_with_condition(self, graph):
        result = rows(
            graph,
            "SELECT ?n ?a WHERE { ?p foaf:name ?n OPTIONAL { ?p ex:age ?a FILTER(?a > 28) } }",
        )
        bound = {b[Variable("n")].value for b in result if Variable("a") in b}
        assert bound == {"Alice", "Carol"}
        assert len(result) == 4  # everyone appears


class TestUnionMinus:
    def test_union(self, graph):
        result = values(
            graph,
            "SELECT ?x WHERE { { ex:alice foaf:knows ?x } UNION { ex:bob foaf:knows ?x } }",
            "x",
        )
        assert result == [
            "http://example.org/bob",
            "http://example.org/carol",
            "http://example.org/carol",
        ]

    def test_minus(self, graph):
        result = values(
            graph,
            "SELECT ?x WHERE { ?x ex:age ?a MINUS { ?x foaf:knows ex:carol } }",
            "x",
        )
        assert result == ["http://example.org/carol"]

    def test_minus_no_shared_variables_removes_nothing(self, graph):
        result = rows(graph, "SELECT ?x WHERE { ?x ex:age ?a MINUS { ?y foaf:name \"Zed\" } }")
        assert len(result) == 3


class TestModifiers:
    def test_order_by_desc_with_limit(self, graph):
        result = rows(graph, "SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a } ORDER BY DESC(?a) LIMIT 2")
        assert [b[Variable("n")].value for b in result] == ["Carol", "Alice"]

    def test_offset(self, graph):
        result = rows(graph, "SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1")
        assert [b[Variable("n")].value for b in result] == ["Bob", "Carol"]

    def test_distinct(self, graph):
        result = rows(graph, "SELECT DISTINCT ?o WHERE { ?s foaf:knows ?o }")
        assert len(result) == 2

    def test_projection_drops_other_variables(self, graph):
        result = rows(graph, "SELECT ?n WHERE { ?p foaf:name ?n }")
        assert all(set(b.keys()) == {Variable("n")} for b in result)

    def test_bind(self, graph):
        result = rows(graph, "SELECT ?next WHERE { ex:alice ex:age ?a BIND(?a + 1 AS ?next) }")
        assert result[0][Variable("next")].value == "31"

    def test_values_join(self, graph):
        result = values(
            graph,
            "SELECT ?n WHERE { VALUES ?p { ex:alice ex:bob } ?p foaf:name ?n }",
            "n",
        )
        assert result == ["Alice", "Bob"]


class TestAggregatesEndToEnd:
    def test_count_group(self, graph):
        result = rows(
            graph, "SELECT ?p (COUNT(?f) AS ?c) WHERE { ?p foaf:knows ?f } GROUP BY ?p"
        )
        counts = {b[Variable("p")].value.rsplit("/", 1)[-1]: b[Variable("c")].value for b in result}
        assert counts == {"alice": "2", "bob": "1"}

    def test_global_count(self, graph):
        result = rows(graph, "SELECT (COUNT(*) AS ?n) WHERE { ?s foaf:name ?o }")
        assert result[0][Variable("n")].value == "4"

    def test_avg(self, graph):
        result = rows(graph, "SELECT (AVG(?a) AS ?avg) WHERE { ?p ex:age ?a }")
        assert result[0][Variable("avg")].value == "30"

    def test_min_max_sum(self, graph):
        result = rows(
            graph,
            "SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?total) WHERE { ?p ex:age ?a }",
        )
        binding = result[0]
        assert binding[Variable("lo")].value == "25"
        assert binding[Variable("hi")].value == "35"
        assert binding[Variable("total")].value == "90"

    def test_having(self, graph):
        result = rows(
            graph,
            "SELECT ?p (COUNT(?f) AS ?c) WHERE { ?p foaf:knows ?f } GROUP BY ?p HAVING (COUNT(?f) > 1)",
        )
        assert len(result) == 1
        assert result[0][Variable("p")] == NamedNode("http://example.org/alice")

    def test_group_concat(self, graph):
        result = rows(
            graph,
            'SELECT (GROUP_CONCAT(?n; SEPARATOR=", ") AS ?all) WHERE { ?p foaf:name ?n } ORDER BY ?n',
        )
        names = set(result[0][Variable("all")].value.split(", "))
        assert names == {"Alice", "Bob", "Carol", "Dave"}

    def test_sample(self, graph):
        result = rows(graph, "SELECT (SAMPLE(?n) AS ?one) WHERE { ?p foaf:name ?n }")
        assert result[0][Variable("one")].value in {"Alice", "Bob", "Carol", "Dave"}

    def test_count_distinct(self, graph):
        result = rows(graph, "SELECT (COUNT(DISTINCT ?o) AS ?c) WHERE { ?s foaf:knows ?o }")
        assert result[0][Variable("c")].value == "2"


class TestAggregatesAreGroupVariables:
    """Aggregates anywhere in HAVING, a SELECT expression or ORDER BY, pinned
    to answers worked out by hand — not to the oracle, which shares the
    parser — from the oracle and from the pipeline, one-shot and live."""

    PREFIX = "PREFIX ex: <http://ex/>\n"
    #: ``ex:a`` holds 1 and 2, ``ex:b`` 5; ``extra`` adds a third value to
    #: ``ex:a`` that the live run then retracts.
    DOCUMENTS = {
        "https://h/a": "<http://ex/a> <http://ex/p> 1, 2 .",
        "https://h/b": "<http://ex/b> <http://ex/p> 5 .",
    }
    EXTRA = ("https://h/extra", "<http://ex/a> <http://ex/p> 3 .")
    GROUPED = "WHERE { ?s ex:p ?v } GROUP BY ?s"

    def answers(self, text, documents):
        """The rows of ``text`` over ``documents`` from the oracle, a
        one-shot pipeline, and a live pipeline after ``EXTRA`` is retracted;
        each as a list of ``{variable: IRI tail or literal}`` rows."""
        from repro.ltqp.pipeline import compile_query_pipeline
        from repro.ltqp.source import GrowingTripleSource
        from repro.rdf import ParsedDocument

        query = parse_query(self.PREFIX + text)
        parsed = {url: ParsedDocument(parse_turtle(body)) for url, body in documents.items()}
        oracle = evaluate_query(Graph(t for doc in parsed.values() for t in doc.triples), query)

        one_shot, source = compile_query_pipeline(query), GrowingTripleSource()
        for url, document in parsed.items():
            source.put_document(url, document)
        pipeline_rows = one_shot.finalize(source.dataset)

        live, source = compile_query_pipeline(query, live=True), GrowingTripleSource()
        extra_url, extra_body = self.EXTRA
        for url, document in {**parsed, extra_url: ParsedDocument(parse_turtle(extra_body))}.items():
            source.put_document(url, document)
        maintained = Counter(live.finalize(source.dataset))
        source.put_document(extra_url, None)
        for binding, count in live.poll_changes(source.dataset):
            maintained[binding] += count
        live_rows = list((+maintained).elements())

        def row(binding):
            return {variable.value: term.value.rsplit("/", 1)[-1] for variable, term in binding.items()}

        return [list(map(row, rows)) for rows in (oracle, pipeline_rows, live_rows)]

    def assert_rows(self, text, expected, documents=None):
        def canonical(rows):
            return sorted(sorted(r.items()) for r in rows)

        for rows in self.answers(text, documents or self.DOCUMENTS):
            assert canonical(rows) == canonical(expected), text

    @pytest.mark.parametrize(
        "having",
        ["(COUNT(?v) > 1 && SUM(?v) < 10)", "(COUNT(?v) IN (2, 3))", "(!(COUNT(?v) = 1))"],
    )
    def test_having_over_aggregates_under_any_operator(self, having):
        self.assert_rows(f"SELECT ?s {self.GROUPED} HAVING {having}", [{"s": "a"}])

    def test_an_aggregate_under_a_unary_minus(self):
        self.assert_rows(
            f"SELECT ?s (-SUM(?v) AS ?n) {self.GROUPED}", [{"s": "a", "n": "-3"}, {"s": "b", "n": "-5"}]
        )

    @pytest.mark.parametrize(
        "expression,value",
        [("COALESCE(MAX(?nope), 0)", "0"), ("IF(BOUND(?nope), MAX(?nope), -1)", "-1")],
    )
    def test_an_aggregate_error_is_an_ordinary_expression_error(self, expression, value):
        self.assert_rows(
            f"SELECT ?s ({expression} AS ?m) {self.GROUPED}",
            [{"s": "a", "m": value}, {"s": "b", "m": value}],
        )

    def test_a_select_expression_reads_an_earlier_alias(self):
        self.assert_rows(
            f"SELECT ?s (COUNT(?v) AS ?c) (?c * 2 AS ?d) {self.GROUPED}",
            [{"s": "a", "c": "2", "d": "4"}, {"s": "b", "c": "1", "d": "2"}],
        )

    def test_order_by_desc_of_an_aggregate(self):
        documents = {**self.DOCUMENTS, "https://h/c": "<http://ex/c> <http://ex/p> 7, 8, 9 ."}
        oracle, one_shot, live = self.answers(
            f"SELECT ?s {self.GROUPED} ORDER BY DESC(COUNT(?v))", documents
        )
        assert oracle == one_shot == [{"s": "c"}, {"s": "a"}, {"s": "b"}]
        # Signed changes carry no order: the live run is checked as a multiset.
        assert sorted(r["s"] for r in live) == ["a", "b", "c"]

    def test_a_nested_aggregate_is_a_parse_error(self):
        from repro.sparql import SparqlParseError

        with pytest.raises(SparqlParseError):
            parse_query(self.PREFIX + f"SELECT (SUM(COUNT(?v)) AS ?n) {self.GROUPED}")


class TestExists:
    def test_filter_exists(self, graph):
        result = values(
            graph,
            "SELECT ?n WHERE { ?p foaf:name ?n FILTER EXISTS { ?p foaf:knows ?x } }",
            "n",
        )
        assert result == ["Alice", "Bob"]

    def test_filter_not_exists(self, graph):
        result = values(
            graph,
            "SELECT ?n WHERE { ?p foaf:name ?n FILTER NOT EXISTS { ?p foaf:knows ?x } }",
            "n",
        )
        assert result == ["Carol", "Dave"]

    def test_correlated_filter_inside_exists(self, graph):
        # The oldest: nobody's age exceeds theirs.  ``?a`` is the outer one.
        result = values(
            graph,
            "SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a "
            "FILTER NOT EXISTS { ?q ex:age ?b FILTER(?b > ?a) } }",
            "n",
        )
        assert result == ["Carol"]

    def test_sub_select_keeps_its_unprojected_variables(self, graph):
        # The sub-select projects ?x only: its ?p is not the outer ?p.
        result = values(
            graph,
            "SELECT ?n WHERE { ?p foaf:name ?n "
            "FILTER EXISTS { { SELECT ?x WHERE { ?p foaf:knows ?x } } } }",
            "n",
        )
        assert result == ["Alice", "Bob", "Carol", "Dave"]


class TestExistsSubstitutesEveryOccurrence:
    """``a p b`` and ``c p d`` in g1, ``a q "1"`` in g2: of the two ``?s``,
    only ``a`` has a ``q`` — in any graph — and ``c`` has none."""

    @pytest.fixture(scope="class")
    def dataset(self):
        x = lambda name: NamedNode(f"http://x/{name}")  # noqa: E731
        ds = Dataset()
        ds.add(Quad(x("a"), x("p"), x("b"), x("g1")))
        ds.add(Quad(x("c"), x("p"), x("d"), x("g1")))
        ds.add(Quad(x("a"), x("q"), Literal("1"), x("g2")))
        return ds

    def subjects(self, dataset, exists):
        query = parse_query(
            "PREFIX : <http://x/>\n"
            f"SELECT ?s WHERE {{ GRAPH ?h {{ ?s :p ?o }} FILTER {exists} }}"
        )
        return sorted(b[Variable("s")].value.rsplit("/", 1)[-1] for b in evaluate_query(dataset, query))

    def test_inside_a_graph_pattern(self, dataset):
        assert self.subjects(dataset, "EXISTS { GRAPH ?g { ?s :q ?v } }") == ["a"]

    def test_under_a_bind(self, dataset):
        assert self.subjects(dataset, "EXISTS { ?s :q ?v BIND(1 AS ?k) }") == ["a"]

    def test_under_a_minus(self, dataset):
        assert self.subjects(dataset, "NOT EXISTS { ?s :q ?v MINUS { ?s :zz ?w } }") == ["c"]

    def test_under_the_solution_modifiers(self, dataset):
        assert self.subjects(
            dataset, "EXISTS { { SELECT DISTINCT ?s WHERE { ?s :q ?v } ORDER BY ?v LIMIT 5 } }"
        ) == ["a"]

    def test_a_graph_name_the_outer_row_binds(self, dataset):
        # ``a`` has its ``p`` in g1 and its ``q`` in g2: not in one graph.
        assert self.subjects(dataset, "EXISTS { GRAPH ?h { ?s :q ?v } }") == []

    def test_values_rows_that_disagree_are_dropped(self, dataset):
        assert self.subjects(dataset, "EXISTS { VALUES ?s { :c :e } }") == ["c"]


class TestAskConstruct:
    def test_ask_true_false(self, graph):
        assert evaluate_query(graph, parse_query(PREFIXES + "ASK { ex:alice foaf:knows ex:bob }"))
        assert not evaluate_query(graph, parse_query(PREFIXES + "ASK { ex:bob foaf:knows ex:alice }"))

    def test_construct(self, graph):
        triples = evaluate_query(
            graph,
            parse_query(PREFIXES + "CONSTRUCT { ?b ex:knownBy ?a } WHERE { ?a foaf:knows ?b }"),
        )
        assert Triple(
            NamedNode("http://example.org/bob"),
            NamedNode("http://example.org/knownBy"),
            NamedNode("http://example.org/alice"),
        ) in triples
        assert len(triples) == 3

    def test_construct_skips_unbound(self, graph):
        triples = evaluate_query(
            graph,
            parse_query(
                PREFIXES
                + "CONSTRUCT { ?p ex:friend ?f } WHERE { ?p foaf:name ?n OPTIONAL { ?p foaf:knows ?f } }"
            ),
        )
        subjects = {t.subject.value.rsplit("/", 1)[-1] for t in triples}
        assert subjects == {"alice", "bob"}


class TestGraphQueries:
    def test_named_graph_pattern(self):
        ds = Dataset()
        ds.add(Quad(NamedNode("http://x/a"), NamedNode("http://x/p"), Literal("1"), NamedNode("http://g/1")))
        ds.add(Quad(NamedNode("http://x/b"), NamedNode("http://x/p"), Literal("2"), NamedNode("http://g/2")))
        query = parse_query("SELECT ?g ?s WHERE { GRAPH ?g { ?s <http://x/p> ?o } }")
        result = evaluate_query(ds, query)
        graphs = {b[Variable("g")].value for b in result}
        assert graphs == {"http://g/1", "http://g/2"}

    def test_specific_graph(self):
        ds = Dataset()
        ds.add(Quad(NamedNode("http://x/a"), NamedNode("http://x/p"), Literal("1"), NamedNode("http://g/1")))
        query = parse_query("SELECT ?s WHERE { GRAPH <http://g/1> { ?s ?p ?o } }")
        assert len(evaluate_query(ds, query)) == 1
        query_missing = parse_query("SELECT ?s WHERE { GRAPH <http://g/9> { ?s ?p ?o } }")
        assert evaluate_query(ds, query_missing) == []

    def test_graph_requires_dataset(self, graph):
        query = parse_query("SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }")
        with pytest.raises(ValueError):
            evaluate_query(graph, query)


class TestSubSelect:
    def test_nested_limit(self, graph):
        query = parse_query(
            PREFIXES
            + "SELECT ?n WHERE { { SELECT ?p WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 1 } ?p foaf:name ?n }"
        )
        result = evaluate_query(graph, query)
        assert [b[Variable("n")].value for b in result] == ["Carol"]
