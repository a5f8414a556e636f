"""Unit tests for the incremental pipelined operators."""

import pytest

from repro.ltqp.explain import _PHYSICAL_LABELS
from repro.ltqp.pipeline import (
    ExistsFilterNode,
    ExtendNode,
    FilterNode,
    GroupAggregateNode,
    IncrementalNode,
    LeftJoinNode,
    NotStreamable,
    OrderSliceNode,
    RederivedNode,
    _walk,
    compile_pipeline,
)
from repro.rdf import Dataset, Literal, NamedNode, Quad, Variable
from repro.sparql import parse_query
from repro.sparql.algebra import expression_contains_exists, operator_expressions
from repro.sparql.bindings import Binding
from repro.sparql.eval import SnapshotEvaluator

EX = "PREFIX ex: <http://x/>\n"


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


def q(subject, predicate, object, graph="https://h/doc"):
    return Quad(subject, predicate, object, NamedNode(graph))


def feed(pipeline, dataset, quads):
    """Add quads then advance the pipeline, returning new results."""
    for quad in quads:
        dataset.add(quad)
    return pipeline.advance(dataset)


def make(text):
    query = parse_query(EX + text)
    return compile_pipeline(query.where), Dataset()


class TestScans:
    def test_single_pattern_streams(self):
        pipeline, ds = make("SELECT ?o WHERE { ex:a ex:p ?o }")
        first = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"))])
        assert len(first) == 1
        second = feed(pipeline, ds, [q(n("a"), n("p"), Literal("2"))])
        assert len(second) == 1
        assert not pipeline.advance(ds)  # no new data, no new results

    def test_duplicate_triples_across_documents_deduplicated(self):
        pipeline, ds = make("SELECT ?o WHERE { ex:a ex:p ?o }")
        first = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"), "https://h/d1")])
        second = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"), "https://h/d2")])
        assert len(first) == 1 and len(second) == 0

    def test_same_variable_twice_in_pattern(self):
        pipeline, ds = make("SELECT ?x WHERE { ?x ex:p ?x }")
        results = feed(pipeline, ds, [q(n("a"), n("p"), n("a")), q(n("a"), n("p"), n("b"))])
        assert [b[Variable("x")] for b in results] == [n("a")]


class TestIncrementalJoin:
    def test_late_arriving_right_side_joins_earlier_left(self):
        pipeline, ds = make("SELECT ?m ?c WHERE { ?m ex:creator ex:me . ?m ex:content ?c }")
        assert feed(pipeline, ds, [q(n("m1"), n("creator"), n("me"))]) == []
        results = feed(pipeline, ds, [q(n("m1"), n("content"), Literal("hello"))])
        assert len(results) == 1
        assert results[0][Variable("c")] == Literal("hello")

    def test_late_arriving_left_side_joins_earlier_right(self):
        pipeline, ds = make("SELECT ?m ?c WHERE { ?m ex:creator ex:me . ?m ex:content ?c }")
        feed(pipeline, ds, [q(n("m1"), n("content"), Literal("hello"))])
        results = feed(pipeline, ds, [q(n("m1"), n("creator"), n("me"))])
        assert len(results) == 1

    def test_simultaneous_arrival_produces_exactly_once(self):
        pipeline, ds = make("SELECT ?m ?c WHERE { ?m ex:creator ex:me . ?m ex:content ?c }")
        results = feed(
            pipeline,
            ds,
            [q(n("m1"), n("creator"), n("me")), q(n("m1"), n("content"), Literal("x"))],
        )
        assert len(results) == 1

    def test_three_way_join(self):
        pipeline, ds = make(
            "SELECT ?f ?t WHERE { ?m ex:creator ex:me . ?f ex:contains ?m . ?f ex:title ?t }"
        )
        feed(pipeline, ds, [q(n("m1"), n("creator"), n("me"))])
        feed(pipeline, ds, [q(n("f1"), n("contains"), n("m1"))])
        results = feed(pipeline, ds, [q(n("f1"), n("title"), Literal("Wall"))])
        assert len(results) == 1

    def test_cross_product_when_no_shared_variables(self):
        pipeline, ds = make("SELECT ?a ?b WHERE { ex:x ex:p ?a . ex:y ex:q ?b }")
        feed(pipeline, ds, [q(n("x"), n("p"), Literal("1"))])
        results = feed(pipeline, ds, [q(n("y"), n("q"), Literal("2"))])
        assert len(results) == 1


class TestStreamingOperators:
    def test_union_merges_both_branches(self):
        pipeline, ds = make("SELECT ?x WHERE { { ?x ex:p ?y } UNION { ?x ex:q ?y } }")
        results = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1")), q(n("b"), n("q"), Literal("2"))])
        assert {b[Variable("x")] for b in results} == {n("a"), n("b")}

    def test_filter(self):
        pipeline, ds = make("SELECT ?v WHERE { ?s ex:p ?v FILTER(?v > 5) }")
        results = feed(
            pipeline,
            ds,
            [
                q(n("a"), n("p"), Literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer")),
                q(n("b"), n("p"), Literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer")),
            ],
        )
        assert len(results) == 1

    def test_bind_extends(self):
        pipeline, ds = make("SELECT ?u WHERE { ?s ex:p ?v BIND(UCASE(?v) AS ?u) }")
        results = feed(pipeline, ds, [q(n("a"), n("p"), Literal("hi"))])
        assert results[0][Variable("u")] == Literal("HI")

    def test_distinct_across_deltas(self):
        pipeline, ds = make("SELECT DISTINCT ?v WHERE { ?s ex:p ?v }")
        first = feed(pipeline, ds, [q(n("a"), n("p"), Literal("x"))])
        second = feed(pipeline, ds, [q(n("b"), n("p"), Literal("x"))])
        assert len(first) == 1 and len(second) == 0

    def test_limit_marks_pipeline_complete(self):
        pipeline, ds = make("SELECT ?v WHERE { ?s ex:p ?v } LIMIT 2")
        feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"))])
        assert not pipeline.complete
        results = feed(pipeline, ds, [q(n("b"), n("p"), Literal("2")), q(n("c"), n("p"), Literal("3"))])
        assert len(results) == 1  # capped at remaining budget
        assert pipeline.complete
        assert feed(pipeline, ds, [q(n("d"), n("p"), Literal("4"))]) == []

    def test_values_joined_with_scan(self):
        pipeline, ds = make("SELECT ?v WHERE { VALUES ?s { ex:a } ?s ex:p ?v }")
        results = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1")), q(n("b"), n("p"), Literal("2"))])
        assert len(results) == 1


class TestPathStreaming:
    def test_alternative_path_streams(self):
        pipeline, ds = make("SELECT ?m WHERE { ex:me (ex:hasPost|ex:hasComment) ?m }")
        first = feed(pipeline, ds, [q(n("me"), n("hasPost"), n("p1"))])
        second = feed(pipeline, ds, [q(n("me"), n("hasComment"), n("c1"))])
        assert len(first) == 1 and len(second) == 1

    def test_path_emits_each_pair_once(self):
        pipeline, ds = make("SELECT ?m WHERE { ex:me ex:likes/ex:hasPost ?m }")
        feed(pipeline, ds, [q(n("me"), n("likes"), n("g"))])
        results = feed(pipeline, ds, [q(n("g"), n("hasPost"), n("p1"))])
        assert len(results) == 1
        # Irrelevant growth does not re-emit.
        assert feed(pipeline, ds, [q(n("z"), n("likes"), n("zz"))]) == []

    def test_path_over_an_unfetched_named_graph_reads_without_creating_it(self):
        pipeline, ds = make("SELECT ?o WHERE { GRAPH <http://x/never> { ex:s ex:p+ ?o } }")
        # A relevant predicate arriving in *another* document drives the
        # path scan, which must find nothing and leave no phantom graph.
        assert feed(pipeline, ds, [q(n("s"), n("p"), n("o"))]) == []
        assert not ds.has_graph(n("never"))
        assert list(ds.graph_names()) == [NamedNode("https://h/doc")]
        # Once the document does arrive the scan answers from it.
        arrived = feed(pipeline, ds, [q(n("s"), n("p"), n("o"), "http://x/never")])
        assert [b[Variable("o")] for b in arrived] == [n("o")]

    def test_unpinned_star_counts_every_node_of_the_graph(self):
        pipeline, ds = make("SELECT ?x ?y WHERE { ?x ex:knows* ?y }")
        first = feed(pipeline, ds, [q(n("a"), n("knows"), n("b"))])
        assert len(first) == 3  # (a,a) (b,b) (a,b)
        # A quad of another predicate brings two more nodes, so two more
        # self-pairs: no predicate is irrelevant to this pattern.
        second = feed(pipeline, ds, [q(n("c"), n("likes"), n("d"))])
        assert {(b[Variable("x")], b[Variable("y")]) for b in second} == {
            (n("c"), n("c")),
            (n("d"), n("d")),
        }

    def test_pinned_star_holds_without_any_relevant_quad(self):
        # ``<a> p* ?y`` has the solution ?y = <a> over any graph — said at
        # quiescence when no ``knows`` quad ever arrived to prompt it.
        pipeline, ds = make("SELECT ?y WHERE { ex:a ex:knows* ?y }")
        assert feed(pipeline, ds, [q(n("c"), n("likes"), n("d"))]) == []
        assert [b[Variable("y")] for b in pipeline.finalize(ds)] == [n("a")]
        # …and said once: a scan that already evaluated adds nothing.
        pipeline, ds = make("SELECT ?y WHERE { ex:a ex:knows* ?y }")
        assert len(feed(pipeline, ds, [q(n("a"), n("knows"), n("b"))])) == 2
        assert pipeline.finalize(ds) == []

    def test_a_path_under_a_graph_variable_binds_it_per_named_graph(self):
        """``GRAPH ?g`` evaluates the path inside each named graph, as the
        snapshot evaluator does: a chain split across two documents joins
        in neither, and a zero-length path holds in every graph — one that
        no relevant quad reached included, said at quiescence."""
        pipeline, ds = make("SELECT ?g ?x WHERE { GRAPH ?g { ex:a ex:knows* ?x } }")
        rows = feed(pipeline, ds, [
            q(n("a"), n("knows"), n("b"), "https://h/d1"),
            q(n("b"), n("knows"), n("c"), "https://h/d2"),
            q(n("c"), n("likes"), n("d"), "https://h/d3"),
        ])
        rows += pipeline.finalize(ds)
        pairs = {(b[Variable("g")].value, b[Variable("x")].value) for b in rows}
        a, b = "http://x/a", "http://x/b"
        assert pairs == {
            ("https://h/d1", a), ("https://h/d1", b), ("https://h/d2", a), ("https://h/d3", a),
        }
        assert len(rows) == len(pairs)
        oracle = SnapshotEvaluator(ds).select(
            parse_query(EX + "SELECT ?g ?x WHERE { GRAPH ?g { ex:a ex:knows* ?x } }")
        )
        assert sorted(map(repr, rows)) == sorted(map(repr, oracle))

    def test_transitive_path_grows_with_data(self):
        pipeline, ds = make("SELECT ?x WHERE { ex:a ex:knows+ ?x }")
        first = feed(pipeline, ds, [q(n("a"), n("knows"), n("b"))])
        assert {b[Variable("x")] for b in first} == {n("b")}
        second = feed(pipeline, ds, [q(n("b"), n("knows"), n("c"))])
        assert {b[Variable("x")] for b in second} == {n("c")}


class TestNonMonotonicCompiles:
    """Formerly-NotStreamable queries now compile into blocking plans."""

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?a WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }",
            "SELECT ?a WHERE { ?a ex:p ?b MINUS { ?a ex:q ?b } }",
            "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a",
            "SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }",
            "SELECT ?a WHERE { ?a ex:p ?b } LIMIT 1 OFFSET 1",
        ],
    )
    def test_non_monotonic_queries_compile_blocking(self, text):
        query = parse_query(EX + text)
        pipeline = compile_pipeline(query.where)
        assert pipeline.blocking_nodes  # holds output until finalize

    def test_optional_emits_bare_left_at_finalize(self):
        pipeline, ds = make("SELECT ?a ?c WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }")
        assert feed(pipeline, ds, [q(n("a"), n("p"), n("b"))]) == []
        results = pipeline.finalize(ds)
        assert len(results) == 1
        assert Variable("c") not in results[0]

    def test_optional_streams_matched_merges(self):
        pipeline, ds = make("SELECT ?a ?c WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }")
        feed(pipeline, ds, [q(n("a"), n("p"), n("b"))])
        streamed = feed(pipeline, ds, [q(n("b"), n("q"), Literal("1"))])
        assert len(streamed) == 1
        assert streamed[0][Variable("c")] == Literal("1")
        assert pipeline.finalize(ds) == []  # left matched: no bare emission

    def test_minus_excludes_incrementally(self):
        pipeline, ds = make("SELECT ?a ?b WHERE { ?a ex:p ?b MINUS { ?a ex:q ?b } }")
        feed(pipeline, ds, [q(n("a"), n("p"), Literal("1")), q(n("c"), n("p"), Literal("2"))])
        feed(pipeline, ds, [q(n("a"), n("q"), Literal("1"))])
        results = pipeline.finalize(ds)
        assert [b[Variable("a")] for b in results] == [n("c")]

    def test_positive_exists_streams_only_over_a_monotonic_pattern(self):
        # A plain EXISTS is monotone-true: its passers stream.
        pipeline, ds = make("SELECT ?a WHERE { ?a ex:p ?b FILTER EXISTS { ?b ex:q ?c } }")
        assert len(feed(pipeline, ds, [q(n("a"), n("p"), n("b")), q(n("b"), n("q"), n("c"))])) == 1
        # With a NOT EXISTS nested in its pattern a proof found now can be
        # refuted later, so the verdict waits for quiescence.
        pipeline, ds = make(
            "SELECT ?a WHERE { ?a ex:p ?b "
            "FILTER EXISTS { ?b ex:q ?c FILTER NOT EXISTS { ?c ex:r ?d } } }"
        )
        assert feed(pipeline, ds, [q(n("a"), n("p"), n("b")), q(n("b"), n("q"), n("c"))]) == []
        assert feed(pipeline, ds, [q(n("c"), n("r"), n("d"))]) == []
        assert pipeline.finalize(ds) == []

    def test_order_by_sorts_at_finalize(self):
        pipeline, ds = make("SELECT ?b WHERE { ?a ex:p ?b } ORDER BY ?b")
        assert feed(pipeline, ds, [q(n("a"), n("p"), Literal("2"))]) == []
        feed(pipeline, ds, [q(n("c"), n("p"), Literal("1"))])
        results = pipeline.finalize(ds)
        assert [b[Variable("b")].value for b in results] == ["1", "2"]

    def test_order_limit_keeps_top_k(self):
        pipeline, ds = make("SELECT ?b WHERE { ?a ex:p ?b } ORDER BY ?b LIMIT 2")
        for index in [5, 3, 9, 1, 7]:
            feed(pipeline, ds, [q(n(f"s{index}"), n("p"), Literal(str(index)))])
        results = pipeline.finalize(ds)
        assert [b[Variable("b")].value for b in results] == ["1", "3"]

    def test_offset_drops_prefix_at_finalize(self):
        pipeline, ds = make("SELECT ?b WHERE { ?a ex:p ?b } ORDER BY ?b LIMIT 1 OFFSET 1")
        feed(pipeline, ds, [q(n("a"), n("p"), Literal("1")), q(n("c"), n("p"), Literal("2"))])
        results = pipeline.finalize(ds)
        assert [b[Variable("b")].value for b in results] == ["2"]

    def test_count_star_aggregates_deltas(self):
        pipeline, ds = make("SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }")
        feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"))])
        feed(pipeline, ds, [q(n("c"), n("p"), Literal("2"))])
        results = pipeline.finalize(ds)
        assert [b[Variable("n")].value for b in results] == ["2"]

    def test_count_star_empty_traversal_yields_zero(self):
        pipeline, ds = make("SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }")
        results = pipeline.finalize(ds)
        assert [b[Variable("n")].value for b in results] == ["0"]

    def test_unknown_operator_still_guarded(self):
        class Alien:
            pass

        with pytest.raises(NotStreamable):
            compile_pipeline(Alien())

    def test_graph_scoped_scan(self):
        query = parse_query(EX + "SELECT ?o WHERE { GRAPH <https://h/d1> { ex:a ex:p ?o } }")
        pipeline = compile_pipeline(query.where)
        ds = Dataset()
        in_graph = feed(pipeline, ds, [q(n("a"), n("p"), Literal("1"), "https://h/d1")])
        other_graph = feed(pipeline, ds, [q(n("a"), n("p"), Literal("2"), "https://h/d2")])
        assert len(in_graph) == 1 and len(other_graph) == 0


#: The operators that evaluate an expression, and what each one holds.
_EXPRESSIONS = {
    FilterNode: lambda node: (node._expression,),
    ExtendNode: lambda node: (node._expression,),
    LeftJoinNode: lambda node: (node._expression,),
    GroupAggregateNode: lambda node: operator_expressions(node._op),
    OrderSliceNode: lambda node: [condition.expression for condition in node._conditions],
}


class TestExistsIsDecidedAtCompileTime:
    """The compiler alone decides what an EXISTS means: each operator that
    evaluates one (but a streaming FILTER EXISTS) is the template of one
    :class:`RederivedNode`, and no node in the plan holds EXISTS otherwise."""

    @pytest.mark.parametrize(
        "text, template",
        [
            ("SELECT ?a WHERE { ?a ex:p ?b FILTER NOT EXISTS { ?b ex:q ?c } }", FilterNode),
            ("SELECT * WHERE { ?a ex:p ?b BIND(EXISTS { ?b ex:q ?c } AS ?e) }", ExtendNode),
            (
                "SELECT * WHERE { ?a ex:p ?b "
                "OPTIONAL { ?b ex:r ?d FILTER EXISTS { ?d ex:q ?c } } }",
                LeftJoinNode,
            ),
            # HAVING is a FILTER over the group rows.
            (
                "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:p ?b } "
                "GROUP BY ?a HAVING (NOT EXISTS { ?a ex:q ?c })",
                FilterNode,
            ),
            (
                "SELECT ?e (COUNT(?b) AS ?n) WHERE { ?a ex:p ?b } "
                "GROUP BY (EXISTS { ?a ex:q ?c } AS ?e)",
                GroupAggregateNode,
            ),
            (
                "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY (EXISTS { ?b ex:q ?c }) ?a LIMIT 2",
                OrderSliceNode,
            ),
        ],
    )
    def test_each_form_compiles_to_one_rederived_node(self, text, template):
        pipeline, _ = make(text)
        nodes = list(_walk(pipeline.root))
        (rederived,) = [node for node in nodes if isinstance(node, RederivedNode)]
        assert type(rederived.template) is template
        assert rederived.reads == frozenset({n("q")})
        assert rederived in pipeline.blocking_nodes
        for node in nodes:
            if type(node) in _EXPRESSIONS:
                assert not any(
                    expression_contains_exists(expression)
                    for expression in _EXPRESSIONS[type(node)](node)
                    if expression is not None
                ), type(node).__name__

    def test_a_positive_exists_filter_streams_unwrapped(self):
        pipeline, _ = make("SELECT * WHERE { ?a ex:p ?b FILTER (EXISTS { ?b ex:q ?c } || ?a = ?b) }")
        assert ExistsFilterNode in {type(node) for node in _walk(pipeline.root)}
        assert not pipeline.blocking_nodes

    def test_release_keeps_the_template_order(self):
        # Rows with a partner sort first; ties fall back to ?b.
        pipeline, ds = make(
            "SELECT ?b WHERE { ?a ex:p ?b } ORDER BY DESC(EXISTS { ?b ex:q ?c }) ?b"
        )
        quads = [q(n("a"), n("p"), Literal(str(index))) for index in (3, 1, 2)]
        assert feed(pipeline, ds, [*quads, q(Literal("2"), n("q"), n("c"))]) == []
        assert [b[Variable("b")].value for b in pipeline.finalize(ds)] == ["2", "1", "3"]


def _all_subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _all_subclasses(subclass)


class TestOneProtocol:
    """Every operator has one body (``_changes``), driven by the base
    class: the guard against the next feature growing a second path."""

    @pytest.mark.parametrize("node_class", sorted(_all_subclasses(IncrementalNode), key=lambda c: c.__name__))
    def test_node_has_one_body_and_a_plan_label(self, node_class):
        for forked in ("process", "prepare_live"):
            assert not hasattr(node_class, forked), f"{node_class.__name__}.{forked}"
        assert "finalize" not in vars(node_class)  # quiescence is the base driver's
        assert "_changes" in vars(node_class)
        assert node_class in _PHYSICAL_LABELS
