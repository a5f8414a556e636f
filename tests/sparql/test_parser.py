"""Unit tests for the SPARQL parser and algebra translation."""

import dataclasses
import importlib

import pytest

from repro.rdf import Literal, NamedNode, Variable
from repro.rdf.terms import XSD_BOOLEAN, XSD_INTEGER
from repro.sparql import SparqlParseError, parse_query
from repro.sparql.algebra import (
    AggregateExpr,
    AlternativePath,
    BGP,
    Compare,
    Distinct,
    Expression,
    Extend,
    Filter,
    GraphOp,
    GroupBy,
    InversePath,
    Join,
    LeftJoin,
    Minus,
    OneOrMorePath,
    OrderBy,
    PredicatePath,
    Project,
    SequencePath,
    Slice,
    SubSelect,
    TermExpr,
    Union,
    ValuesOp,
    VariableExpr,
    ZeroOrMorePath,
    is_monotonic,
    operator_children,
)

EX = "PREFIX ex: <http://x/>\n"


def unwrap(node, *types):
    """Unwrap outer operators of the given types, returning the core."""
    while isinstance(node, types):
        node = node.input
    return node


class TestBasicForms:
    def test_select_projection_order(self):
        q = parse_query(EX + "SELECT ?b ?a WHERE { ?a ex:p ?b }")
        assert q.variables() == (Variable("b"), Variable("a"))

    def test_select_star_collects_variables(self):
        q = parse_query(EX + "SELECT * WHERE { ?a ex:p ?b }")
        assert set(q.variables()) == {Variable("a"), Variable("b")}

    def test_ask_form(self):
        q = parse_query("ASK { ?s ?p ?o }")
        assert q.form == "ASK"

    def test_construct_form_with_template(self):
        q = parse_query(EX + "CONSTRUCT { ?s ex:q ?o } WHERE { ?s ex:p ?o }")
        assert q.form == "CONSTRUCT"
        assert len(q.construct_template) == 1
        assert q.construct_template[0].predicate == NamedNode("http://x/q")

    def test_prefix_expansion(self):
        q = parse_query(EX + "SELECT ?s WHERE { ?s ex:p ex:o }")
        bgp = unwrap(q.where, Project)
        assert bgp.patterns[0].predicate == NamedNode("http://x/p")

    def test_base_resolution(self):
        q = parse_query("BASE <http://host/dir/>\nSELECT ?s WHERE { ?s <p> <o> }")
        bgp = unwrap(q.where, Project)
        assert bgp.patterns[0].predicate == NamedNode("http://host/dir/p")

    def test_undefined_prefix_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } garbage")


class TestGroupPatterns:
    def test_optional_becomes_left_join(self):
        q = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }")
        assert isinstance(unwrap(q.where, Project), LeftJoin)

    def test_optional_filter_becomes_join_condition(self):
        q = parse_query(
            EX + "SELECT ?a WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c FILTER(?c > 3) } }"
        )
        left_join = unwrap(q.where, Project)
        assert isinstance(left_join, LeftJoin)
        assert left_join.expression is not None

    def test_union(self):
        q = parse_query(EX + "SELECT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } }")
        assert isinstance(unwrap(q.where, Project), Union)

    def test_chained_union(self):
        q = parse_query(
            EX + "SELECT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } UNION { ?a ex:r ?b } }"
        )
        outer = unwrap(q.where, Project)
        assert isinstance(outer, Union) and isinstance(outer.left, Union)

    def test_minus(self):
        q = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b MINUS { ?a ex:q ?b } }")
        assert isinstance(unwrap(q.where, Project), Minus)

    def test_filter_applies_at_group_end(self):
        q = parse_query(EX + "SELECT ?a WHERE { FILTER(?b > 3) ?a ex:p ?b }")
        assert isinstance(unwrap(q.where, Project), Filter)

    def test_bind(self):
        q = parse_query(EX + "SELECT ?c WHERE { ?a ex:p ?b BIND(?b + 1 AS ?c) }")
        assert isinstance(unwrap(q.where, Project), Extend)

    def test_values_inline(self):
        q = parse_query(EX + "SELECT ?a WHERE { VALUES ?a { ex:x ex:y } ?a ex:p ?b }")
        node = unwrap(q.where, Project)
        assert isinstance(node, Join)
        assert isinstance(node.left, ValuesOp) or isinstance(node.right, ValuesOp)

    def test_values_multi_column_with_undef(self):
        q = parse_query(EX + "SELECT * WHERE { VALUES (?a ?b) { (ex:x UNDEF) (ex:y 2) } }")
        values = unwrap(q.where, Project)
        assert isinstance(values, Join) or isinstance(values, ValuesOp)

    def test_graph_pattern(self):
        q = parse_query(EX + "SELECT ?s WHERE { GRAPH ?g { ?s ex:p ?o } }")
        assert isinstance(unwrap(q.where, Project), GraphOp)

    def test_subselect(self):
        q = parse_query(EX + "SELECT ?a WHERE { { SELECT ?a WHERE { ?a ex:p ?b } LIMIT 1 } }")
        assert isinstance(unwrap(q.where, Project), SubSelect)

    def test_blank_nodes_become_internal_variables(self):
        q = parse_query(EX + "SELECT ?m WHERE { ex:me ex:likes _:g . _:g ex:has ?m }")
        bgp = unwrap(q.where, Project)
        internal = {t for p in bgp.patterns for t in p.variables() if t.value.startswith("__bn")}
        assert internal
        assert all(v not in q.variables() for v in internal)

    def test_bracketed_blank_node_object(self):
        q = parse_query(EX + "SELECT ?x WHERE { ?x ex:p [ ex:q 1 ] }")
        bgp = unwrap(q.where, Project)
        assert len(bgp.patterns) == 2


class TestPropertyPaths:
    def path_of(self, text):
        q = parse_query(EX + text)
        bgp = unwrap(q.where, Project, Distinct)
        assert bgp.path_patterns, "expected a path pattern"
        return bgp.path_patterns[0].path

    def test_alternative(self):
        path = self.path_of("SELECT ?x WHERE { ?x (ex:a|ex:b) ?y }")
        assert isinstance(path, AlternativePath)

    def test_sequence(self):
        path = self.path_of("SELECT ?x WHERE { ?x ex:a/ex:b ?y }")
        assert isinstance(path, SequencePath)

    def test_inverse(self):
        path = self.path_of("SELECT ?x WHERE { ?x ^ex:a ?y }")
        assert isinstance(path, InversePath)

    def test_zero_or_more(self):
        path = self.path_of("SELECT ?x WHERE { ?x ex:a* ?y }")
        assert isinstance(path, ZeroOrMorePath)

    def test_one_or_more_of_alternative(self):
        path = self.path_of("SELECT ?x WHERE { ?x (ex:a|^ex:a)+ ?y }")
        assert isinstance(path, OneOrMorePath)
        assert isinstance(path.path, AlternativePath)

    def test_plain_predicate_is_not_a_path_pattern(self):
        q = parse_query(EX + "SELECT ?x WHERE { ?x ex:a ?y }")
        bgp = unwrap(q.where, Project)
        assert not bgp.path_patterns and len(bgp.patterns) == 1


class TestSolutionModifiers:
    def test_distinct(self):
        q = parse_query(EX + "SELECT DISTINCT ?a WHERE { ?a ex:p ?b }")
        assert isinstance(q.where, Distinct)

    def test_limit_offset(self):
        q = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b } LIMIT 10 OFFSET 5")
        assert isinstance(q.where, Slice)
        assert q.where.limit == 10 and q.where.offset == 5

    def test_order_by_desc(self):
        q = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY DESC(?b) ?a")
        order = q.where
        assert isinstance(order, Project)
        inner = order.input
        assert isinstance(inner, OrderBy)
        assert inner.conditions[0].descending
        assert not inner.conditions[1].descending

    def test_group_by_with_count(self):
        q = parse_query(EX + "SELECT ?a (COUNT(?b) AS ?c) WHERE { ?a ex:p ?b } GROUP BY ?a")
        project = q.where
        assert isinstance(project, Project)
        assert project.variables == (Variable("a"), Variable("c"))
        extend = project.input
        assert isinstance(extend, Extend)
        assert extend.variable == Variable("c")
        assert extend.expression == VariableExpr(Variable("__agg0"))
        group = extend.input
        assert isinstance(group, GroupBy)
        assert group.keys == ((VariableExpr(Variable("a")), None),)
        assert group.aggregates == (
            (Variable("__agg0"), AggregateExpr("COUNT", VariableExpr(Variable("b")))),
        )

    def test_aggregate_without_group_by(self):
        q = parse_query(EX + "SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }")
        group = q.where.input.input
        assert isinstance(group, GroupBy)
        assert group.keys == ()

    def test_having(self):
        q = parse_query(
            EX + "SELECT ?a (COUNT(?b) AS ?c) WHERE { ?a ex:p ?b } GROUP BY ?a HAVING (COUNT(?b) > 2)"
        )
        having = q.where.input
        assert isinstance(having, Filter)
        # The same aggregate is lifted once: HAVING reads the variable SELECT does.
        assert having.expression == Compare(
            ">", VariableExpr(Variable("__agg0")), TermExpr(Literal("2", datatype=XSD_INTEGER))
        )
        assert isinstance(having.input, Extend)
        assert len(having.input.input.aggregates) == 1

    def test_aggregates_anywhere_imply_the_implicit_group(self):
        for text in (
            "SELECT ?a WHERE { ?a ex:p ?b } HAVING (COUNT(?b) > 2)",
            "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY DESC(MAX(?b))",
        ):
            group = unwrap(parse_query(EX + text).where, Project, OrderBy, Filter)
            assert isinstance(group, GroupBy) and group.keys == (), text
            assert [v for v, _ in group.aggregates] == [Variable("__agg0")]

    def test_order_by_an_aggregate_reads_its_variable(self):
        q = parse_query(
            EX + "SELECT ?a WHERE { ?a ex:p ?b } GROUP BY ?a ORDER BY DESC(COUNT(?b)) ?a"
        )
        order = q.where.input
        assert isinstance(order, OrderBy)
        assert order.conditions[0].expression == VariableExpr(Variable("__agg0"))
        assert order.conditions[0].descending
        assert q.variables() == (Variable("a"),)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT (SUM(COUNT(?b)) AS ?n) WHERE { ?a ex:p ?b }",
            "SELECT ?a WHERE { ?a ex:p ?b } GROUP BY ?a HAVING (MAX(MIN(?b)) > 1)",
            "SELECT (COUNT(?a) AS ?n) WHERE { ?a ex:p ?b } GROUP BY (COUNT(?b))",
        ],
    )
    def test_nested_aggregate_or_aggregate_key_is_a_parse_error(self, text):
        with pytest.raises(SparqlParseError):
            parse_query(EX + text)

    def test_select_expression_becomes_extend(self):
        q = parse_query(EX + "SELECT (?b + 1 AS ?c) WHERE { ?a ex:p ?b }")
        assert isinstance(q.where, Project)
        assert isinstance(q.where.input, Extend)


class TestGroupByBindsOnlyAggregates:
    """A GroupBy binds its keys and its aggregates, and nothing else: HAVING,
    SELECT expressions and ORDER BY are the ordinary operators above it, so
    no grouping code evaluates an expression that holds an aggregate."""

    def test_group_by_has_no_expression_fields(self):
        assert {field.name for field in dataclasses.fields(GroupBy)} == {
            "input",
            "keys",
            "aggregates",
        }

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?a (COUNT(?b) AS ?c) WHERE { ?a ex:p ?b } GROUP BY ?a HAVING (SUM(?b) > 2)",
            "SELECT (MAX(?b) - MIN(?b) AS ?r) WHERE { ?a ex:p ?b } ORDER BY DESC(AVG(?b))",
            "SELECT ?a WHERE { { SELECT ?a (COUNT(*) AS ?n) WHERE { ?a ex:p ?b } GROUP BY ?a } }",
        ],
    )
    def test_every_aggregate_is_a_variable_bound_to_one_aggregate(self, text):
        def groups(node):
            if isinstance(node, GroupBy):
                yield node
            for child in operator_children(node):
                yield from groups(child)

        found = list(groups(parse_query(EX + text).where))
        assert found
        for group in found:
            for variable, aggregate in group.aggregates:
                assert isinstance(variable, Variable)
                assert isinstance(aggregate, AggregateExpr)

    def test_the_aggregates_module_knows_no_other_expression_class(self):
        module = importlib.import_module("repro.sparql.aggregates")
        known = {
            name
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, Expression)
        }
        assert known <= {"AggregateExpr", "Expression"}


class TestMonotonicity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("SELECT ?a WHERE { ?a ex:p ?b }", True),
            ("SELECT DISTINCT ?a WHERE { ?a ex:p ?b }", True),
            ("SELECT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } }", True),
            ("SELECT ?a WHERE { ?a ex:p ?b } LIMIT 5", True),
            ("SELECT ?a WHERE { ?a ex:p ?b } LIMIT 5 OFFSET 2", False),
            ("SELECT ?a WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }", False),
            ("SELECT ?a WHERE { ?a ex:p ?b MINUS { ?a ex:q ?b } }", False),
            ("SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a", False),
            ("SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }", False),
            ("SELECT ?a WHERE { ?a ex:p ?b FILTER NOT EXISTS { ?b ex:q ?c } }", False),
        ],
    )
    def test_is_monotonic(self, text, expected):
        q = parse_query(EX + text)
        assert is_monotonic(q.where) is expected


class TestLiteralsInQueries:
    def test_typed_and_boolean_literals(self):
        q = parse_query(EX + 'SELECT ?s WHERE { ?s ex:p "5"^^<http://www.w3.org/2001/XMLSchema#integer> ; ex:q true }')
        bgp = unwrap(q.where, Project)
        objects = {p.object for p in bgp.patterns}
        assert Literal("5", datatype=XSD_INTEGER) in objects
        assert Literal("true", datatype=XSD_BOOLEAN) in objects

    def test_negative_number(self):
        q = parse_query(EX + "SELECT ?s WHERE { ?s ex:p -3 }")
        bgp = unwrap(q.where, Project)
        assert bgp.patterns[0].object == Literal("-3", datatype=XSD_INTEGER)
