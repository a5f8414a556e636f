"""Tests for query plan explanation."""

import pytest

from repro.ltqp import LinkTraversalEngine, default_extractors, explain_algebra, explain_plan
from repro.sparql import parse_query

EX = "PREFIX ex: <http://x/>\n"


class TestExplainAlgebra:
    def test_bgp_patterns_listed(self):
        query = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b . ?b ex:q ?c }")
        text = explain_algebra(query.where)
        assert "BGP" in text and "Project" in text
        assert text.count("?a") >= 1

    def test_operators_named(self):
        query = parse_query(
            EX
            + "SELECT DISTINCT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } "
            + "OPTIONAL { ?b ex:r ?c } FILTER(?b != ex:x) } LIMIT 3"
        )
        text = explain_algebra(query.where)
        for token in ("Union", "LeftJoin", "Filter", "Distinct", "Slice"):
            assert token in text, token


class TestExplainPlan:
    def make_query(self):
        return parse_query(
            EX
            + "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            + "SELECT ?c WHERE { ?m ex:creator <http://h/card#me> ; "
            + "rdf:type ex:Post ; ex:content ?c }"
        )

    def test_sections_present(self):
        text = explain_plan(self.make_query(), extractors=default_extractors())
        assert "query form: SELECT" in text
        assert "streaming" in text
        assert "http://h/card#me" in text
        assert "extractors: match, ldp-container, storage, type-index" in text
        assert "type-index class filter: Post" in text
        assert "zero-knowledge join order" in text

    def test_extractor_read_set_is_printed_next_to_the_plans(self):
        from repro.ltqp import AllIriExtractor

        text = explain_plan(self.make_query(), extractors=default_extractors())
        lines = text.splitlines()
        # cMatch reads the query's three predicates; LDP, storage and the type
        # index add seven of their own.
        assert lines[lines.index("reads: 3 predicates") + 4] == "extractors read: 10 predicates"
        assert "  http://www.w3.org/ns/ldp#contains" in lines
        assert lines.count("  http://x/creator") == 2  # the plan reads it, and so does cMatch
        # One extractor that walks the document, and the stack reads everything.
        walking = explain_plan(
            self.make_query(), extractors=default_extractors() + [AllIriExtractor()]
        )
        assert "extractors read: every triple (all-iris)" in walking
        variable_predicate = parse_query(EX + "SELECT ?p WHERE { <http://h/card#me> ?p ?o }")
        assert "extractors read: every triple (match)" in explain_plan(
            variable_predicate, extractors=default_extractors()
        )
        assert "extractors read" not in explain_plan(self.make_query())  # no stack given

    def test_join_order_starts_with_most_selective(self):
        text = explain_plan(self.make_query())
        order_section = text.split("zero-knowledge join order")[1]
        first_line = order_section.splitlines()[1]
        assert "creator" in first_line  # the bound-object anchor pattern

    def test_non_monotonic_marks_blocking_boundary(self):
        query = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a")
        text = explain_plan(query)
        assert "1 blocking operator(s) finalize at traversal quiescence" in text
        assert "physical plan:" in text
        assert "blocking boundary" in text
        assert "OrderSlice" in text

    def test_monotonic_physical_plan_has_no_boundary(self):
        text = explain_plan(self.make_query())
        assert "physical plan:" in text
        assert "blocking boundary" not in text
        assert "HashJoin" in text

    def test_no_seed_query(self):
        query = parse_query(EX + "SELECT ?a WHERE { ?a ex:p ?b }")
        assert "(none" in explain_plan(query)

    @pytest.mark.parametrize(
        "text,seeds",
        [
            (
                "DESCRIBE <https://solidbench.example/pods/0/profile/card#me>",
                ["https://solidbench.example/pods/0/profile/card#me"],
            ),
            ("SELECT * WHERE { <urn:x:1> <http://p> ?o }", []),
        ],
    )
    def test_the_listed_seeds_are_the_ones_the_engine_uses(self, text, seeds):
        query = parse_query(text)
        assert LinkTraversalEngine.seeds_from_query(query) == seeds
        listed = explain_plan(query).split("seeds:\n")[1].split("\n\n")[0].splitlines()
        assert listed == (
            [f"  {seed}" for seed in seeds]
            or ["  (none — query mentions no dereferenceable entity IRIs)"]
        )

    def test_explicit_seeds_override(self):
        text = explain_plan(self.make_query(), seeds=["https://other.example/seed"])
        assert "https://other.example/seed" in text
