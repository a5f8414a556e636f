"""What a query reads has one answer, and its three consumers agree on it.

:func:`~repro.sparql.algebra.read_patterns` (EXISTS bodies included) and
:func:`~repro.sparql.paths.path_reads` feed cMatch's query context, source
selection's subject groups and the plan's read set.  Whatever the plan
reads, link extraction asks for and source selection keeps: a predicate
the read set names but a subject group lacks lets the selector prune the
containers that hold it, and the answer loses rows with ``complete: true``.
"""

import hashlib

import pytest

from repro.ltqp.extractors import build_query_context
from repro.ltqp.guided.hints import query_scopes
from repro.ltqp.pipeline import compile_query_pipeline
from repro.rdf import NamedNode, TriplePattern, Variable
from repro.solidbench import discover_suite
from repro.sparql import parse_query
from repro.sparql.algebra import PathPattern, exists_patterns, read_patterns
from repro.sparql.paths import path_reads

EX = "PREFIX ex: <http://x/>\n"

#: Every place an EXISTS can sit, every path form, and the operators that
#: scope or feed patterns.
QUERIES = {
    "filter-exists": "SELECT * WHERE { ?a ex:p ?b FILTER EXISTS { ?b ex:q ?c } }",
    "filter-not-exists": "SELECT * WHERE { ?a ex:p ?b FILTER NOT EXISTS { ?b ex:q ?c } }",
    "filter-or-exists": "SELECT * WHERE { ?a ex:p ?b FILTER (?a = ?b || EXISTS { ?b ex:q ?c }) }",
    "bind-exists": "SELECT * WHERE { ?a ex:p ?b BIND (EXISTS { ?b ex:q ?c } AS ?e) }",
    "optional-on-exists": (
        "SELECT * WHERE { ?a ex:p ?b OPTIONAL { ?b ex:r ?d FILTER EXISTS { ?d ex:q ?c } } }"
    ),
    "having-exists": (
        "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:p ?b } GROUP BY ?a "
        "HAVING (EXISTS { ?a ex:q ?c })"
    ),
    "order-by-exists": (
        "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY (EXISTS { ?b ex:q ?c }) ?a LIMIT 2"
    ),
    "nested-exists": (
        "SELECT * WHERE { ?a ex:p ?b FILTER EXISTS { ?b ex:q ?c "
        "FILTER NOT EXISTS { ?c ex:r ?d } } }"
    ),
    "exists-in-a-union-branch": (
        "SELECT * WHERE { { ?a ex:p ?b } UNION { ?a ex:s ?b FILTER EXISTS { ?b ex:q ?c } } }"
    ),
    "exists-variable-predicate": "SELECT * WHERE { ?a ex:p ?b FILTER EXISTS { ?b ?p ?c } }",
    "exists-negated-path": "SELECT * WHERE { ?a ex:p ?b FILTER NOT EXISTS { ?b !ex:q ?c } }",
    "minus": "SELECT * WHERE { ?a ex:p ?b MINUS { ?a ex:s ?c } }",
    "negated": "SELECT * WHERE { ?a !ex:p ?b }",
    "negated-pinned": "SELECT * WHERE { ex:n !(ex:p|^ex:q) ?b }",
    "star": "SELECT * WHERE { ?a ex:p* ?b }",
    "star-pinned": "SELECT * WHERE { ex:n ex:p* ?b }",
    "inverse": "SELECT * WHERE { ?a ^ex:p ?b . ?b ex:q ?c }",
    "alternative": "SELECT * WHERE { ?a (ex:p|ex:q) ?b }",
    "sequence": "SELECT * WHERE { ?a ex:t ex:C ; ex:p/ex:q ?b }",
    "plus-in-a-union": "SELECT * WHERE { { ?a ex:t ex:C } UNION { ?a ex:p+ ?b } }",
    "graph": "SELECT * WHERE { GRAPH ?g { ?a ex:p ?b } GRAPH ex:d { ?b ex:q ?c } }",
    "values": "SELECT * WHERE { VALUES ?a { ex:n } ?a ex:p ?b }",
    "sub-select": (
        "SELECT * WHERE { ?a ex:p ?b "
        "{ SELECT ?b WHERE { ?b ex:q ?c FILTER EXISTS { ?c ex:r ?d } } } }"
    ),
    "variable-predicate": "SELECT * WHERE { ?a ?p ?b }",
}


def scoped_predicates(scopes) -> set:
    """Every predicate some subject group requires or accepts."""
    found = set()
    for scope in scopes:
        for group in scope.groups:
            found |= group.predicates
            for options in group.any_of:
                found |= options
    return found


def assert_consumers_agree(query) -> None:
    read_set = compile_query_pipeline(query).read_set
    context = build_query_context(query.where)
    wildcard = [
        pattern
        for pattern in context.patterns
        if pattern.predicate is None or isinstance(pattern.predicate, Variable)
    ]
    assert (read_set is None) == bool(wildcard), (read_set, wildcard)
    if read_set is not None:
        assert read_set <= context.predicates
        assert {predicate.value for predicate in read_set} <= scoped_predicates(
            query_scopes(query.where)
        )


@pytest.mark.parametrize("text", QUERIES.values(), ids=QUERIES.keys())
def test_cmatch_selection_and_the_plan_read_the_same(text):
    assert_consumers_agree(parse_query(EX + text))


def test_an_exists_body_is_a_scope_of_its_own():
    # The body's subject ?b is the outer object: joined with the outer
    # scope its group would also need ex:p, which the containers of the
    # things ?b names need not hold.
    scopes = query_scopes(parse_query(EX + QUERIES["filter-exists"]).where)
    groups = [[(group.subject, set(group.predicates)) for group in scope.groups] for scope in scopes]
    assert groups == [[("?a", {"http://x/p"})], [("?b", {"http://x/q"})]]


def test_an_optional_part_is_not_strengthened_by_a_join():
    # Joined with the sibling ?b ex:s, the optional part's ?b group would
    # require ex:s too — and pruning a container it needs changes the rows.
    text = "SELECT * WHERE { { ?a ex:p ?b OPTIONAL { ?b ex:r ?d } } ?b ex:s ?e }"
    scopes = query_scopes(parse_query(EX + text).where)
    groups = [[(group.subject, set(group.predicates)) for group in scope.groups] for scope in scopes]
    assert groups == [
        [("?a", {"http://x/p"}), ("?b", {"http://x/s"})],
        [("?b", {"http://x/r"})],
    ]


def test_a_path_any_quad_matches_needs_nothing_of_a_container():
    (scope,) = query_scopes(parse_query(EX + QUERIES["negated"]).where)
    (group,) = scope.groups
    assert not (group.predicates or group.any_of or group.classes)


def test_a_negated_set_hands_cmatch_a_wildcard_not_its_exclusions():
    context = build_query_context(parse_query(EX + QUERIES["negated-pinned"]).where)
    assert context.patterns == (TriplePattern(NamedNode("http://x/n"), None, Variable("b")),)
    assert context.predicates == frozenset()


class TestReadPatterns:
    def test_tree_order_then_exists_bodies(self):
        query = parse_query(EX + QUERIES["nested-exists"])
        assert [pattern.predicate.value[-1] for pattern in read_patterns(query.where)] == [
            "p",
            "q",
            "r",
        ]

    def test_every_operator_that_evaluates_an_expression(self):
        for name in ("bind-exists", "optional-on-exists", "having-exists", "order-by-exists"):
            query = parse_query(EX + QUERIES[name])
            assert NamedNode("http://x/q") in {p.predicate for p in read_patterns(query.where)}

    def test_paths_come_as_path_patterns(self):
        (path,) = read_patterns(parse_query(EX + QUERIES["star"]).where)
        assert isinstance(path, PathPattern) and path_reads(path) is None

    def test_exists_patterns_does_not_enter_the_bodies(self):
        query = parse_query(EX + QUERIES["nested-exists"])
        (body,) = exists_patterns(query.where.input.expression)  # Project(Filter(...))
        assert len(list(read_patterns(body))) == 2


#: A digest of :func:`render` per Discover template, taken before
#: EXISTS bodies were read: queries without EXISTS or negated paths (the
#: whole suite) build exactly the contexts, scopes and read sets they did.
DISCOVER_PINS = {
    1: "ce43453ebb947d35",
    2: "756ff752a1292ce7",
    3: "0480c4cc19f3efd5",
    4: "2d4d944ad385c2b0",
    5: "8deaa5be4f50eddd",
    6: "7c45cacea29e81ab",
    7: "d784029fbee9d0cb",
    8: "32f42f2f0f2f7ab7",
}


def render(query, seed: str) -> str:
    """Context, scopes and read set of ``query``, in a canonical order,
    with the seed's document written ``<seed>``."""

    def text(value) -> str:
        return repr(value).replace(seed, "<seed>")

    context = build_query_context(query.where)
    read = compile_query_pipeline(query).read_set
    parts = [
        "patterns", sorted(text(pattern) for pattern in context.patterns),
        "predicates", sorted(predicate.value for predicate in context.predicates),
        "classes", sorted(cls.value for cls in context.classes),
        "iris", sorted(iri.replace(seed, "<seed>") for iri in context.iris),
        "entity_iris", sorted(iri.replace(seed, "<seed>") for iri in context.entity_iris),
        "scopes", [
            [
                (
                    group.subject.replace(seed, "<seed>"),
                    sorted(group.predicates),
                    sorted(sorted(options) for options in group.any_of),
                    sorted(group.classes),
                    sorted(group.object_of),
                    sorted(sorted(options) for options in group.object_of_any),
                )
                for group in scope.groups
            ]
            for scope in query_scopes(query.where)
        ],
        "read_set", None if read is None else sorted(predicate.value for predicate in read),
    ]  # fmt: skip
    return repr(parts)


def test_the_discover_queries_read_what_they_read(small_universe):
    suite = discover_suite(small_universe)
    assert len(suite) == 37
    for named in suite:
        query = parse_query(named.text)
        assert_consumers_agree(query)
        digest = hashlib.sha1(render(query, named.seeds[0].split("#")[0]).encode()).hexdigest()
        assert digest[:16] == DISCOVER_PINS[named.template], named.name
