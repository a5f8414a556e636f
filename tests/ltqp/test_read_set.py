"""What a compiled plan can read — the read set the growing source keeps.

Every node that reads quads registers with the pipeline's router: scans
and path leaves off the delta, EXISTS patterns and DESCRIBE off the
dataset itself.  The union is the plan's *read set*; the source stores
nothing else, so a read that fails to register is a wrong answer, not a
slow one.  The engine-level cases run against ``SnapshotEvaluator`` over
the documents the traversal fetched.
"""

import ast
import asyncio
import inspect
import textwrap
from collections import Counter

import pytest

from repro.ltqp import explain_plan, pipeline
from repro.ltqp.dereference import Dereferencer
from repro.ltqp.extractors import MatchIriExtractor, build_query_context
from repro.ltqp.pipeline import compile_query_pipeline
from repro.ltqp.source import GrowingTripleSource
from repro.net.latency import NoLatency
from repro.rdf import NamedNode, ParsedDocument, Triple
from repro.solidbench import discover_query
from repro.sparql import parse_query
from repro.sparql.eval import SnapshotEvaluator

EX = "PREFIX ex: <http://x/>\n"
FOAF = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"


def read_set(text: str):
    return compile_query_pipeline(parse_query(EX + text)).read_set


def ex(*names: str) -> frozenset:
    return frozenset(NamedNode(f"http://x/{name}") for name in names)


class TestReadSetOfAPlan:
    def test_scans_register_their_predicates(self):
        assert read_set("SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }") == ex("p", "q")

    def test_every_operator_family_adds_its_scans(self):
        assert read_set(
            "SELECT ?a (COUNT(?c) AS ?n) WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } "
            "OPTIONAL { ?b ex:r ?c } MINUS { ?a ex:s ?b } "
            "{ SELECT ?a WHERE { ?a ex:t ?z } } GRAPH ?g { ?a ex:u ?b } "
            "GRAPH <http://x/doc> { ?a ex:v ?b } } GROUP BY ?a ORDER BY ?a LIMIT 3"
        ) == ex("p", "q", "r", "s", "t", "u", "v")

    def test_a_plan_with_no_reads_reads_nothing(self):
        assert read_set("SELECT * WHERE { VALUES ?a { 1 2 } }") == frozenset()

    @pytest.mark.parametrize(
        "where",
        [
            "?a ?p ?b",
            "?a ex:p ?b . GRAPH ?g { ?b ?p ?c }",
            "?a !ex:p ?b",
            "?a !(ex:p|^ex:q) ?b",
            "?a ex:p ?b FILTER EXISTS { ?b ?p ?c }",
            "?a ex:p ?b FILTER NOT EXISTS { ?b !ex:q ?c }",
        ],
    )
    def test_a_read_that_can_match_any_predicate_reads_everything(self, where):
        assert read_set(f"SELECT * WHERE {{ {where} }}") is None

    def test_describe_reads_everything(self):
        assert read_set("DESCRIBE ?a WHERE { ?a ex:p ?b }") is None
        assert read_set("DESCRIBE <http://x/a>") is None

    def test_construct_and_ask_read_their_where(self):
        assert read_set("CONSTRUCT { ?a ex:made ?b } WHERE { ?a ex:p ?b }") == ex("p")
        assert read_set("ASK { ?a ex:p ?b }") == ex("p")


class TestOneRegisterBody:
    """A read that fails to register is dropped by the source, silently.
    So registering is not each node's to write: the base class registers
    whatever the node *declares* it reads."""

    def node_classes(self):
        classes = [
            cls
            for cls in vars(pipeline).values()
            if inspect.isclass(cls)
            and issubclass(cls, pipeline.IncrementalNode)
            and cls is not pipeline.IncrementalNode
        ]
        assert len(classes) >= 16
        return classes

    def test_no_node_overrides_register(self):
        assert [cls.__name__ for cls in self.node_classes() if "register" in vars(cls)] == []

    def test_exactly_the_readers_declare_reads(self):
        # Scans read the delta; a streaming EXISTS filter, a re-derived
        # operator (for the EXISTS its template evaluates) and DESCRIBE read
        # the dataset.  Every other operator that evaluates an expression is
        # handed one without EXISTS: the compiler wraps the rest.
        declared = []
        for cls in self.node_classes():
            assigns_reads = "__init__" in vars(cls) and any(
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr == "reads"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls.__init__))))
            )
            if assigns_reads or "reads" in vars(cls):
                declared.append(cls.__name__)
        assert {
            "ScanNode", "PathScanNode", "ExistsFilterNode", "RederivedNode", "DescribeNode",
        } == set(declared)


class TestPathsThatMatchTheEmptyWalk:
    """``?x p* ?y`` relates *every node of the graph* to itself: with no
    endpoint pinned, any quad — whatever its predicate — contributes rows."""

    @pytest.mark.parametrize(
        "path",
        [
            "ex:p*",
            "ex:p?",
            "(ex:p*)+",
            "^(ex:p?)",
            "ex:p*/ex:q?",
            "ex:p|ex:q*",
            "(ex:p/ex:q)?",
        ],
    )
    def test_unpinned_nullable_path_reads_everything(self, path):
        assert read_set(f"SELECT * WHERE {{ ?a {path} ?b }}") is None
        assert read_set(f"SELECT * WHERE {{ ?a ex:r ?b FILTER EXISTS {{ ?a {path} ?c }} }}") is None
        assert (
            read_set(f"SELECT * WHERE {{ VALUES ?a {{ ex:n }} ?a {path} ?b }}") is None
        ), "the join, not the path leaf, applies the VALUES row"

    @pytest.mark.parametrize(
        "pattern, reads",
        [
            ("ex:n ex:p* ?b", ("p",)),
            ("?a ex:p? ex:n", ("p",)),
            ("?a ex:p+ ?b", ("p",)),
            ("?a ex:p*/ex:q ?b", ("p", "q")),
            ("?a ex:p/ex:q* ?b", ("p", "q")),
            ("?a (ex:p|ex:q)/^ex:r ?b", ("p", "q", "r")),
        ],
    )
    def test_pinned_or_non_nullable_path_reads_its_predicates(self, pattern, reads):
        assert read_set(f"SELECT * WHERE {{ {pattern} }}") == ex(*reads)


class TestExistsReadsWhereverItIsEvaluated:
    """EXISTS reads the dataset itself, so its patterns are reads of the plan
    whichever operator evaluates the expression — FILTER was the only one
    that said so before the source started dropping what nobody registered."""

    @pytest.mark.parametrize(
        "where",
        [
            "?a ex:p ?b FILTER EXISTS { ?b ex:q ?c }",
            "?a ex:p ?b FILTER (?a = ?b || NOT EXISTS { ?b ex:q ?c })",
            "?a ex:p ?b BIND (EXISTS { ?b ex:q ?c } AS ?e)",
            "?a ex:p ?b OPTIONAL { ?a ex:p ?c FILTER EXISTS { ?c ex:q ?b } }",
        ],
    )
    def test_in_filter_bind_and_optional(self, where):
        assert read_set(f"SELECT * WHERE {{ {where} }}") == ex("p", "q")

    def test_in_order_by_group_by_and_having(self):
        assert read_set(
            "SELECT * WHERE { ?a ex:p ?b } ORDER BY (EXISTS { ?b ex:q ?c })"
        ) == ex("p", "q")
        assert read_set(
            "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a ex:p ?b } GROUP BY ?a "
            "HAVING (EXISTS { ?a ex:q ?c })"
        ) == ex("p", "q")

    def test_exists_nested_inside_an_exists_pattern(self):
        assert read_set(
            "SELECT * WHERE { ?a ex:p ?b FILTER EXISTS { ?b ex:q ?c "
            "FILTER NOT EXISTS { ?c ex:r ?d } OPTIONAL { ?c ex:s ?e } } }"
        ) == ex("p", "q", "r", "s")


class TestReadSetIsAFunctionOfTheQuery:
    def test_replanning_never_changes_it(self):
        query = parse_query(
            EX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:r ?d "
            "FILTER EXISTS { ?d ex:s ?e } }"
        )
        pipeline = compile_query_pipeline(query)
        before = pipeline.read_set
        assert before == ex("p", "q", "r", "s")
        source = GrowingTripleSource(before)
        node = lambda name: NamedNode(f"http://x/{name}")  # noqa: E731
        triples = [Triple(node(f"n{i}"), node("p"), node("m")) for i in range(8)]
        triples += [Triple(node("m"), node("q"), node("k")), Triple(node("k"), node("r"), node("j"))]
        for index, triple in enumerate(triples):
            source.put_document(f"https://h/doc{index}", ParsedDocument([triple]))
            pipeline.advance(source.dataset)
        assert pipeline.replans > 0
        assert pipeline.read_set == before
        (bgp,) = pipeline.bgps
        pipeline.reorder(bgp, bgp.scans[::-1])
        assert pipeline.read_set == before


class TestExplainSaysWhatIsKept:
    def test_predicate_count_and_names(self):
        text = explain_plan(parse_query(EX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }"))
        assert "reads: 2 predicates\n  http://x/p\n  http://x/q\n" in text

    def test_wildcard_names_the_node_that_asked(self):
        assert "reads: everything (DescribeNode)" in explain_plan(
            parse_query(EX + "DESCRIBE ?a WHERE { ?a ex:p ?b }")
        )
        assert "reads: everything (PathScanNode)" in explain_plan(
            parse_query(EX + "SELECT * WHERE { ?a ex:p* ?b }")
        )
        assert "reads: everything (ExistsFilterNode)" in explain_plan(
            parse_query(EX + "SELECT * WHERE { ?a ex:p ?b FILTER EXISTS { ?b ?p ?c } }")
        )


def snapshot_over_fetched(universe, engine) -> SnapshotEvaluator:
    """The oracle: every document the engine fetched, parsed the way it
    parses them, in a source that keeps everything."""
    fetched = dict.fromkeys(record.url for record in engine.client.log.records if record.ok)
    dereferencer = Dereferencer(universe.client(latency=NoLatency()))
    source = GrowingTripleSource()

    async def load() -> None:
        for url in fetched:
            result = await dereferencer.dereference(url)
            source.put_document(result.url, result.document)

    asyncio.run(load())
    return SnapshotEvaluator(source.dataset)


class KnowsMatch(MatchIriExtractor):
    """cMatch over ``?x foaf:knows ?y`` whatever the query: the links of the
    ``knows`` triples.  cMatch itself follows every IRI for a path that can
    match any quad (an unpinned ``knows*``), which crawls every pod."""

    _context = build_query_context(parse_query(FOAF + "SELECT * WHERE { ?x foaf:knows ?y }").where)

    def reads(self, context):
        return super().reads(self._context)

    def discover(self, document_url, document, context):
        return super().discover(document_url, document, self._context)


class TestNullablePathThroughTheEngine:
    """The query the naive predicate filter got wrong (961 of 3,627 rows:
    the 31 × 31 ``knows`` closure without the 2,666 other nodes'
    self-pairs).  Discover 1.1's seed, cMatch over the ``knows`` triples on
    the paper-shaped pods: the 31 profile documents ``knows`` reaches (plain
cMatch for the pinned path).  (On
    default pods no unit is irrelevant to a bare path, and each source index
    lists its units' members: the crawl is every document of every pod.)"""

    @pytest.fixture(scope="class")
    def seeds(self, paper_small_universe):
        return discover_query(paper_small_universe, 1, 1).seeds

    def run(self, universe, seeds, text, extractor=KnowsMatch):
        engine = universe.fast_engine(extractors=[extractor()])
        execution = engine.query(FOAF + text, seeds=seeds).run_sync()
        expected = snapshot_over_fetched(universe, engine).select(parse_query(FOAF + text))
        assert Counter(execution.bindings) == Counter(expected)
        assert execution.stats.completeness()["complete"]
        return execution

    def test_star_between_two_variables(self, paper_small_universe, seeds):
        execution = self.run(
            paper_small_universe, seeds, "SELECT ?x ?y WHERE { ?x foaf:knows* ?y }"
        )
        assert len(execution.bindings) == 3627
        assert execution.stats.documents_fetched == 31
        assert execution.stats.triples_stored == execution.stats.triples_discovered == 4490

    def test_values_bound_start(self, paper_small_universe, seeds):
        execution = self.run(
            paper_small_universe,
            seeds,
            f"SELECT ?x ?y WHERE {{ VALUES ?x {{ <{seeds[0]}> }} ?x foaf:knows* ?y }}",
        )
        assert len(execution.bindings) == 31

    def test_filter_exists(self, paper_small_universe, seeds):
        execution = self.run(
            paper_small_universe,
            seeds,
            "SELECT ?x ?n WHERE { ?x foaf:name ?n FILTER EXISTS { ?x foaf:knows* ?y } }",
        )
        assert len(execution.bindings) > 0

    def test_pinned_start_stores_only_the_path_predicate(self, paper_small_universe, seeds):
        execution = self.run(
            paper_small_universe,
            seeds,
            f"SELECT ?y WHERE {{ <{seeds[0]}> foaf:knows* ?y }}",
            MatchIriExtractor,
        )
        assert len(execution.bindings) == 31
        assert execution.stats.triples_stored < execution.stats.triples_discovered == 4490
