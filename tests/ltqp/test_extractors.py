"""Unit tests for link extraction strategies."""

import pytest

from repro.ltqp.extractors import (
    AllIriExtractor,
    LdpContainerExtractor,
    MatchIriExtractor,
    QueryContext,
    ScopedLdpContainerExtractor,
    StorageExtractor,
    TypeIndexExtractor,
    build_query_context,
    default_extractors,
)
from repro.rdf import LDP, Literal, NamedNode, ParsedDocument, PIM, RDF, SNVOC, SOLID, Triple
from repro.rdf.triples import TriplePattern
from repro.rdf import Variable
from repro.sparql import parse_query

DOC = "https://h/pods/1/doc"


def n(value):
    return NamedNode(value)


def extract(extractor, triples, context=None):
    context = context if context is not None else QueryContext()
    return {url for url, _ in extractor.discover(DOC, ParsedDocument(triples), context)}


class TestAllIris:
    def test_extracts_every_http_iri(self):
        triples = [
            Triple(n("https://h/a"), n("https://h/p"), n("https://h/b")),
            Triple(n("https://h/a"), n("https://h/p"), Literal("not a link")),
            Triple(n("urn:uuid:xyz"), n("https://h/p"), n("https://h/c")),
        ]
        result = extract(AllIriExtractor(), triples)
        assert result == {"https://h/a", "https://h/p", "https://h/b", "https://h/c"}


class TestMatchIris:
    def test_only_matching_triples_contribute(self):
        context = QueryContext(
            patterns=(TriplePattern(Variable("m"), SNVOC.hasCreator, Variable("c")),)
        )
        matching = Triple(n("https://h/msg"), SNVOC.hasCreator, n("https://h/person"))
        other = Triple(n("https://h/x"), n("https://h/unrelated"), n("https://h/y"))
        result = extract(MatchIriExtractor(), [matching, other], context)
        assert "https://h/msg" in result and "https://h/person" in result
        assert "https://h/x" not in result

    def test_no_patterns_means_no_links(self):
        triples = [Triple(n("https://h/a"), n("https://h/p"), n("https://h/b"))]
        assert extract(MatchIriExtractor(), triples, QueryContext()) == set()


class TestLdpExtractor:
    def test_follows_contains(self):
        triples = [
            Triple(n(DOC), LDP.contains, n("https://h/pods/1/posts/")),
            Triple(n(DOC), RDF.type, LDP.Container),
        ]
        assert extract(LdpContainerExtractor(), triples) == {"https://h/pods/1/posts/"}


class TestStorageExtractor:
    def test_follows_pim_storage(self):
        triples = [Triple(n("https://h/card#me"), PIM.storage, n("https://h/pods/1/"))]
        assert extract(StorageExtractor(), triples) == {"https://h/pods/1/"}


class TestTypeIndexExtractor:
    def make_index(self):
        reg_post = n("https://h/idx#post")
        reg_comment = n("https://h/idx#comment")
        return [
            Triple(reg_post, SOLID.forClass, SNVOC.Post),
            Triple(reg_post, SOLID.instanceContainer, n("https://h/pods/1/posts/")),
            Triple(reg_comment, SOLID.forClass, SNVOC.Comment),
            Triple(reg_comment, SOLID.instance, n("https://h/pods/1/comments")),
        ]

    def test_follows_type_index_link(self):
        triples = [Triple(n("https://h/card#me"), SOLID.publicTypeIndex, n("https://h/idx"))]
        assert extract(TypeIndexExtractor(), triples) == {"https://h/idx"}

    def test_unconstrained_query_follows_all_registrations(self):
        result = extract(TypeIndexExtractor(), self.make_index(), QueryContext())
        assert result == {"https://h/pods/1/posts/", "https://h/pods/1/comments"}

    def test_class_constrained_query_filters_registrations(self):
        context = QueryContext(classes=frozenset({SNVOC.Post}))
        result = extract(TypeIndexExtractor(), self.make_index(), context)
        assert result == {"https://h/pods/1/posts/"}

    def test_registration_without_forclass_always_followed(self):
        triples = [Triple(n("https://h/idx#r"), SOLID.instance, n("https://h/pods/1/data"))]
        context = QueryContext(classes=frozenset({SNVOC.Post}))
        assert extract(TypeIndexExtractor(), triples, context) == {"https://h/pods/1/data"}


class TestBuildQueryContext:
    def test_collects_predicates_classes_and_iris(self):
        query = parse_query(
            f"""PREFIX snvoc: <{SNVOC.base}>
            PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
            SELECT ?c WHERE {{
              ?m snvoc:hasCreator <https://h/card#me> ;
                 rdf:type snvoc:Post ;
                 snvoc:content ?c .
            }}"""
        )
        context = build_query_context(query.where)
        assert SNVOC.hasCreator in context.predicates
        assert SNVOC.Post in context.classes
        assert "https://h/card#me" in context.entity_iris
        assert SNVOC.Post.value not in context.entity_iris  # classes are not seeds

    def test_path_predicates_included(self):
        query = parse_query(
            f"""PREFIX snvoc: <{SNVOC.base}>
            SELECT ?m WHERE {{ <https://h/card#me> snvoc:likes/(snvoc:hasPost|snvoc:hasComment) ?m }}"""
        )
        context = build_query_context(query.where)
        assert SNVOC.hasPost in context.predicates
        assert SNVOC.hasComment in context.predicates

    @pytest.mark.parametrize(
        "path, link",
        [
            ("<http://x/p>/<http://x/q>", "https://h/b"),  # the q triple's object
            ("^<http://x/q>", "https://h/g"),  # ?b q <a>: the subject
            ("<http://x/q>*", "https://h/b"),  # a closure's later step
        ],
    )
    def test_a_path_member_matches_off_the_path_ends(self, path, link):
        """Only a forward predicate (or an alternation of them) keeps the
        path's ends on its member patterns; in a sequence, inverse or
        closure, cMatch follows a member's triple wherever it lies."""
        query = parse_query(f"SELECT ?b WHERE {{ <https://h/a> {path} ?b }}")
        context = build_query_context(query.where)
        triples = [
            Triple(n("https://h/a"), n("http://x/p"), n("https://h/g")),
            Triple(n("https://h/g"), n("http://x/q"), n("https://h/b")),
            Triple(n("https://h/g"), n("http://x/q"), n("https://h/a")),
        ]
        assert link in extract(MatchIriExtractor(), triples, context)
        assert "https://h/a" in context.entity_iris  # still the query's seed

    def test_a_forward_alternation_keeps_its_ends(self):
        query = parse_query("SELECT ?b WHERE { <https://h/a> (<http://x/p>|<http://x/q>) ?b }")
        context = build_query_context(query.where)
        assert {pattern.subject for pattern in context.patterns} == {n("https://h/a")}

    def test_patterns_from_union_and_optional(self):
        query = parse_query(
            """SELECT ?x WHERE {
                 { ?x <http://x/a> ?y } UNION { ?x <http://x/b> ?y }
                 OPTIONAL { ?y <http://x/c> ?z }
               }"""
        )
        context = build_query_context(query.where)
        assert {p.value for p in context.predicates} == {"http://x/a", "http://x/b", "http://x/c"}


class TestDefaults:
    def test_default_stack_is_solid_aware(self):
        names = {extractor.name for extractor in default_extractors()}
        assert names == {"match", "ldp-container", "storage", "type-index"}


class TestExtractorStateIsPerExecution:
    """Extractor *instances* belong to the engine and serve every query it
    runs; what they remember of one execution lives on that execution's
    context.  Before, ``TypeIndexExtractor.registered_targets`` grew with
    every query and a scoped crawl descended into containers a previous
    query's classes had registered."""

    @staticmethod
    def typed_query(pod, cls):
        return (
            f"SELECT ?m WHERE {{ ?m <{RDF.type.value}> <{cls.value}> ; "
            f"<{SNVOC.hasCreator.value}> <{pod.webid}> }}"
        )

    def test_second_query_sees_nothing_of_the_first(self, paper_tiny_universe):
        # Paper-shaped pods: registrations come from the type index (on
        # default pods the source index lists members, and registers nothing).
        tiny_universe = paper_tiny_universe
        pod = next(iter(tiny_universe.pods.values()))
        seen = []  # the registered-target set each discover call was handed

        class Spy(LdpContainerExtractor):
            name = "spy"

            def discover(self, document_url, document, context):
                seen.append(context.registered_targets)
                return iter(())

        def scoped_engine():
            stack = [MatchIriExtractor(), StorageExtractor(), TypeIndexExtractor(),
                     ScopedLdpContainerExtractor(), Spy()]
            return tiny_universe.fast_engine(extractors=stack)

        # Comments, asked from a seed set that also names the posts container:
        # nothing registers posts/ for this query, so it is listed, not descended.
        comments = self.typed_query(pod, SNVOC.Comment)
        seeds = [pod.profile_url, pod.base_url + "posts/"]
        alone = scoped_engine().query(comments, seeds=seeds).run_sync()
        registered_alone = seen[-1]
        assert registered_alone == {pod.base_url + "comments/"}

        shared = scoped_engine()
        posts = shared.query(self.typed_query(pod, SNVOC.Post), seeds=[pod.profile_url]).run_sync()
        assert seen[-1] == {pod.base_url + "posts/"} and len(posts) > 0
        after = shared.query(comments, seeds=seeds).run_sync()
        assert seen[-1] == registered_alone and seen[-1] is not registered_alone
        assert after.stats.documents_fetched == alone.stats.documents_fetched
        assert after.stats.links_by_extractor == alone.stats.links_by_extractor
        assert sorted(map(str, after.bindings)) == sorted(map(str, alone.bindings))


class TestAHintContainerLinkIsARegistration:
    """E8's ``type-index`` stack reaches containers only through what the
    type index *registers* (``ScopedLdpContainerExtractor`` descends nowhere
    else).  On a pod with a complete source index the type index is pruned
    as redundant, so what the index names must stand in for it: the
    members it lists, or a container it names, which registers — it used
    to list ``posts/`` via ``hint-container`` and return 0 of 28 rows."""

    @staticmethod
    def scoped_run(universe, template):
        from repro.bench.harness import oracle_bindings
        from repro.solidbench import discover_query

        query = discover_query(universe, template, 1)
        stack = [MatchIriExtractor(), StorageExtractor(), TypeIndexExtractor(),
                 ScopedLdpContainerExtractor()]
        execution = universe.fast_engine(extractors=stack).query(
            query.text, seeds=query.seeds
        ).run_sync()
        expected = oracle_bindings(universe, query)
        assert expected and set(execution.bindings) == expected
        return execution.stats

    @pytest.mark.parametrize("template", [1, 2, 6])
    def test_the_scoped_stack_is_oracle_equal_on_default_pods(
        self, tiny_universe, paper_tiny_universe, template
    ):
        assert tiny_universe.config.emit_hints
        stats = self.scoped_run(tiny_universe, template)
        assert stats.pruned_by_rule == {"hint:infra": 2}  # root, type index
        assert stats.links_by_extractor["hint-member"] > 0
        # The type index itself was linked, then pruned unread: no registration came from it.
        assert stats.links_by_extractor["type-index"] == 1
        # Where no index stands in, the type index registers and the scoped extractor descends.
        assert self.scoped_run(paper_tiny_universe, template).links_by_extractor["ldp-scoped"] > 0

    def test_a_unit_without_members_is_a_registration(self, tiny_universe):
        """An index that names a container but not its members (an older
        index): the container link registers, and the scoped stack descends."""
        from repro.ltqp.guided import HintDiscoveryExtractor, SourceSelector
        from repro.rdf.namespaces import SUBWEB

        pod = next(iter(tiny_universe.pods.values()))
        url = pod.base_url + "settings/cardinality"
        listed = ParsedDocument(pod.document("settings/cardinality").triples)
        unlisted = ParsedDocument([t for t in listed if t.predicate != SUBWEB.member])
        links = {}
        for name, document in (("listed", listed), ("unlisted", unlisted)):
            selector, context = SourceSelector(), QueryContext()
            selector.absorb_document(url, document)
            links[name] = list(HintDiscoveryExtractor(selector).discover(url, document, context))
            links[name + " registers"] = context.registered_targets
        assert {provenance.extractor for _, provenance in links["listed"]} == {"hint-member"}
        assert {provenance.extractor for _, provenance in links["unlisted"]} == {"hint-container"}
        assert links["listed registers"] == set()
        assert links["unlisted registers"] == {target for target, _ in links["unlisted"]}
