"""Unit tests for the guided-traversal subsystem (DESIGN.md §4g)."""

import pytest

from repro.ltqp.guided.hints import CardinalityHints, container_relevant, query_scopes
from repro.ltqp.guided.selector import SourceSelector
from repro.ltqp.guided.subweb import SubwebRule, SubwebSpecification, glob_to_regex
from repro.ltqp.links import (
    Link,
    LinkProvenance,
    QueuePolicyContext,
    build_queue,
    queue_factory_for,
)
from repro.rdf.document import ParsedDocument
from repro.rdf.namespaces import RDF, SNVOC, SUBWEB
from repro.rdf.terms import Literal, NamedNode
from repro.rdf.triples import Triple
from repro.sparql.parser import parse_query

POD = "https://solidbench.example/pods/alice/"
OTHER = "https://solidbench.example/pods/bob/"


def hint_document(pod_base=POD, complete=True):
    doc = pod_base + "settings/cardinality"
    index = NamedNode(doc + "#index")
    posts = NamedNode(doc + "#c-posts")
    noise = NamedNode(doc + "#c-noise")
    triples = [
        Triple(index, SUBWEB.pod, NamedNode(pod_base)),
        Triple(index, SUBWEB.infra, NamedNode(pod_base)),
        Triple(index, SUBWEB.infra, NamedNode(pod_base + "settings/publicTypeIndex")),
        Triple(posts, SUBWEB.container, NamedNode(pod_base + "posts/")),
        Triple(posts, SUBWEB["class"], SNVOC.Post),
        Triple(posts, SUBWEB.predicate, SNVOC.hasCreator),
        Triple(posts, SUBWEB.predicate, SNVOC.content),
        Triple(posts, SUBWEB.predicate, RDF.type),
        Triple(posts, SUBWEB.documents, Literal("28")),
        Triple(posts, SUBWEB.entities, Literal("900")),
        Triple(noise, SUBWEB.container, NamedNode(pod_base + "noise/")),
        Triple(noise, SUBWEB.predicate, NamedNode("https://x/p0")),
        Triple(noise, SUBWEB.documents, Literal("18")),
        Triple(noise, SUBWEB.entities, Literal("0")),
    ]
    if complete:
        triples.append(Triple(index, SUBWEB.completeIndex, Literal("true")))
    return doc, ParsedDocument(triples)


def where_of(text: str):
    return parse_query(text).where


CREATOR_QUERY = (
    f"PREFIX snvoc: <{SNVOC.hasCreator.value.rsplit('hasCreator', 1)[0]}>\n"
    "SELECT ?c WHERE { ?m snvoc:hasCreator <https://x/me> ; snvoc:content ?c }"
)


class TestGlob:
    def test_star_stays_within_segment(self):
        pattern = glob_to_regex("https://h/pods/*/posts/")
        assert pattern.match("https://h/pods/alice/posts/")
        assert not pattern.match("https://h/pods/alice/sub/posts/")

    def test_double_star_crosses_segments(self):
        pattern = glob_to_regex("https://h/pods/**")
        assert pattern.match("https://h/pods/alice/posts/2012-01-01")

    def test_match_is_anchored(self):
        assert not glob_to_regex("https://h/a").match("https://h/ab")


class TestSubwebSpecification:
    def test_first_match_wins(self):
        spec = SubwebSpecification(
            rules=(
                SubwebRule(match=f"{POD}noise/**", action="deny", label="noise"),
                SubwebRule(match=f"{POD}**", action="allow"),
            ),
            default_action="deny",
        )
        assert spec.decide(POD + "noise/noise-3", 2) == (False, "noise")
        assert spec.decide(POD + "posts/2012-01-01", 2)[0]
        assert spec.decide("https://elsewhere.example/x", 1) == (False, "default")

    def test_allow_rule_depth_cap(self):
        spec = SubwebSpecification(
            rules=(SubwebRule(match="https://h/**", action="allow", max_depth=2, label="h"),)
        )
        assert spec.decide("https://h/doc", 2)[0]
        allowed, rule = spec.decide("https://h/doc", 3)
        assert not allowed and rule == "depth>2:h"

    def test_json_roundtrip(self):
        spec = SubwebSpecification(
            rules=(SubwebRule(match="https://h/**", action="deny", label="x"),),
            default_action="allow",
            origins="declared",
            admit_origins_via=(SNVOC.likes.value,),
            source_depth=2,
        )
        assert SubwebSpecification.from_json(spec.to_json()) == spec

    def test_compose_is_stricter(self):
        base = SubwebSpecification(origins="any", source_depth=1)
        extra = SubwebSpecification(
            rules=(SubwebRule(match="https://h/x/**", action="deny"),),
            origins="declared",
            admit_origins_via=(SNVOC.likes.value,),
            source_depth=2,
        )
        merged = base.compose(extra)
        assert merged.origins == "declared"
        assert merged.source_depth == 2
        assert merged.admit_origins_via == (SNVOC.likes.value,)
        assert not merged.decide("https://h/x/doc", 1)[0]

    def test_from_triples_parses_rdf_form(self):
        spec_iri = NamedNode("https://h/spec#it")
        rule = NamedNode("https://h/spec#r1")
        triples = [
            Triple(spec_iri, SUBWEB.defaultAction, Literal("deny")),
            Triple(spec_iri, SUBWEB.origins, Literal("declared")),
            Triple(spec_iri, SUBWEB.admitVia, SNVOC.likes),
            Triple(spec_iri, SUBWEB.sourceDepth, Literal("2")),
            Triple(rule, SUBWEB.match, Literal("https://h/**")),
            Triple(rule, SUBWEB.action, Literal("allow")),
            Triple(rule, SUBWEB.maxDepth, Literal("3")),
        ]
        spec = SubwebSpecification.from_document(ParsedDocument(triples))
        assert spec is not None
        assert spec.default_action == "deny"
        assert spec.origins == "declared"
        assert spec.source_depth == 2
        assert spec.decide("https://h/doc", 3)[0]
        assert not spec.decide("https://h/doc", 4)[0]

    def test_from_triples_ignores_unrelated_documents(self):
        triples = [Triple(NamedNode("https://h/a"), SNVOC.likes, NamedNode("https://h/b"))]
        assert SubwebSpecification.from_document(ParsedDocument(triples)) is None


class TestCardinalityHints:
    def test_absorb_and_lookup(self):
        url, document = hint_document()
        hints = CardinalityHints()
        pod = hints.absorb_document(url, document)
        assert pod is not None and pod.complete
        assert hints.pod_for(POD + "posts/2012-01-01") is pod
        assert hints.pod_by_source(url) is pod
        assert pod.container_for(POD + "posts/2012-01-01").entities == 900

    def test_non_hint_document_is_ignored(self):
        hints = CardinalityHints()
        assert hints.absorb_document("https://h/x", ParsedDocument()) is None
        assert hints.pod_count == 0

    @pytest.mark.parametrize(
        "served_from",
        [
            OTHER + "settings/cardinality",  # another pod on the same host
            "https://elsewhere.example/pods/alice/settings/cardinality",
            POD.rstrip("/") + "-evil/settings/cardinality",  # a string prefix, not a directory
        ],
    )
    def test_an_index_served_from_outside_the_pod_it_declares_is_rejected(self, served_from):
        _, document = hint_document(POD)
        hints = CardinalityHints()
        assert hints.absorb_document(served_from, document) is None
        assert (hints.pod_count, hints.rejected) == (0, 1)
        assert hints.pod_for(POD + "posts/2012-01-01") is None
        assert hints.pod_by_source(served_from) is None

    def test_a_base_that_is_no_directory_is_rejected(self):
        base = POD.rstrip("/")
        _, document = hint_document(base)
        hints = CardinalityHints()
        assert hints.absorb_document(base + "/settings/cardinality", document) is None
        assert hints.rejected == 1

    def test_entries_outside_the_declared_base_are_dropped(self):
        url, document = hint_document()
        foreign = NamedNode(url + "#c-foreign")
        document = ParsedDocument(
            list(document)
            + [
                Triple(NamedNode(url + "#index"), SUBWEB.infra, NamedNode(OTHER)),
                Triple(foreign, SUBWEB.container, NamedNode(OTHER + "posts/")),
                Triple(foreign, SUBWEB.predicate, NamedNode("https://x/nothing")),
            ]
        )
        hints = CardinalityHints()
        pod = hints.absorb_document(url, document)
        assert OTHER not in pod.infra and POD in pod.infra
        assert {hint.container for hint in pod.containers} == {POD + "posts/", POD + "noise/"}
        assert hints.pod_for(OTHER + "posts/2012-01-01") is None
        assert hints.rejected == 0

    def test_nested_bases_resolve_to_the_innermost(self):
        hints = CardinalityHints()
        outer_url, outer_document = hint_document("https://solidbench.example/pods/")
        outer = hints.absorb_document(outer_url, outer_document)
        inner = hints.absorb_document(*hint_document(POD))
        assert hints.pod_for(POD + "posts/2012-01-01") is inner
        assert hints.pod_for(POD) is inner
        assert hints.pod_for(OTHER + "posts/x") is outer
        assert hints.pod_for("https://solidbench.example/elsewhere") is None
        assert hints.pod_for("https://other.example/pods/alice/posts/x") is None

    def test_lookups_probe_the_urls_own_prefixes_not_every_pod(self):
        """Absorbing more pods must not make a lookup look at more keys."""

        class CountingDict(dict):
            probes = 0

            def get(self, key, default=None):
                CountingDict.probes += 1
                return super().get(key, default)

        hints = CardinalityHints()
        hints._pods = CountingDict()
        for index in range(200):
            hints.absorb_document(*hint_document(f"https://solidbench.example/pods/p{index}/"))
        CountingDict.probes = 0
        assert hints.pod_for("https://solidbench.example/pods/p7/posts/2012-01-01").pod.endswith("/p7/")
        assert hints.pod_for("https://solidbench.example/nowhere/else/at/all") is None
        assert CountingDict.probes <= 10

    def test_a_root_level_document_is_its_own_summary_unit(self):
        url = POD + "settings/cardinality"
        unit = NamedNode(url + "#c-posts")
        document = ParsedDocument(
            [
                Triple(NamedNode(url + "#index"), SUBWEB.pod, NamedNode(POD)),
                Triple(unit, SUBWEB.container, NamedNode(POD + "posts")),
                Triple(unit, SUBWEB.entities, Literal("12")),
            ]
        )
        pod = CardinalityHints().absorb_document(url, document)
        assert pod.container_for(POD + "posts").entities == 12
        assert pod.container_for(POD + "posts-elsewhere") is None
        assert pod.container_for(POD + "posts/2012") is None


class TestRelevance:
    def test_noise_container_is_irrelevant_to_creator_query(self):
        url, document = hint_document()
        hints = CardinalityHints()
        pod = hints.absorb_document(url, document)
        scopes = query_scopes(where_of(CREATOR_QUERY))
        posts = pod.container_for(POD + "posts/x")
        noise = pod.container_for(POD + "noise/x")
        assert container_relevant(posts, scopes, pod.ranges)
        assert not container_relevant(noise, scopes, pod.ranges)

    def test_no_scopes_means_everything_relevant(self):
        url, document = hint_document()
        hints = CardinalityHints()
        pod = hints.absorb_document(url, document)
        noise = pod.container_for(POD + "noise/x")
        assert container_relevant(noise, (), pod.ranges)


class TestRangesAreThePodsOwn:
    REPLY_QUERY = (
        f"PREFIX snvoc: <{SNVOC.hasCreator.value.rsplit('hasCreator', 1)[0]}>\n"
        "SELECT ?c WHERE { ?m snvoc:hasReply ?r . ?r snvoc:content ?c }"
    )

    @staticmethod
    def index_with_posts(pod_base, range_class=None):
        url = pod_base + "settings/cardinality"
        posts = NamedNode(url + "#c-posts")
        triples = [
            Triple(NamedNode(url + "#index"), SUBWEB.pod, NamedNode(pod_base)),
            Triple(posts, SUBWEB.container, NamedNode(pod_base + "posts/")),
            Triple(posts, SUBWEB["class"], SNVOC.Post),
            # No hasReply in there: only ``?r`` could bind from this container.
            Triple(posts, SUBWEB.predicate, SNVOC.content),
        ]
        if range_class is not None:
            declared = NamedNode(url + "#r0")
            triples += [
                Triple(declared, SUBWEB.rangeOf, SNVOC.hasReply),
                Triple(declared, SUBWEB.rangeClass, range_class),
            ]
        return url, ParsedDocument(triples)

    def test_one_pods_ranges_do_not_judge_anothers_containers(self):
        """Alice declares every ``hasReply`` object a Comment, which makes
        her Post container irrelevant to ``?r``; Bob declares nothing and
        his stays relevant — her word is not universe-wide."""
        selector = SourceSelector(where=where_of(self.REPLY_QUERY))
        selector.absorb_document(*self.index_with_posts(POD, SNVOC.Comment))
        selector.absorb_document(*self.index_with_posts(OTHER))
        assert selector.check_static(Link(POD + "posts/x")).rule == "hint:irrelevant"
        assert selector.check_static(Link(OTHER + "posts/x")).action == "follow"


class TestLinksWaitForTheIndexTheirDocumentAdvertises:
    CARD = POD + "profile/card"
    INDEX = POD + "settings/cardinality"

    def card(self):
        return ParsedDocument(
            [Triple(NamedNode(self.CARD + "#me"), SUBWEB.cardinalityIndex, NamedNode(self.INDEX))]
        )

    def selector_past_the_card(self):
        selector = SourceSelector(where=where_of(CREATOR_QUERY), seeds=[self.CARD])
        assert selector.absorb_document(self.CARD, self.card()) == []
        return selector

    def test_siblings_wait_the_index_link_itself_does_not(self):
        selector = self.selector_past_the_card()
        root = Link(POD, parent_url=self.CARD, via="storage")
        index = Link(self.INDEX, parent_url=self.CARD, via="hint")
        unrelated = Link(POD, parent_url=OTHER + "profile/card")
        decision = selector.check(root)
        assert (decision.action, decision.rule) == ("defer", "index:pending")
        assert selector.check(index).action == "follow"
        assert selector.check(unrelated).action == "follow"

    def test_the_index_arriving_releases_them_to_be_judged_by_it(self):
        selector = self.selector_past_the_card()
        root = Link(POD, parent_url=self.CARD, via="storage")
        posts = Link(POD + "posts/2012-01-01", parent_url=self.CARD, via="match")
        for link in (root, posts):
            assert selector.check(link).action == "defer"
            selector.defer(link)
        released = selector.absorb_document(*hint_document())
        assert [link.url for link in released] == [root.url, posts.url]
        assert selector.check(root).rule == "hint:infra"
        assert selector.check(posts).action == "follow"
        assert selector.deferred_count == 0

    def test_whatever_arrives_at_the_index_url_ends_the_wait(self):
        selector = self.selector_past_the_card()
        root = Link(POD, parent_url=self.CARD)
        selector.defer(root)
        assert selector.absorb_document(self.INDEX, ParsedDocument()) == [root]
        assert selector.check(root).action == "follow"

    def test_an_index_that_never_arrives_is_given_up_on_at_quiescence(self):
        selector = self.selector_past_the_card()
        root = Link(POD, parent_url=self.CARD)
        selector.defer(root)
        assert selector.release_unjudged() == [root]
        assert selector.check(root).action == "follow"  # unjudged: no hints arrived
        assert selector.release_unjudged() == []

    def test_links_a_bounded_run_left_waiting_are_not_drained_as_pruned(self):
        selector = self.selector_past_the_card()
        selector.defer(Link(POD, parent_url=self.CARD))
        assert selector.drain_deferred() == []

    def test_an_index_already_absorbed_is_not_waited_for(self):
        selector = SourceSelector(where=where_of(CREATOR_QUERY), seeds=[self.CARD])
        selector.absorb_document(*hint_document())
        selector.absorb_document(self.CARD, self.card())
        assert selector.check(Link(POD + "posts/x", parent_url=self.CARD)).action == "follow"


class TestSourceSelector:
    def test_spec_prune_and_infra_prune(self):
        spec = SubwebSpecification(
            rules=(SubwebRule(match="**/noise/**", action="deny", label="noise"),)
        )
        selector = SourceSelector(spec=spec, where=where_of(CREATOR_QUERY), seeds=[POD])
        url, document = hint_document()
        selector.absorb_document(url, document)
        assert selector.check_static(Link(POD + "noise/noise-1")).action == "prune"
        assert selector.check_static(Link(POD)).rule == "hint:infra"
        assert selector.check_static(Link(POD + "posts/2012-01-01")).action == "follow"

    def test_defer_then_release_on_admission(self):
        spec = SubwebSpecification(
            origins="declared",
            admit_origins_via=(SNVOC.likes.value,),
            source_depth=2,
        )
        selector = SourceSelector(spec=spec, seeds=[POD + "profile/card"])
        foreign = Link(OTHER + "posts/2012-01-01", via="match")
        assert selector.check(foreign).action == "defer"
        selector.defer(foreign)
        assert selector.deferred_count == 1
        released = selector.absorb_document(
            POD + "profile/card",
            ParsedDocument(
                [
                    Triple(
                        NamedNode(POD + "profile/card#me"),
                        SNVOC.likes,
                        NamedNode(OTHER + "posts/2012-01-01#42"),
                    )
                ]
            ),
        )
        assert [link.url for link in released] == [foreign.url]
        assert selector.check(foreign).action == "follow"
        assert selector.drain_deferred() == []

    def test_undeclared_links_drain_as_pruned(self):
        spec = SubwebSpecification(origins="declared", source_depth=2)
        selector = SourceSelector(spec=spec, seeds=[POD])
        link = Link(OTHER + "x")
        selector.defer(link)
        assert [parked.url for parked in selector.drain_deferred()] == [link.url]
        assert selector.deferred_count == 0


def guided_queue(context=None):
    return build_queue(
        queue_factory_for("guided"), context if context is not None else QueuePolicyContext()
    )


class TestGuidedQueue:
    def test_provenance_tiers_order_pops(self):
        queue = guided_queue()
        queue.push(Link("https://h/data", provenance=LinkProvenance(extractor="match")))
        queue.push(Link("https://h/root", provenance=LinkProvenance(extractor="storage")))
        queue.push(Link("https://h/hint", provenance=LinkProvenance(extractor="hint")))
        assert [queue.pop().url for _ in range(3)] == [
            "https://h/hint",
            "https://h/root",
            "https://h/data",
        ]

    def test_query_predicate_links_jump_the_tiers(self):
        # A match link produced by a predicate the query uses is a join
        # edge — it pops ahead of container structure, not after it.
        from repro.ltqp.extractors import build_query_context

        context = QueuePolicyContext(query=build_query_context(where_of(CREATOR_QUERY)))
        queue = guided_queue(context)
        queue.push(
            Link(
                "https://h/bob/posts/9",
                provenance=LinkProvenance(
                    extractor="match", predicate=SNVOC.hasCreator.value
                ),
            )
        )
        queue.push(
            Link(
                "https://h/alice/posts/",
                provenance=LinkProvenance(extractor="hint-container"),
            )
        )
        queue.push(
            Link(
                "https://h/bob/card",
                provenance=LinkProvenance(
                    extractor="match", predicate=SNVOC.knows.value
                ),
            )
        )
        assert [queue.pop().url for _ in range(3)] == [
            "https://h/bob/posts/9",
            "https://h/alice/posts/",
            "https://h/bob/card",
        ]

    def test_requeue_preserves_provenance_and_rank(self):
        # Regression: a retryable failure must not demote the link — the
        # requeued copy keeps its provenance and therefore its queue rank.
        import dataclasses

        queue = guided_queue()
        storage = Link(
            "https://h/root", via="storage", provenance=LinkProvenance(extractor="storage")
        )
        queue.push(storage)
        popped = queue.pop()
        queue.push(Link("https://h/data", provenance=LinkProvenance(extractor="match")))
        assert queue.requeue(dataclasses.replace(popped, attempts=popped.attempts + 1))
        head = queue.pop()
        assert head.url == "https://h/root"
        assert head.attempts == 1
        assert head.provenance == storage.provenance
