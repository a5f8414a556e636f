"""Property tests for the parsed-document value and the readers over it.

Two invariants of "read a document once":

* ``ParsedDocument.select(P)`` is ``[t for t in triples if t.predicate in
  P]`` — order included — for any document (duplicate triples, blank nodes,
  several predicates) and any predicate set.
* Every shipped extractor, reading its buckets of the value, yields exactly
  the ``(url, provenance)`` *sequence* its former full-scan body yields.
  Extraction order within a document decides queue order, so it is part of
  the contract; the former bodies are kept below as the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.ltqp.extractors import (
    AllIriExtractor,
    LdpContainerExtractor,
    MatchIriExtractor,
    QueryContext,
    ScopedLdpContainerExtractor,
    StorageExtractor,
    TypeIndexExtractor,
    _iris_of,
    _render_pattern,
    default_extractors,
)
from repro.ltqp.guided import HintDiscoveryExtractor, SourceSelector
from repro.ltqp.links import LinkProvenance
from repro.rdf import BlankNode, Literal, NamedNode, ParsedDocument, Triple, Variable
from repro.rdf.namespaces import LDP, PIM, RDF, SNVOC, SOLID, SUBWEB
from repro.rdf.triples import TriplePattern

DOC = "https://h/pods/1/settings/cardinality"

# -- the former full-scan bodies (the oracle) ---------------------------------


def scan_all_iris(url, triples, context, targets):
    provenance = LinkProvenance(extractor="all-iris")
    for triple in triples:
        for iri in _iris_of(triple):
            yield iri, provenance


def scan_match(url, triples, context, targets):
    if not context.patterns:
        return
    by_predicate, wildcard = {}, []
    for pattern in context.patterns:
        predicate = pattern.predicate
        if predicate is None or isinstance(predicate, Variable):
            wildcard.append(pattern)
        else:
            by_predicate.setdefault(predicate, []).append(pattern)
    provenance_cache = {}
    for triple in triples:
        candidates = by_predicate.get(triple.predicate)
        if candidates is not None:
            if wildcard:
                candidates = candidates + wildcard
        elif wildcard:
            candidates = wildcard
        else:
            continue
        for pattern in candidates:
            if pattern.matches(triple):
                key = (triple.predicate, pattern)
                provenance = provenance_cache.get(key)
                if provenance is None:
                    provenance = provenance_cache[key] = LinkProvenance(
                        extractor="match",
                        predicate=triple.predicate.value,
                        pattern=_render_pattern(pattern),
                    )
                for iri in _iris_of(triple):
                    yield iri, provenance
                break


def scan_ldp(url, triples, context, targets, name="ldp-container"):
    provenance = LinkProvenance(extractor=name, predicate=LDP.contains.value)
    for triple in triples:
        if triple.predicate == LDP.contains and isinstance(triple.object, NamedNode):
            yield triple.object.value, provenance


def scan_storage(url, triples, context, targets):
    provenance = LinkProvenance(extractor="storage", predicate=PIM.storage.value)
    for triple in triples:
        if triple.predicate == PIM.storage and isinstance(triple.object, NamedNode):
            yield triple.object.value, provenance


def scan_type_index(url, triples, context, targets):
    triple_list = list(triples)
    index_provenance = None
    for triple in triple_list:
        if triple.predicate in (SOLID.publicTypeIndex, SOLID.privateTypeIndex):
            if isinstance(triple.object, NamedNode):
                if index_provenance is None:
                    index_provenance = LinkProvenance(
                        extractor="type-index", predicate=triple.predicate.value
                    )
                yield triple.object.value, index_provenance
    for_class, registered = {}, {}
    for triple in triple_list:
        if triple.predicate == SOLID.forClass and isinstance(triple.object, NamedNode):
            for_class.setdefault(triple.subject, set()).add(triple.object)
        elif triple.predicate in (SOLID.instance, SOLID.instanceContainer):
            if isinstance(triple.object, NamedNode):
                registered.setdefault(triple.subject, []).append(triple.object)
    for registration, links in registered.items():
        classes = for_class.get(registration, set())
        if context.constrains_classes and classes and not (classes & context.classes):
            continue
        provenance = LinkProvenance(
            extractor="type-index",
            predicate=SOLID.instanceContainer.value,
            for_class=min(c.value for c in classes) if classes else None,
        )
        for target in links:
            targets.add(target.value)
            yield target.value, provenance


def scan_scoped(url, triples, context, targets):
    if not any(url.startswith(target) for target in targets):
        return
    yield from scan_ldp(url, triples, context, targets, name="ldp-scoped")


def scan_hints(selector):
    def scan(url, triples, context, targets):
        for triple in list(triples):
            if triple.predicate in (SUBWEB.cardinalityIndex, SUBWEB.specification):
                if isinstance(triple.object, NamedNode):
                    yield triple.object.value, LinkProvenance(
                        extractor="hint", predicate=triple.predicate.value
                    )
        pod = selector.hints.pod_by_source(url)
        if pod is not None:
            for hint in selector.relevant_containers(pod):
                first_class = min(hint.classes) if hint.classes else None
                if pod.complete and hint.members:  # listed members replace the container
                    for member in sorted(hint.members):
                        yield member, LinkProvenance(
                            extractor="hint-member", for_class=first_class
                        )
                    continue
                targets.add(hint.container)  # a hint-container link is a registration
                yield hint.container, LinkProvenance(
                    extractor="hint-container", for_class=first_class
                )

    return scan


# -- a small closed world that exercises every extractor ----------------------

_iris = [NamedNode(f"https://h/pods/{i}/") for i in range(3)] + [
    NamedNode("https://h/pods/1/posts/2012#it"),
    NamedNode("urn:uuid:not-a-link"),
    NamedNode("https://h/idx#post"),
]
_blanks = [BlankNode(f"b{i}") for i in range(2)]
_classes = [SNVOC.Post, SNVOC.Comment]
_predicates = [
    LDP.contains,
    PIM.storage,
    SOLID.publicTypeIndex,
    SOLID.privateTypeIndex,
    SOLID.forClass,
    SOLID.instance,
    SOLID.instanceContainer,
    SUBWEB.cardinalityIndex,
    SUBWEB.specification,
    RDF.type,
    SNVOC.hasCreator,
    SNVOC.content,
]
subjects = st.sampled_from(_iris + _blanks)
predicates = st.sampled_from(_predicates)
objects = st.sampled_from(_iris + _blanks + _classes + [Literal("x"), Literal("7")])
triples = st.builds(Triple, subjects, predicates, objects)
# Small pools make duplicate triples common.
documents = st.lists(triples, max_size=24)

variables = st.sampled_from([Variable(name) for name in "abc"])
patterns = st.builds(
    TriplePattern,
    subjects | variables,
    predicates | variables | st.none(),
    objects | variables,
)
contexts = st.builds(
    lambda patterns, classes: QueryContext(patterns=tuple(patterns), classes=frozenset(classes)),
    st.lists(patterns, max_size=4),
    st.sets(st.sampled_from(_classes)),
)
registered = st.sets(st.sampled_from(["https://h/pods/1/", "https://h/pods/2/posts/"]))


class TestSelect:
    @given(documents, st.sets(predicates))
    @settings(max_examples=200, deadline=None)
    def test_select_is_the_filter_in_document_order(self, triple_list, wanted):
        document = ParsedDocument(triple_list)
        assert document.select(wanted) == [t for t in triple_list if t.predicate in wanted]
        assert document.select(frozenset(wanted)) == document.select(sorted(wanted, key=str))
        assert document.distinct == len(set(triple_list))
        assert set(document.predicates) == {t.predicate for t in triple_list}
        assert document.triples == tuple(triple_list) == tuple(document)


def _selector_that_knows(url):
    """A selector that has absorbed a complete source index published at
    ``url``: one unit listing its members, one not."""
    index, posts = NamedNode(url + "#index"), NamedNode(url + "#c-posts")
    comments = NamedNode(url + "#c-comments")
    selector = SourceSelector()
    selector.absorb_document(
        url,
        ParsedDocument(
            [
                Triple(index, SUBWEB.pod, NamedNode("https://h/pods/1/")),
                Triple(index, SUBWEB.completeIndex, Literal("true")),
                Triple(posts, SUBWEB.container, NamedNode("https://h/pods/1/posts/")),
                Triple(posts, SUBWEB["class"], SNVOC.Post),
                Triple(posts, SUBWEB.entities, Literal("9")),
                Triple(posts, SUBWEB.member, NamedNode("https://h/pods/1/posts/2013")),
                Triple(posts, SUBWEB.member, NamedNode("https://h/pods/1/posts/2012")),
                Triple(comments, SUBWEB.container, NamedNode("https://h/pods/1/comments/")),
                Triple(comments, SUBWEB["class"], SNVOC.Comment),
                Triple(comments, SUBWEB.entities, Literal("3")),
            ]
        ),
    )
    return selector


class TestExtractorsReadTheirBuckets:
    @given(documents, contexts, registered, st.sampled_from([DOC, "https://h/pods/2/posts/x"]))
    @settings(max_examples=200, deadline=None)
    def test_every_shipped_extractor_yields_the_full_scan_sequence(
        self, triple_list, context, already_registered, url
    ):
        selector = _selector_that_knows(DOC)
        shipped = dict(zip(default_extractors(), (scan_match, scan_ldp, scan_storage, scan_type_index)))
        shipped[ScopedLdpContainerExtractor()] = scan_scoped
        shipped[AllIriExtractor()] = scan_all_iris
        shipped[HintDiscoveryExtractor(selector)] = scan_hints(selector)
        assert [type(e) for e in shipped][:4] == [
            MatchIriExtractor, LdpContainerExtractor, StorageExtractor, TypeIndexExtractor
        ]
        document = ParsedDocument(triple_list)
        for extractor, scan in shipped.items():
            # Each side gets its own copy of the execution's state.
            mine = QueryContext(
                patterns=context.patterns,
                classes=context.classes,
                registered_targets=set(already_registered),
            )
            theirs = set(already_registered)
            assert list(extractor.discover(url, document, mine)) == list(
                scan(url, triple_list, context, theirs)
            ), extractor.name
            assert mine.registered_targets == theirs, extractor.name

    @given(documents, contexts)
    @settings(max_examples=100, deadline=None)
    def test_declared_reads_cover_what_discover_yields(self, triple_list, context):
        """An extractor sees nothing outside the buckets it declares: the
        document cut down to them yields the same links."""
        document = ParsedDocument(triple_list)
        for extractor in default_extractors() + [ScopedLdpContainerExtractor()]:
            reads = extractor.reads(context)
            if reads is None:
                continue
            cut = ParsedDocument(document.select(reads))
            mine = QueryContext(patterns=context.patterns, classes=context.classes)
            theirs = QueryContext(patterns=context.patterns, classes=context.classes)
            mine.registered_targets.add("https://h/pods/")
            theirs.registered_targets.add("https://h/pods/")
            assert list(extractor.discover(DOC, document, mine)) == list(
                extractor.discover(DOC, cut, theirs)
            ), extractor.name
