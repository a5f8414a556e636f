"""Property tests for the source-index value (:mod:`repro.solid.index`).

* What a pod publishes is what a reader reads back, member lists
  included: ``from_document(url, ParsedDocument(to_triples(x))) == x``, and
  ``of_pod`` lists every document of a container unit.
* ``widened`` is monotone: it keeps every declaration and adds exactly the
  written document's classes and predicates to the unit covering it (or a
  new unit), and a created document to the unit's member list, once;
  plumbing writes and writes that say nothing new return the same value.
* An index declaring a pod other than the one it is served from is
  rejected — by the reader and in the execution's count.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ltqp.guided.hints import CardinalityHints
from repro.rdf import Literal, NamedNode, ParsedDocument, Triple
from repro.rdf.namespaces import RDF
from repro.solid.index import ContainerSummary, SourceIndex, index_url

HOST = "https://h.example/pods/"
VOCAB = [f"https://vocab.example/v#{name}" for name in ("a", "b", "c", "d", "e", "f")]
UNITS = ["posts/", "comments/", "forums/", "noise/", "posts", "diary/"]
PATHS = [
    "posts/2012-01-01", "posts/x/y", "noise/noise-0", "diary/monday", "notes", "posts",
    "profile/card", "settings/publicTypeIndex", "settings/cardinality",
]

iris = st.frozensets(st.sampled_from(VOCAB), max_size=4)
counts = st.integers(min_value=0, max_value=10_000)


@st.composite
def indexes(draw):
    pod = HOST + draw(st.sampled_from(["alice/", "bob/", "a/b/"]))
    units = draw(st.lists(st.sampled_from(UNITS), unique=True, max_size=len(UNITS)))
    containers = tuple(
        ContainerSummary(
            pod + unit, draw(iris), draw(iris), draw(counts), draw(counts),
            draw(members(pod + unit)),
        )
        for unit in sorted(units)
    )
    infra = draw(st.frozensets(st.sampled_from(
        [pod, pod + "profile/", pod + "settings/", pod + "settings/publicTypeIndex"]
    )))
    ranges = draw(st.dictionaries(st.sampled_from(VOCAB), iris.filter(bool), max_size=3))
    return SourceIndex(pod, draw(st.booleans()), containers, infra, ranges)


def members(container):
    """A member list for a unit: documents below a container unit (none for
    a root document unit); empty is "not listed"."""
    if not container.endswith("/"):
        return st.just(frozenset())
    names = ["2012-01-01", "2012-01-02", "x/y", "monday"]
    return st.frozensets(st.sampled_from([container + name for name in names]))


@st.composite
def documents(draw, pod):
    """A written document: some typed subjects, some plain statements."""
    triples = []
    for position in range(draw(st.integers(min_value=0, max_value=5))):
        subject = NamedNode(f"{pod}doc#s{draw(st.integers(min_value=0, max_value=3))}")
        if draw(st.booleans()):
            triples.append(Triple(subject, RDF.type, NamedNode(draw(st.sampled_from(VOCAB)))))
        else:
            predicate = NamedNode(draw(st.sampled_from(VOCAB)))
            triples.append(Triple(subject, predicate, Literal(f"v{position}")))
    return triples


def described(triples):
    classes = {t.object.value for t in triples if t.predicate == RDF.type}
    typed = {t.subject for t in triples if t.predicate == RDF.type}
    return classes, {t.predicate.value for t in triples}, len(typed)


@settings(max_examples=300, deadline=None)
@given(indexes())
def test_what_is_published_is_what_is_read(index):
    read = SourceIndex.from_document(index_url(index.pod), ParsedDocument(index.to_triples()))
    assert read == index
    assert read.to_triples() == index.to_triples()


def test_of_pod_lists_the_documents_of_container_units_and_round_trips(tiny_universe):
    for pod in list(tiny_universe.pods.values())[:3]:
        index = SourceIndex.of_pod(pod)
        for unit in index.containers:
            below = {
                pod.base_url + path for path in pod.document_paths()
                if (pod.base_url + path).startswith(unit.container)
            }
            assert unit.members == (below if unit.container.endswith("/") else set())
            assert len(below) == unit.documents
        assert any(unit.members for unit in index.containers)
        published = ParsedDocument(index.to_triples())
        assert SourceIndex.from_document(index_url(pod.base_url), published) == index


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_widened_keeps_every_declaration_and_adds_exactly_the_write(data):
    index = data.draw(indexes())
    path = data.draw(st.sampled_from(PATHS))
    triples = data.draw(documents(index.pod))
    widened = index.widened(path, triples)

    top, slash, _ = path.partition("/")
    unit = top + slash
    if unit in ("profile/", "settings/"):
        assert widened is index
        return
    classes, predicates, entities = described(triples)
    covering, written = index.pod + unit, index.pod + path
    before = {summary.container: summary for summary in index.containers}
    after = {summary.container: summary for summary in widened.containers}
    assert (widened.pod, widened.complete, widened.infra, widened.ranges) == (
        index.pod, index.complete, index.infra, index.ranges,
    )
    assert [summary.container for summary in widened.containers] == sorted(after)
    assert set(after) == set(before) | {covering}
    for container, summary in before.items():
        if container != covering:
            assert after[container] == summary
    old = before.get(covering)
    if old is None:  # a new unit: a container unit starts its member list
        old = ContainerSummary(covering, documents=1, entities=entities)
        listed = {written} if unit.endswith("/") else set()
    else:  # a unit that lists members lists the write; one that lists none, none
        listed = old.members | {written} if old.members else old.members
    assert after[covering] == ContainerSummary(
        covering, old.classes | classes, old.predicates | predicates, old.documents,
        old.entities, frozenset(listed),
    )
    assert (widened is index) == (after == before)


def test_a_created_document_is_listed_once_and_an_edit_to_a_member_changes_nothing():
    pod = HOST + "alice/"
    first, second = pod + "posts/2012-01-01", pod + "posts/2012-01-02"
    post = [Triple(NamedNode(first + "#p"), RDF.type, NamedNode(VOCAB[0]))]
    index = SourceIndex(pod, True, (ContainerSummary(
        pod + "posts/", frozenset({VOCAB[0]}), frozenset({RDF.type.value}), 1, 1,
        frozenset({first}),
    ),))
    assert index.widened("posts/2012-01-01", post) is index
    created = index.widened("posts/2012-01-02", post)
    assert created.container_for(second).members == {first, second}
    assert created.widened("posts/2012-01-02", post) is created
    assert created.widened("posts/2012-01-01", post) is created
    read = SourceIndex.from_document(index_url(pod), ParsedDocument(created.to_triples()))
    assert read == created and read.redundant(pod + "posts/")
    assert not replace(read, complete=False).redundant(pod + "posts/")


@settings(max_examples=100, deadline=None)
@given(indexes(), st.sampled_from([
    HOST + "mallory/settings/cardinality",  # another pod on the same host
    "https://elsewhere.example/pods/alice/settings/cardinality",
    HOST + "alice-evil/settings/cardinality",  # a string prefix, not a directory
]))
def test_an_index_declaring_a_foreign_pod_is_rejected(index, served_from):
    document = ParsedDocument(index.to_triples())
    with pytest.raises(ValueError):
        SourceIndex.from_document(served_from, document)
    hints = CardinalityHints()
    assert hints.absorb_document(served_from, document) is None
    assert (hints.pod_count, hints.rejected) == (0, 1)
