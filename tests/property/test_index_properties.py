"""Property tests for the source-index value (:mod:`repro.solid.index`).

* What a pod publishes is what a reader reads back:
  ``from_document(url, ParsedDocument(to_triples(x))) == x``.
* ``widened`` is monotone: it keeps every declaration and adds exactly the
  written document's classes and predicates to the unit covering it (or a
  new unit); plumbing writes and writes that say nothing new return the
  same value.
* An index declaring a pod other than the one it is served from is
  rejected — by the reader and in the execution's count.
"""

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
        ContainerSummary(pod + unit, draw(iris), draw(iris), draw(counts), draw(counts))
        for unit in sorted(units)
    )
    infra = draw(st.frozensets(st.sampled_from(
        [pod, pod + "profile/", pod + "settings/", pod + "settings/publicTypeIndex"]
    )))
    ranges = draw(st.dictionaries(st.sampled_from(VOCAB), iris.filter(bool), max_size=3))
    return SourceIndex(pod, draw(st.booleans()), containers, infra, ranges)


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
    covering = index.pod + unit
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
    old = before.get(covering, ContainerSummary(covering, documents=1, entities=entities))
    assert after[covering] == ContainerSummary(
        covering, old.classes | classes, old.predicates | predicates, old.documents, old.entities
    )
    assert (widened is index) == (after == before)


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
