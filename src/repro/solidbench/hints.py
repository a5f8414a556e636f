"""Per-pod cardinality-hint documents (guided traversal, DESIGN.md §4g).

With ``SolidBenchConfig.emit_hints`` (the default), every pod publishes a
*source index* at ``settings/cardinality`` — the summary side of the
guided-traversal subsystem (:mod:`repro.ltqp.guided`).  The document
declares, per *summary unit* — a top-level content container (``posts/``,
``comments/``, ``forums/``, ``noise/`` …) or a content document stored at
the pod root (``posts`` under ``Fragmentation.SINGLE``) — the RDF classes
of entities stored there, the predicates that occur, and document/entity
counts.  It also declares predicate *ranges* computed from the generated
network (e.g. every object of ``snvoc:containerOf`` is a ``snvoc:Post``)
and — because every content document belongs to a unit —
``subweb:completeIndex true`` plus the exact LDP infrastructure documents
the index makes redundant (root, ``profile/`` and ``settings/`` listings,
the public type index).

The WebID profile links to it via ``subweb:cardinalityIndex`` so the
:class:`~repro.ltqp.guided.HintDiscoveryExtractor` finds it one hop from
any seed.  A published index is a promise, so the simulated server keeps
it: after a write it asks :func:`index_after_write` whether the written
document says something its unit's summary does not.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..rdf.namespaces import RDF, SUBWEB
from ..rdf.terms import Literal, NamedNode, intern_iri
from ..rdf.triples import Triple
from ..solid.pod import Pod, PodDocument

__all__ = [
    "HINT_DOCUMENT_PATH",
    "build_hint_triples",
    "cardinality_index_url",
    "index_after_write",
]

#: Where every pod serves its source index (inside ``settings/``, next to
#: the public type index).
HINT_DOCUMENT_PATH = "settings/cardinality"

#: Containers that are LDP plumbing, not content — never summarized.
_INFRA_CONTAINERS = ("profile/", "settings/")

_CLASS = SUBWEB["class"]


def cardinality_index_url(pod_base: str) -> str:
    return pod_base + HINT_DOCUMENT_PATH


def _summary_unit(path: str) -> Optional[str]:
    """The unit that summarizes the document at ``path``: its top-level
    container, the document itself at the pod root, ``None`` for plumbing."""
    top, slash, _ = path.partition("/")
    unit = top + slash
    return None if unit in _INFRA_CONTAINERS else unit


def _summary_node(document_url: str, unit: str) -> NamedNode:
    return NamedNode(f"{document_url}#c-{unit}")


def _described(document: PodDocument) -> tuple[set, set, int]:
    """``(class IRIs, predicate IRIs, typed entities)`` of one document."""
    classes, predicates, entities = set(), set(), set()
    for triple in document.triples:
        predicates.add(triple.predicate.value)
        if triple.predicate == RDF.type:
            classes.add(triple.object.value)
            entities.add(triple.subject)
    return classes, predicates, len(entities)


def _vocabulary_triples(node: NamedNode, classes: Iterable[str], predicates: Iterable[str]):
    for class_iri in sorted(classes):
        yield Triple(node, _CLASS, intern_iri(class_iri))
    for predicate_iri in sorted(predicates):
        yield Triple(node, SUBWEB.predicate, intern_iri(predicate_iri))


def _summary_triples(index: NamedNode, node: NamedNode, unit_url: str, summary: dict):
    yield Triple(index, SUBWEB.summarizes, node)
    yield Triple(node, SUBWEB.container, intern_iri(unit_url))
    yield from _vocabulary_triples(node, summary["classes"], summary["predicates"])
    yield Triple(node, SUBWEB.documents, Literal(str(summary["documents"])))
    yield Triple(node, SUBWEB.entities, Literal(str(summary["entities"])))


def build_hint_triples(
    pod: Pod, ranges: Mapping[str, Iterable[str]] = ()
) -> list[Triple]:
    """The source-index triples for one fully built pod.

    Must run after the pod's content documents exist (the summary is
    computed from them) — profile and type index need not exist yet; they
    are infrastructure, addressed by URL.
    """
    document_url = cardinality_index_url(pod.base_url)
    index = NamedNode(document_url + "#index")
    triples = [
        Triple(index, SUBWEB.pod, NamedNode(pod.base_url)),
        Triple(index, SUBWEB.completeIndex, Literal("true")),
    ]
    for infra_url in (
        pod.base_url,
        pod.base_url + "profile/",
        pod.base_url + "settings/",
        pod.type_index_url,
    ):
        triples.append(Triple(index, SUBWEB.infra, intern_iri(infra_url)))

    for unit, summary in sorted(_summarize_units(pod).items()):
        node = _summary_node(document_url, unit)
        triples.extend(_summary_triples(index, node, pod.base_url + unit, summary))

    for position, (predicate_iri, classes) in enumerate(sorted(dict(ranges).items())):
        if not classes:
            continue
        node = NamedNode(f"{document_url}#r{position}")
        triples.append(Triple(node, SUBWEB.rangeOf, intern_iri(predicate_iri)))
        for class_iri in sorted(classes):
            triples.append(Triple(node, SUBWEB.rangeClass, intern_iri(class_iri)))
    return triples


def _summarize_units(pod: Pod) -> dict[str, dict]:
    """Aggregate class/predicate/count summaries per summary unit — every
    content document belongs to one, which is what makes the index complete."""
    summaries: dict[str, dict] = {}
    for document in pod.documents():
        unit = _summary_unit(document.path)
        if unit is None:
            continue
        summary = summaries.setdefault(
            unit,
            {"classes": set(), "predicates": set(), "documents": 0, "entities": 0},
        )
        classes, predicates, entities = _described(document)
        summary["classes"] |= classes
        summary["predicates"] |= predicates
        summary["documents"] += 1
        summary["entities"] += entities
    return summaries


def index_after_write(pod: Pod, path: str) -> Optional[list[Triple]]:
    """The pod's source index made true again after ``path`` was written —
    or ``None``: the pod publishes none, the document is plumbing, or (the
    usual content edit) it uses no class or predicate its unit's summary
    lacks.  Only the written document is read.  Summaries over-approximate:
    what an edit removes stays declared, and counts are not maintained."""
    published = pod.document(HINT_DOCUMENT_PATH)
    unit = _summary_unit(path)
    if published is None or unit is None:
        return None
    unit_url = intern_iri(pod.base_url + unit)
    node = next(
        (t.subject for t in published.triples
         if t.predicate == SUBWEB.container and t.object == unit_url),
        None,
    )
    classes, predicates, entities = _described(pod.document(path))
    if node is None:
        document_url = cardinality_index_url(pod.base_url)
        summary = {"classes": classes, "predicates": predicates, "documents": 1,
                   "entities": entities}
        return published.triples + list(_summary_triples(
            NamedNode(document_url + "#index"), _summary_node(document_url, unit),
            unit_url.value, summary,
        ))
    declared = {(t.predicate, t.object) for t in published.triples if t.subject == node}
    missing = [
        triple for triple in _vocabulary_triples(node, classes, predicates)
        if (triple.predicate, triple.object) not in declared
    ]
    return published.triples + missing if missing else None
