"""A pod's source index: the one home of the format (DESIGN.md §4g).

A pod may publish, at ``settings/cardinality``, a *source index*: per
*summary unit* — a top-level content container (``posts/``, ``noise/`` …)
or a content document stored at the pod root (``posts`` under
``Fragmentation.SINGLE``) — the RDF classes of the entities stored there,
the predicates that occur, and document / entity counts.  It may also
declare predicate *ranges* (every object of ``snvoc:containerOf`` is a
``snvoc:Post``) and, with ``subweb:completeIndex true``, that the units
cover the pod's whole content tree, so the LDP infrastructure documents
it lists as ``subweb:infra`` (root, ``profile/`` and ``settings/``
listings, the type index) are redundant.  A unit that is a container may
list its member documents (``subweb:member``); a complete index that does
makes that container's listing redundant too, so a reader goes from the
index straight to the documents.  The WebID profile points at it with
:data:`ADVERTISEMENT`.

:class:`SourceIndex` is that document as a frozen value, with the four
things anyone does with one: compute it from a built pod
(:meth:`~SourceIndex.of_pod`), publish it (:meth:`~SourceIndex.to_triples`),
read it back from a fetched document (:meth:`~SourceIndex.from_document`)
and keep it true after a write (:meth:`~SourceIndex.widened`).

An index speaks for its own pod only: a declaration is accepted when the
declared base is a directory prefix of the index document's own URL,
``container`` / ``infra`` entries outside that base are dropped, and so
are ``member`` entries outside their unit's container.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional

from ..rdf.document import ParsedDocument
from ..rdf.namespaces import RDF, SUBWEB
from ..rdf.terms import Literal, NamedNode
from ..rdf.triples import Triple
from .pod import Pod

__all__ = [
    "ADVERTISEMENT",
    "INDEX_PATH",
    "ContainerSummary",
    "SourceIndex",
    "index_url",
    "innermost",
    "is_index_document",
]

#: Where a pod serves its source index (next to the public type index).
INDEX_PATH = "settings/cardinality"

#: The predicate a document names its pod's source index with.
ADVERTISEMENT = SUBWEB.cardinalityIndex

#: Containers that are LDP plumbing, not content — never summarized.
_INFRA_CONTAINERS = ("profile/", "settings/")

_CLASS = SUBWEB["class"]

#: The predicates of a source-index document that carry its declarations,
#: and what each declares.
_ROLES = {
    SUBWEB.pod: "pod",
    SUBWEB.completeIndex: "complete",
    SUBWEB.infra: "infra",
    SUBWEB.container: "container",
    _CLASS: "classes",
    SUBWEB.predicate: "predicates",
    SUBWEB.documents: "documents",
    SUBWEB.entities: "entities",
    SUBWEB.member: "members",
    SUBWEB.rangeOf: "rangeOf",
    SUBWEB.rangeClass: "rangeClass",
}


def index_url(pod_base: str) -> str:
    return pod_base + INDEX_PATH


def is_index_document(document: ParsedDocument) -> bool:
    return SUBWEB.pod in document.predicates


def innermost(table: Mapping[str, object], url: str):
    """The entry keyed by ``url`` itself or else by the longest of its
    directory prefixes (``…/a/b/`` before ``…/a/``) — a few probes per
    URL however many keys the table holds."""
    entry = table.get(url)
    cut = len(url)
    while entry is None:
        cut = url.rfind("/", 0, cut)
        if cut < 8:  # inside "https://": no directory left
            return None
        entry = table.get(url[: cut + 1])
    return entry


@dataclass(frozen=True, slots=True)
class ContainerSummary:
    """What one summary unit holds."""

    container: str
    classes: frozenset = frozenset()
    predicates: frozenset = frozenset()
    documents: int = 0
    entities: int = 0
    #: URLs of the unit's documents, listed only when the unit is a
    #: container; empty means not listed — read the container.
    members: frozenset = frozenset()


@dataclass(frozen=True, slots=True)
class SourceIndex:
    """Everything one source index declares about its pod."""

    pod: str
    complete: bool = False
    #: One summary per unit, in container-URL order.
    containers: tuple = ()
    #: Exact URLs of the LDP infrastructure documents the index makes
    #: redundant when ``complete``.
    infra: frozenset = frozenset()
    #: Predicate → classes of its objects, as far as this pod's containers
    #: are concerned.
    ranges: Mapping[str, frozenset] = field(default_factory=dict)
    _by_url: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_url", {unit.container: unit for unit in self.containers})

    def container_for(self, url: str) -> Optional[ContainerSummary]:
        """The summary covering ``url`` (no fragment): the innermost
        summarized container above it, or the document itself."""
        return innermost(self._by_url, url)

    def redundant(self, url: str) -> bool:
        """Whether a complete index makes the document at ``url`` (no
        fragment) redundant: a listed infrastructure document, or the
        container of a unit whose members it lists."""
        if not self.complete:
            return False
        unit = self._by_url.get(url)
        return url in self.infra or (unit is not None and bool(unit.members))

    # -- publishing -----------------------------------------------------------

    @classmethod
    def of_pod(cls, pod: Pod, ranges: Mapping[str, Iterable[str]] = ()) -> "SourceIndex":
        """The complete index of a pod whose content documents exist —
        profile and type index need not yet: they are infrastructure,
        addressed by URL."""
        base = pod.base_url
        units: dict[str, list] = {}
        for document in pod.documents():
            unit = _summary_unit(document.path)
            if unit is None:
                continue
            classes, predicates, entities = _described(document.triples)
            summary = units.setdefault(unit, [set(), set(), 0, 0, set()])
            summary[0] |= classes
            summary[1] |= predicates
            summary[2] += 1
            summary[3] += entities
            if unit.endswith("/"):
                summary[4].add(base + document.path)
        return cls(
            pod=base,
            complete=True,
            containers=tuple(
                ContainerSummary(
                    base + unit, frozenset(classes), frozenset(predicates), documents, entities,
                    frozenset(members),
                )
                for unit, (classes, predicates, documents, entities, members) in sorted(units.items())
            ),
            infra=frozenset((base, base + "profile/", base + "settings/", pod.type_index_url)),
            ranges={
                predicate: frozenset(classes) for predicate, classes in dict(ranges).items() if classes
            },
        )

    def to_triples(self) -> list[Triple]:
        """The index document, served at ``index_url(self.pod)``."""
        document_url = index_url(self.pod)
        index = NamedNode(document_url + "#index")
        triples = [Triple(index, SUBWEB.pod, NamedNode(self.pod))]
        if self.complete:
            triples.append(Triple(index, SUBWEB.completeIndex, Literal("true")))
        triples += _objects(index, SUBWEB.infra, self.infra)
        for unit in self.containers:
            node = NamedNode(f"{document_url}#c-{unit.container[len(self.pod):]}")
            triples.append(Triple(index, SUBWEB.summarizes, node))
            triples.append(Triple(node, SUBWEB.container, NamedNode(unit.container)))
            triples += _objects(node, _CLASS, unit.classes)
            triples += _objects(node, SUBWEB.predicate, unit.predicates)
            triples.append(Triple(node, SUBWEB.documents, Literal(str(unit.documents))))
            triples.append(Triple(node, SUBWEB.entities, Literal(str(unit.entities))))
            triples += _objects(node, SUBWEB.member, unit.members)
        for position, (predicate, classes) in enumerate(sorted(self.ranges.items())):
            node = NamedNode(f"{document_url}#r{position}")
            triples.append(Triple(node, SUBWEB.rangeOf, NamedNode(predicate)))
            triples += _objects(node, SUBWEB.rangeClass, classes)
        return triples

    # -- reading --------------------------------------------------------------

    @classmethod
    def from_document(cls, url: str, document: ParsedDocument) -> Optional["SourceIndex"]:
        """The index a fetched document declares; None when it carries no
        ``subweb:pod``.  Raises :class:`ValueError` when it declares a pod
        it is not served from."""
        pod_base: Optional[str] = None
        complete = False
        infra: set[str] = set()
        units: dict[object, dict] = {}
        range_of: dict[object, str] = {}
        range_classes: dict[object, set] = {}
        for triple in document.select(_ROLES):
            role, subject, obj = _ROLES[triple.predicate], triple.subject, triple.object
            if isinstance(obj, Literal):
                if role == "complete":
                    complete = obj.value == "true"
                elif role in ("documents", "entities"):
                    units.setdefault(subject, {})[role] = _safe_int(obj.value)
            elif isinstance(obj, NamedNode):
                if role == "pod":
                    pod_base = obj.value
                elif role == "infra":
                    infra.add(obj.value)
                elif role == "container":
                    units.setdefault(subject, {})[role] = obj.value
                elif role in ("classes", "predicates", "members"):
                    units.setdefault(subject, {}).setdefault(role, set()).add(obj.value)
                elif role == "rangeOf":
                    range_of[subject] = obj.value
                elif role == "rangeClass":
                    range_classes.setdefault(subject, set()).add(obj.value)
        if pod_base is None:
            return None
        if not (pod_base.endswith("/") and url.startswith(pod_base)):
            raise ValueError(f"{url} declares the pod {pod_base}, which it is not served from")
        summaries = {
            fields["container"]: ContainerSummary(
                container=fields["container"],
                classes=frozenset(fields.get("classes", ())),
                predicates=frozenset(fields.get("predicates", ())),
                documents=fields.get("documents", 0),
                entities=fields.get("entities", 0),
                members=frozenset(
                    member for member in fields.get("members", ())
                    if _inside(member, fields["container"])
                ),
            )
            for fields in units.values()
            if fields.get("container", "").startswith(pod_base)
        }
        return cls(
            pod=pod_base,
            complete=complete,
            containers=tuple(summaries[container] for container in sorted(summaries)),
            infra=frozenset(entry for entry in infra if entry.startswith(pod_base)),
            ranges={
                predicate: frozenset(range_classes[subject])
                for subject, predicate in range_of.items()
                if range_classes.get(subject)
            },
        )

    # -- keeping it true ------------------------------------------------------

    def widened(self, path: str, triples: Iterable[Triple]) -> "SourceIndex":
        """This index made true again after the document at pod-relative
        ``path`` was written with ``triples`` — or ``self`` when the
        document is plumbing or (the usual content edit) an existing member
        using no class or predicate its unit's summary lacks.  Only the
        written document is read.  A document the write creates joins its
        unit's member list, if the unit lists members (a new container unit
        starts one).  Summaries over-approximate: what an edit removes
        stays declared, and counts are not maintained."""
        unit = _summary_unit(path)
        if unit is None:
            return self
        classes, predicates, entities = _described(triples)
        container, url = self.pod + unit, self.pod + path
        joins = frozenset({url}) if _inside(url, container) else frozenset()
        summary = self._by_url.get(container)
        if summary is None:
            summary = ContainerSummary(container, documents=1, entities=entities)
        else:
            if not summary.members:
                joins = frozenset()  # a unit that lists none starts no partial list
            if classes <= summary.classes and predicates <= summary.predicates and joins <= summary.members:
                return self
        units = {
            **self._by_url,
            container: replace(
                summary,
                classes=summary.classes | classes,
                predicates=summary.predicates | predicates,
                members=summary.members | joins,
            ),
        }
        return replace(self, containers=tuple(units[unit] for unit in sorted(units)))


def _objects(subject: NamedNode, predicate: NamedNode, iris: Iterable[str]) -> list[Triple]:
    return [Triple(subject, predicate, NamedNode(iri)) for iri in sorted(iris)]


def _inside(url: str, container: str) -> bool:
    """Whether ``url`` is a document below the container ``container``."""
    return container.endswith("/") and url.startswith(container) and url != container


def _summary_unit(path: str) -> Optional[str]:
    """The unit that summarizes the document at ``path``: its top-level
    container, the document itself at the pod root, ``None`` for plumbing."""
    top, slash, _ = path.partition("/")
    unit = top + slash
    return None if unit in _INFRA_CONTAINERS else unit


def _described(triples: Iterable[Triple]) -> tuple[set, set, int]:
    """``(class IRIs, predicate IRIs, typed entities)`` of one document."""
    classes, predicates, entities = set(), set(), set()
    for triple in triples:
        predicates.add(triple.predicate.value)
        if triple.predicate == RDF.type:
            classes.add(triple.object.value)
            entities.add(triple.subject)
    return classes, predicates, len(entities)


def _safe_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return 0
