"""Link extraction strategies.

After each document is dereferenced, extractors inspect it and propose
follow-up links.  An extractor declares the predicates it :meth:`reads
<LinkExtractor.reads>` and takes exactly those buckets of the
:class:`~repro.rdf.document.ParsedDocument`
(:meth:`~repro.rdf.document.ParsedDocument.select`); only one that can
match any predicate walks the whole document.  Each proposal carries a structured
:class:`~repro.ltqp.links.LinkProvenance` — which extractor emitted it,
on the evidence of which predicate / query pattern / type-index class —
via the :meth:`LinkExtractor.discover` API; the engine, trace spans,
waterfall, and the guided queue all consume that instead of parsing
``via`` strings.  The paper combines Solid-agnostic reachability
criteria [19] with Solid-specific extractors [14]:

* :class:`AllIriExtractor` — the ``cAll`` criterion: follow every IRI.
* :class:`MatchIriExtractor` — ``cMatch``: follow IRIs occurring in triples
  that match some query pattern (the query-relevance heuristic).
* :class:`LdpContainerExtractor` — traverse ``ldp:contains`` hierarchies
  (paper Listing 1).
* :class:`StorageExtractor` — follow ``pim:storage`` links from WebID
  profiles to pod roots (paper Listing 2).
* :class:`TypeIndexExtractor` — follow ``solid:publicTypeIndex`` links and,
  inside a type index, the registrations whose ``solid:forClass`` matches a
  class the query asks for (paper Listing 3).  When the query constrains no
  classes, all registrations are followed.

Extractors are plug-and-play (mirroring Comunica's module system): the
engine takes any combination, and the ablation bench (E8) measures their
effect on links followed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterator, Optional

from .links import LinkProvenance
from ..rdf.document import ParsedDocument
from ..rdf.namespaces import LDP, PIM, RDF, SOLID
from ..rdf.terms import NamedNode, Term, Variable
from ..rdf.triples import Triple, TriplePattern
from ..sparql.algebra import AlternativePath, Operator, PathPattern, PredicatePath, read_patterns
from ..sparql.paths import path_predicates, path_reads

__all__ = [
    "QueryContext",
    "LinkExtractor",
    "AllIriExtractor",
    "MatchIriExtractor",
    "LdpContainerExtractor",
    "ScopedLdpContainerExtractor",
    "StorageExtractor",
    "TypeIndexExtractor",
    "SOLID_AWARE_EXTRACTORS",
    "default_extractors",
    "build_query_context",
]


@dataclass(frozen=True)
class QueryContext:
    """What the query asks for — extractors use it to filter links.

    ``patterns``: all triple patterns in the query, EXISTS bodies included
    (a path appears as one pattern per member predicate, or with a ``None``
    predicate wildcard when it can match any quad).  ``predicates``:
    concrete predicate IRIs.
    ``classes``: concrete objects of ``rdf:type`` patterns.  ``iris``:
    every IRI constant in the query.

    An execution builds its own context, so this is also where extractor
    state that must not outlive one execution is kept — extractor
    *instances* belong to the engine and serve every query it runs.
    """

    patterns: tuple[TriplePattern, ...] = ()
    predicates: frozenset[NamedNode] = frozenset()
    classes: frozenset[NamedNode] = frozenset()
    iris: frozenset[str] = frozenset()
    entity_iris: frozenset[str] = frozenset()
    #: Type-index registration targets followed so far in this execution
    #: (:class:`TypeIndexExtractor` fills it;
    #: :class:`ScopedLdpContainerExtractor` descends only below them).
    registered_targets: set[str] = field(default_factory=set, compare=False, repr=False)
    #: cMatch's provenance per (triple predicate, matched pattern):
    #: documents repeat the same few predicates thousands of times.
    match_provenance: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def constrains_classes(self) -> bool:
        return bool(self.classes)

    @cached_property
    def match_patterns(
        self,
    ) -> tuple[dict[Term, tuple[TriplePattern, ...]], tuple[TriplePattern, ...]]:
        """``patterns`` bucketed by concrete predicate, and those with a
        variable or wildcard predicate — so a triple only ever tests the
        patterns that could match it."""
        by_predicate: dict[Term, tuple[TriplePattern, ...]] = {}
        wildcard: tuple[TriplePattern, ...] = ()
        for pattern in self.patterns:
            predicate = pattern.predicate
            if predicate is None or isinstance(predicate, Variable):
                wildcard += (pattern,)
            else:
                by_predicate[predicate] = by_predicate.get(predicate, ()) + (pattern,)
        return by_predicate, wildcard


def build_query_context(where: Operator) -> QueryContext:
    """Derive a :class:`QueryContext` from an algebra tree: every pattern
    :func:`~repro.sparql.algebra.read_patterns` names, EXISTS bodies
    included."""
    patterns: list[TriplePattern] = []
    # The ends of paths whose members do not keep them: still query IRIs.
    ends: list[TriplePattern] = []
    for pattern in read_patterns(where):
        if not isinstance(pattern, PathPattern):
            patterns.append(pattern)
        elif path_reads(pattern) is None:
            # A path that can match any quad matches like a variable predicate.
            patterns.append(TriplePattern(pattern.subject, None, pattern.object))
        elif _forward(pattern.path):
            # Its member predicates, as individual patterns for matching.
            for predicate in path_predicates(pattern.path):
                patterns.append(TriplePattern(pattern.subject, predicate, pattern.object))
        else:
            # Inside a sequence, inverse or closure a member's triple need not
            # touch the path's ends (``<a> p/q ?b``: the ``q`` triple's subject
            # is no ``<a>``): members match any triple of their predicate.
            ends.append(TriplePattern(pattern.subject, None, pattern.object))
            for predicate in path_predicates(pattern.path):
                patterns.append(TriplePattern(None, predicate, None))
    predicates: set[NamedNode] = set()
    classes: set[NamedNode] = set()
    iris: set[str] = set()
    entity_iris: set[str] = set()
    for pattern in patterns + ends:
        for term in pattern:
            if isinstance(term, NamedNode):
                iris.add(term.value)
        is_type_pattern = pattern.predicate == RDF.type
        if isinstance(pattern.subject, NamedNode):
            entity_iris.add(pattern.subject.value)
        if isinstance(pattern.object, NamedNode) and not is_type_pattern:
            entity_iris.add(pattern.object.value)
        if isinstance(pattern.predicate, NamedNode):
            predicates.add(pattern.predicate)
            if is_type_pattern and isinstance(pattern.object, NamedNode):
                classes.add(pattern.object)
    return QueryContext(
        patterns=tuple(patterns),
        predicates=frozenset(predicates),
        classes=frozenset(classes),
        iris=frozenset(iris),
        entity_iris=frozenset(entity_iris),
    )


def _forward(path) -> bool:
    """A forward predicate, or an alternation of forward predicates: a
    path whose every match is one triple running from end to end."""
    if isinstance(path, AlternativePath):
        return all(map(_forward, path.options))
    return isinstance(path, PredicatePath)


class LinkExtractor:
    """Base class. ``name`` tags links for statistics and prioritization."""

    name = "abstract"

    def reads(self, context: QueryContext) -> Optional[Collection[Term]]:
        """The predicates whose triples :meth:`discover` looks at under
        ``context`` — what it hands to ``document.select`` — or ``None``
        when it iterates the whole document (an extractor that declares
        nothing is taken to)."""
        return None

    def discover(
        self, document_url: str, document: ParsedDocument, context: QueryContext
    ) -> Iterator[tuple[str, Optional[LinkProvenance]]]:
        """Yield ``(url, provenance)`` pairs for follow-up links.

        ``provenance`` may be ``None``: the engine then tags the link with
        this extractor's ``name`` alone.  Instances serve every execution
        of their engine: state that belongs to one execution lives on
        ``context``.
        """
        raise NotImplementedError


def _iris_of(triple: Triple) -> Iterator[str]:
    for term in triple:
        if isinstance(term, NamedNode) and term.value.startswith(("http://", "https://")):
            yield term.value


def _render_pattern(pattern: TriplePattern) -> str:
    """Compact one-line rendering of a query pattern for provenance."""
    return " ".join(_render_term(term) for term in pattern)


def _render_term(term: Term | None) -> str:
    if term is None:
        return "?"
    if isinstance(term, Variable):
        return str(term)
    if isinstance(term, NamedNode):
        value = term.value
        for sep in ("#", "/"):
            if sep in value:
                tail = value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return value
    return str(term)


#: The buckets the Solid-aware extractors take (``ParsedDocument.select``).
_CONTAINS = (LDP.contains,)
_STORAGE = (PIM.storage,)
_TYPE_INDEX_LINKS = (SOLID.publicTypeIndex, SOLID.privateTypeIndex)
_REGISTRATION_TARGETS = (SOLID.instance, SOLID.instanceContainer)
_TYPE_INDEX_READS = _TYPE_INDEX_LINKS + (SOLID.forClass,) + _REGISTRATION_TARGETS


class AllIriExtractor(LinkExtractor):
    """cAll reachability: every HTTP(S) IRI in the document is a link."""

    name = "all-iris"

    def discover(self, document_url, document, context):
        provenance = LinkProvenance(extractor=self.name)
        for triple in document:
            for url in _iris_of(triple):
                yield url, provenance


class MatchIriExtractor(LinkExtractor):
    """cMatch reachability: IRIs from triples matching some query pattern.

    Provenance records the predicate of the producing triple and a compact
    rendering of the query pattern it matched — the guided score promotes
    a cMatch link whose producing predicate the query uses.
    """

    name = "match"

    def reads(self, context):
        by_predicate, wildcard = context.match_patterns
        return None if wildcard else by_predicate.keys()

    def discover(self, document_url, document, context):
        by_predicate, wildcard = context.match_patterns
        provenance_cache = context.match_provenance
        # Most document triples carry a predicate no query pattern mentions:
        # without a wildcard pattern they are never looked at.
        for triple in document if wildcard else document.select(by_predicate):
            candidates = by_predicate.get(triple.predicate, ()) + wildcard
            for pattern in candidates:
                if pattern.matches(triple):
                    key = (triple.predicate, pattern)
                    provenance = provenance_cache.get(key)
                    if provenance is None:
                        provenance = provenance_cache[key] = LinkProvenance(
                            extractor=self.name,
                            predicate=(
                                triple.predicate.value
                                if isinstance(triple.predicate, NamedNode)
                                else None
                            ),
                            pattern=_render_pattern(pattern),
                        )
                    for url in _iris_of(triple):
                        yield url, provenance
                    break


class LdpContainerExtractor(LinkExtractor):
    """Traverse LDP containment: follow every ``ldp:contains`` object."""

    name = "ldp-container"

    def reads(self, context):
        return _CONTAINS

    def discover(self, document_url, document, context):
        provenance = LinkProvenance(extractor=self.name, predicate=LDP.contains.value)
        for triple in document.select(_CONTAINS):
            if isinstance(triple.object, NamedNode):
                yield triple.object.value, provenance


class StorageExtractor(LinkExtractor):
    """From a WebID profile to the pod root: follow ``pim:storage``."""

    name = "storage"

    def reads(self, context):
        return _STORAGE

    def discover(self, document_url, document, context):
        provenance = LinkProvenance(extractor=self.name, predicate=PIM.storage.value)
        for triple in document.select(_STORAGE):
            if isinstance(triple.object, NamedNode):
                yield triple.object.value, provenance


class TypeIndexExtractor(LinkExtractor):
    """Follow type indexes, filtering registrations by query classes.

    Two phases operate on whatever document is at hand:

    1. In any document: follow ``solid:publicTypeIndex`` /
       ``solid:privateTypeIndex`` objects.
    2. In a type index document: for each ``solid:TypeRegistration``,
       follow ``solid:instance`` / ``solid:instanceContainer`` targets —
       but when the query constrains classes, only registrations whose
       ``solid:forClass`` is one of them.

    Followed registration targets accumulate in the execution's
    ``context.registered_targets``; :class:`ScopedLdpContainerExtractor`
    uses that set to restrict container descent to type-index-relevant
    subtrees (the pruning of [14]).
    """

    name = "type-index"

    def reads(self, context):
        return _TYPE_INDEX_READS

    def discover(self, document_url, document, context):
        triples = document.select(_TYPE_INDEX_READS)  # of most documents, nothing
        index_provenance = None
        for triple in triples:
            if triple.predicate in _TYPE_INDEX_LINKS and isinstance(triple.object, NamedNode):
                if index_provenance is None:
                    index_provenance = LinkProvenance(
                        extractor=self.name, predicate=triple.predicate.value
                    )
                yield triple.object.value, index_provenance

        # Index registrations: group forClass and targets by subject.
        for_class: dict[Term, set[NamedNode]] = {}
        targets: dict[Term, list[NamedNode]] = {}
        for triple in triples:
            if triple.predicate == SOLID.forClass and isinstance(triple.object, NamedNode):
                for_class.setdefault(triple.subject, set()).add(triple.object)
            elif triple.predicate in _REGISTRATION_TARGETS:
                if isinstance(triple.object, NamedNode):
                    targets.setdefault(triple.subject, []).append(triple.object)
        for registration, links in targets.items():
            classes = for_class.get(registration, set())
            if context.constrains_classes and classes and not (classes & context.classes):
                continue
            provenance = LinkProvenance(
                extractor=self.name,
                predicate=SOLID.instanceContainer.value,
                for_class=min(c.value for c in classes) if classes else None,
            )
            for target in links:
                context.registered_targets.add(target.value)
                yield target.value, provenance


class ScopedLdpContainerExtractor(LinkExtractor):
    """LDP containment scoped to type-index-registered subtrees.

    The plain :class:`LdpContainerExtractor` crawls every container it
    sees — including ``noise/`` and ``settings/`` (visible in the paper's
    Fig. 4 waterfall).  This variant descends only into containers under a
    target the type index registered for the query, reproducing the
    structural pruning of [14].  Put it in a stack with a
    :class:`TypeIndexExtractor`: they meet in the execution's
    ``context.registered_targets``.
    """

    name = "ldp-scoped"

    def reads(self, context):
        return _CONTAINS

    def discover(self, document_url, document, context):
        targets = context.registered_targets
        if not any(document_url.startswith(target) for target in targets):
            return
        provenance = LinkProvenance(extractor=self.name, predicate=LDP.contains.value)
        for triple in document.select(_CONTAINS):
            if isinstance(triple.object, NamedNode):
                yield triple.object.value, provenance


#: The Solid-aware configuration demonstrated in the paper.
SOLID_AWARE_EXTRACTORS = (
    MatchIriExtractor,
    LdpContainerExtractor,
    StorageExtractor,
    TypeIndexExtractor,
)


def default_extractors() -> list[LinkExtractor]:
    """The paper's default extractor stack (Solid-aware + cMatch)."""
    return [cls() for cls in SOLID_AWARE_EXTRACTORS]
