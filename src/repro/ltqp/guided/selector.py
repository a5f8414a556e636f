"""The source selector: follow, defer, or prune — before dereferencing.

One :class:`SourceSelector` serves one query execution.  It combines

* a :class:`~repro.ltqp.guided.subweb.SubwebSpecification` (CLI-supplied
  and/or discovered inside pods),
* the pods' source indexes (:class:`~repro.solid.index.SourceIndex`),
  collected in :class:`~repro.ltqp.guided.hints.CardinalityHints` as
  traversal encounters them, and
* the query's subject groups (:func:`~repro.ltqp.guided.hints.query_scopes`)

into a per-link decision.  Checks split by *when* their grounds are
known:

``check_static(link)``
    Spec path/depth rules, what a complete index makes redundant (its
    infrastructure documents, the containers whose members it lists) and
    hint-based container relevance — grounds
    that only ever **deny** more as knowledge grows, so applying them at
    push time can never prune a link a later document would have
    justified.

``check(link)``
    The full decision, evaluated at pop time: static grounds plus what a
    link may have to *wait* for — it is not dropped but **deferred**,
    parked with the selector and re-queued when the wait is over.  Two
    things are waited for.  *Origin admission* is monotone in the other
    direction — absorbing documents admits origins, never revokes them —
    so a link denied only for its origin waits until some traversed
    document declares it; links still waiting when traversal quiesces
    were never going to be admitted, and the engine counts them as
    pruned.  A pod's *source index*: the links of a document that
    advertises one (``subweb:cardinalityIndex``) wait until the index has
    been absorbed, so they are judged with it whichever response lands
    first and whatever order the queue pops in — the document set is a
    function of the inputs, not of timing.  If the index never arrives
    (failed, refused, pruned, not an index) the engine, about to quiesce,
    takes them back through ``release_unjudged``: the full crawl is the
    fallback.

The engine feeds every fetched document through ``absorb_document``
*before* link extraction, so a document's own links are always judged
with that document's declarations already absorbed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..links import Link
from ...net.message import split_url
from ...rdf.document import ParsedDocument
from ...rdf.terms import NamedNode
from ...solid.index import ADVERTISEMENT, is_index_document
from .hints import CardinalityHints, container_relevant, query_scopes
from .subweb import SubwebSpecification

__all__ = ["LinkDecision", "SourceSelector"]


class LinkDecision:
    """Outcome of a selector check."""

    __slots__ = ("action", "rule")

    FOLLOW = "follow"
    PRUNE = "prune"
    DEFER = "defer"

    def __init__(self, action: str, rule: str = "") -> None:
        self.action = action
        self.rule = rule

    def __repr__(self) -> str:
        return f"LinkDecision({self.action!r}, {self.rule!r})"


_FOLLOW = LinkDecision(LinkDecision.FOLLOW)
_AWAIT_ORIGIN = LinkDecision(LinkDecision.DEFER, "origin:undeclared")
_AWAIT_INDEX = LinkDecision(LinkDecision.DEFER, "index:pending")


class SourceSelector:
    def __init__(
        self,
        spec: Optional[SubwebSpecification] = None,
        hints: Optional[CardinalityHints] = None,
        where=None,
        seeds: Iterable[str] = (),
    ) -> None:
        self.spec = spec or SubwebSpecification()
        self.hints = hints if hints is not None else CardinalityHints()
        self.scopes = query_scopes(where) if where is not None else ()
        self._admit_via = _predicates(self.spec.admit_origins_via)
        self._admitted: set[str] = set()
        for seed in seeds:
            origin = self._source_key(seed)
            if origin:
                self._admitted.add(origin)
        #: Links parked by what they wait for: an origin's admission (its
        #: source key) or a source index's arrival (its URL).
        self._deferred: dict[str, list[Link]] = {}
        #: Document URL → the source indexes it advertised, and of those
        #: the ones still waited for.
        self._advertised: dict[str, tuple[str, ...]] = {}
        self._awaited: set[str] = set()
        #: Relevance verdicts per container URL; dropped whenever an index
        #: is absorbed (it may re-declare a pod).
        self._relevance: dict[str, bool] = {}
        #: Spec documents turned away because they do not parse.
        self._specs_rejected = 0

    # -- decisions ------------------------------------------------------------

    def check_static(self, link: Link) -> LinkDecision:
        """Push-time check: spec rules and hint relevance only."""
        allowed, rule = self.spec.decide(link.url, link.depth)
        if not allowed:
            return LinkDecision(LinkDecision.PRUNE, f"spec:{rule}")
        hints = self.hints
        if hints.pod_count:
            url = link.url.partition("#")[0]
            pod = hints.pod_for(url)
            if pod is not None:
                if pod.redundant(url):
                    return LinkDecision(LinkDecision.PRUNE, "hint:infra")
                hint = pod.container_for(url)
                if hint is not None and not self._container_relevant(pod, hint):
                    return LinkDecision(LinkDecision.PRUNE, "hint:irrelevant")
        return _FOLLOW

    def check(self, link: Link) -> LinkDecision:
        """Pop-time check: static grounds, then what the link must wait for."""
        decision = self.check_static(link)
        if decision.action != LinkDecision.FOLLOW:
            return decision
        return self._waits_for(link)[1]

    def _waits_for(self, link: Link) -> tuple[str, LinkDecision]:
        """``(key to park it under, the deferring decision)``: a source
        index its parent document advertised that has not arrived (unless
        the link *is* one of those), else its undeclared origin, else
        ``("", follow)``."""
        if self._awaited:
            advertised = self._advertised.get(link.parent_url, ())
            if link.url not in advertised:
                for index in advertised:
                    if index in self._awaited:
                        return index, _AWAIT_INDEX
        if self.spec.origins == "declared":
            origin = self._source_key(link.url)
            if origin and origin not in self._admitted:
                return origin, _AWAIT_ORIGIN
        return "", _FOLLOW

    def _container_relevant(self, pod, hint) -> bool:
        verdict = self._relevance.get(hint.container)
        if verdict is None:
            verdict = container_relevant(hint, self.scopes, pod.ranges)
            self._relevance[hint.container] = verdict
        return verdict

    def relevant_containers(self, pod) -> list:
        """The pod's summarized containers worth traversing, best first
        (most entities) — the hint extractor turns these into links."""
        relevant = [hint for hint in pod.containers if self._container_relevant(pod, hint)]
        relevant.sort(key=lambda hint: (-hint.entities, hint.container))
        return relevant

    # -- knowledge absorption -------------------------------------------------

    def absorb_document(self, url: str, document: ParsedDocument) -> list:
        """Absorb a fetched document's declarations.

        Parses source-index documents into hints, composes discovered
        subweb specs, notes the source index the document advertises, and
        admits origins declared via the spec's ``admit_origins_via``
        predicates.  Returns the deferred links this document ends the
        wait of — those parked for it as a source index, those whose
        origin it just admitted — for the engine to re-queue.
        """
        released: list[Link] = []
        if url in self._awaited:
            # Arrived: whatever it turns out to say, nobody waits for it longer.
            self._awaited.remove(url)
            released.extend(self._deferred.pop(url, ()))
        if is_index_document(document):
            self.hints.absorb_document(url, document)
            self._relevance.clear()
        else:
            try:
                discovered = SubwebSpecification.from_document(document)
            except ValueError:  # a rule action / mode outside the vocabulary
                self._specs_rejected += 1
                discovered = None
            if discovered is not None:
                self.spec = self.spec.compose(discovered)
                self._admit_via = _predicates(self.spec.admit_origins_via)
        advertisements = document.select((ADVERTISEMENT,))  # of most documents, none
        if advertisements:
            self._advertised[url] = advertised = tuple(
                triple.object.value.partition("#")[0]
                for triple in advertisements
                if isinstance(triple.object, NamedNode)
                and triple.object.value.startswith(("http://", "https://"))
            )
            self._awaited.update(
                index for index in advertised
                if index != url and self.hints.pod_by_source(index) is None
            )
        if self.spec.origins == "declared":
            for triple in document.select(self._admit_via):
                obj_value = getattr(triple.object, "value", "")
                if not obj_value.startswith(("http://", "https://")):
                    continue
                origin = self._source_key(obj_value)
                if origin and origin not in self._admitted:
                    self._admitted.add(origin)
                    released.extend(self._deferred.pop(origin, ()))
        return released

    # -- deferral -------------------------------------------------------------

    def defer(self, link: Link) -> None:
        """Park ``link`` under what :meth:`check` said it waits for."""
        self._deferred.setdefault(self._waits_for(link)[0], []).append(link)

    def release_unjudged(self) -> list:
        """Traversal is about to quiesce: the source indexes still awaited
        are not coming, so the links parked for them go ahead without."""
        waiting = [index for index in self._deferred if index in self._awaited]
        self._awaited.clear()
        return [link for index in waiting for link in self._deferred.pop(index)]

    def drain_deferred(self) -> list:
        """Take every link still waiting for its origin's admission
        (traversal has quiesced; the origin was never declared — they
        count as pruned).  Links a bounded run left waiting for an index
        are dropped like those it left in the queue."""
        drained = [
            link for key, links in self._deferred.items() if key not in self._awaited
            for link in links
        ]
        self._deferred.clear()
        return drained

    @property
    def declarations_rejected(self) -> int:
        """Source indexes declaring a foreign pod plus spec documents that
        do not parse: each is ignored, as if never fetched."""
        return self.hints.rejected + self._specs_rejected

    @property
    def deferred_count(self) -> int:
        return sum(len(links) for links in self._deferred.values())

    def _source_key(self, url: str) -> str:
        """The admission unit of a URL — its origin, extended by the
        spec's ``source_depth`` leading path segments (so many pods on
        one host stay distinct sources)."""
        try:
            origin, path, _ = split_url(url)
        except ValueError:
            return ""
        depth = self.spec.source_depth
        if depth <= 0:
            return origin
        segments = [segment for segment in path.split("?", 1)[0].split("/") if segment]
        return origin + "/" + "/".join(segments[:depth]) + "/"


def _predicates(iris: Iterable[str]) -> frozenset:
    """Predicate IRIs as the terms a document is bucketed by."""
    return frozenset(NamedNode(iri) for iri in iris)
