"""The source selector: follow, defer, or prune — before dereferencing.

One :class:`SourceSelector` serves one query execution.  It combines

* a :class:`~repro.ltqp.guided.subweb.SubwebSpecification` (CLI-supplied
  and/or discovered inside pods),
* :class:`~repro.ltqp.guided.hints.CardinalityHints` absorbed from
  source-index documents as traversal encounters them, and
* the query's subject groups (:func:`~repro.ltqp.guided.hints.query_scopes`)

into a per-link decision.  Checks split by *when* their grounds are
known:

``check_static(link)``
    Spec path/depth rules and hint-based container relevance — grounds
    that only ever **deny** more as knowledge grows, so applying them at
    push time can never prune a link a later document would have
    justified.

``check(link)``
    The full decision, adding origin admission, evaluated at pop time.
    Origin knowledge is *monotone in the other direction* — absorbing
    documents admits origins, never revokes them — so a link denied only
    for its origin is not dropped but **deferred**: parked with the
    selector and re-queued the moment some traversed document declares
    its origin.  Links still deferred when traversal quiesces were never
    going to be admitted; the engine counts them as pruned.

The engine feeds every fetched document through ``absorb_document``
*before* link extraction, so a document's own links are always judged
with that document's declarations already absorbed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..links import Link
from ...net.message import split_url
from ...rdf.document import ParsedDocument
from ...rdf.terms import intern_iri
from .hints import CardinalityHints, container_relevant, is_hint_document
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
        if where is not None:
            from .hints import query_scopes

            self.scopes = query_scopes(where)
        else:
            self.scopes = ()
        self._admit_via = _predicates(self.spec.admit_origins_via)
        self._admitted: set[str] = set()
        for seed in seeds:
            origin = self._source_key(seed)
            if origin:
                self._admitted.add(origin)
        #: Links parked awaiting origin admission, keyed by origin.
        self._deferred: dict[str, list[Link]] = {}
        #: Relevance verdicts are stable per container (scopes are fixed;
        #: ranges only grow, and a grown range can only *relax* a class
        #: constraint it already satisfied — cache by container URL).
        self._relevance: dict[str, bool] = {}

    # -- decisions ------------------------------------------------------------

    def check_static(self, link: Link) -> LinkDecision:
        """Push-time check: spec rules and hint relevance only."""
        allowed, rule = self.spec.decide(link.url, link.depth)
        if not allowed:
            return LinkDecision(LinkDecision.PRUNE, f"spec:{rule}")
        pod = self.hints.pod_for(link.url)
        if pod is not None:
            if pod.complete and link.url in pod.infra:
                return LinkDecision(LinkDecision.PRUNE, "hint:infra")
            hint = pod.container_for(link.url)
            if hint is not None and not self._container_relevant(hint):
                return LinkDecision(LinkDecision.PRUNE, "hint:irrelevant")
        return _FOLLOW

    def check(self, link: Link) -> LinkDecision:
        """Pop-time check: static grounds plus origin admission."""
        decision = self.check_static(link)
        if decision.action != LinkDecision.FOLLOW:
            return decision
        if self.spec.origins == "declared":
            origin = self._source_key(link.url)
            if origin and origin not in self._admitted:
                return LinkDecision(LinkDecision.DEFER, "origin:undeclared")
        return _FOLLOW

    def _container_relevant(self, hint) -> bool:
        verdict = self._relevance.get(hint.container)
        if verdict is None:
            verdict = container_relevant(hint, self.scopes, self.hints.ranges)
            self._relevance[hint.container] = verdict
        return verdict

    def relevant_containers(self, pod) -> list:
        """The pod's summarized containers worth traversing, best first
        (most entities) — the hint extractor turns these into links."""
        relevant = [hint for hint in pod.containers if self._container_relevant(hint)]
        relevant.sort(key=lambda hint: (-hint.entities, hint.container))
        return relevant

    # -- knowledge absorption -------------------------------------------------

    def absorb_document(self, url: str, document: ParsedDocument) -> list:
        """Absorb a fetched document's declarations.

        Parses source-index documents into hints, composes discovered
        subweb specs, and admits origins declared via the spec's
        ``admit_origins_via`` predicates.  Returns any previously deferred
        links whose origin this document just admitted — the engine
        re-queues them.
        """
        if is_hint_document(document):
            pod = self.hints.absorb_document(url, document)
            if pod is not None and pod.ranges:
                # New ranges can flip cached "irrelevant under no ranges"
                # verdicts; recompute lazily.
                self._relevance.clear()
        else:
            discovered = SubwebSpecification.from_document(document)
            if discovered is not None:
                self.spec = self.spec.compose(discovered)
                self._admit_via = _predicates(self.spec.admit_origins_via)
        released: list[Link] = []
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
        origin = self._source_key(link.url)
        self._deferred.setdefault(origin, []).append(link)

    def drain_deferred(self) -> list:
        """Take every still-deferred link (traversal is quiescing; their
        origins were never declared — they count as pruned)."""
        drained = [link for links in self._deferred.values() for link in links]
        self._deferred.clear()
        return drained

    @property
    def deferred_count(self) -> int:
        return sum(len(links) for links in self._deferred.values())

    @property
    def restricts(self) -> bool:
        return self.spec.restricts or self.hints.pod_count > 0

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
    return frozenset(intern_iri(iri) for iri in iris)
