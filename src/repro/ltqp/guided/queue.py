"""The guided link queue: provenance- and hint-scored prioritization.

Scores combine these signals, in lexicographic order:

1. **Extractor tier** (:data:`~repro.ltqp.links.EXTRACTOR_RANK` via the
   link's provenance) — structural metadata first: seeds, then hint /
   source-index documents, storage and type-index pointers, then data
   links.  Hint-derived container links share the type-index tier.  One
   exception jumps the tiers: a data link whose producing *predicate*
   appears in the query (``likes``, ``hasPost``, …) is a navigational
   edge the join itself needs, so it is promoted to
   :data:`QUERY_MATCH_TIER` — between storage and type-index.  Without
   this, a query whose first answer lives across a ``likes`` hop (e.g.
   Discover template 8) drains every container of the seed pod before
   taking the one hop that produces a result.
2. **Result-contribution boost** — when the pipeline emits a binding, the
   engine calls :meth:`GuidedLinkQueue.note_result_contribution` with the
   documents whose triples joined into it; pending links that are
   *siblings* of a contributing document (same container prefix) move
   ahead of equal-tier links.  Containers that are producing results get
   drained first — the guided-LTQP heuristic that reachability from
   productive sources predicts productivity.
3. **Depth, then hint cardinality** — among equal-tier, equal-boost
   links, shallow before deep, then documents from containers with more
   declared entities first.

Boosts arrive while links are already enqueued, so each contribution
calls :meth:`~repro.ltqp.links.LinkQueue.rescore` — the base queue's one
re-score mechanism (all pending entries, once, on the next pop).
"""

from __future__ import annotations

from ..links import Link, LinkQueue, QueuePolicyContext, provenance_rank

__all__ = ["GuidedLinkQueue", "QUERY_MATCH_TIER"]

#: Tier for data links produced by a predicate the query itself uses —
#: ahead of type-index/container structure (3) but after storage roots (2).
QUERY_MATCH_TIER = 2.5


class GuidedLinkQueue(LinkQueue):
    def __init__(self, context: QueuePolicyContext) -> None:
        super().__init__(self._guided_score)
        self._hints = context.hints
        #: IRIs of the query's concrete predicates — links discovered via
        #: one of these are join edges, not speculative crawl.
        self._query_predicates = frozenset(
            predicate.value for predicate in getattr(context.query, "predicates", ())
        )
        #: Contribution boost per container prefix (see _prefix_of).
        self._boosts: dict[str, int] = {}

    def note_result_contribution(self, document_url: str) -> None:
        """A document's triples just joined into an emitted binding —
        promote its pending sibling links."""
        prefix = _prefix_of(document_url)
        if prefix:
            self._boosts[prefix] = self._boosts.get(prefix, 0) + 1
            self.rescore()

    def _guided_score(self, link: Link, seq: int) -> tuple:
        tier: float = provenance_rank(link)
        provenance = link.provenance
        if (
            provenance is not None
            and provenance.predicate in self._query_predicates
            and tier > QUERY_MATCH_TIER
        ):
            tier = QUERY_MATCH_TIER
        boost = self._boosts.get(_prefix_of(link.url), 0)
        entities = 0
        if self._hints is not None:
            pod = self._hints.pod_for(link.url)
            if pod is not None:
                hint = pod.container_for(link.url)
                if hint is not None:
                    entities = hint.entities
        return (tier, -boost, link.depth, -entities)


def _prefix_of(url: str) -> str:
    """The container prefix of a document URL: up to the last ``/``."""
    clean = url.split("#", 1)[0]
    slash = clean.rfind("/")
    if slash <= len("https://"):
        return ""
    return clean[: slash + 1]
