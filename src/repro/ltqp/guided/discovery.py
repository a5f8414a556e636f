"""Link extraction for source selection's own metadata documents.

Two jobs (the engine puts this extractor ahead of its stack in every
execution, next to the :class:`~.selector.SourceSelector` it serves):

1. In *any* document: follow ``subweb:cardinalityIndex`` and
   ``subweb:specification`` objects — pods advertise their source index
   and traversal scope from the WebID profile, and the guided score ranks
   these links ahead of data (tier ``"hint"``).
2. In a *source-index* document (the selector absorbed it just before
   extraction runs): emit links for the pod's summary units that are
   relevant to the query, best unit first, each carrying the unit's class
   as provenance.  A complete index that lists a unit's members yields
   those documents (``"hint-member"``, in URL order): the chain is card →
   index → document, and the selector prunes the unit's container as
   redundant.  Any other unit yields its container (``"hint-container"``),
   which is also recorded as a registration
   (``context.registered_targets``) so that a scoped LDP extractor
   descends into it — the type index it replaces is pruned.
"""

from __future__ import annotations

from ..extractors import LinkExtractor
from ..links import LinkProvenance
from ...rdf.namespaces import SUBWEB
from ...rdf.terms import NamedNode
from ...solid.index import ADVERTISEMENT

__all__ = ["HintDiscoveryExtractor"]

#: Where pods advertise their source index and their traversal scope.
_ADVERTISEMENTS = (ADVERTISEMENT, SUBWEB.specification)


class HintDiscoveryExtractor(LinkExtractor):
    """Advertised indexes and specs from any document; from an absorbed
    source index, the members of each relevant unit that lists them, else
    the unit's container (see the module docstring)."""

    name = "hint"

    def __init__(self, selector) -> None:
        self._selector = selector

    def reads(self, context):
        return _ADVERTISEMENTS

    def discover(self, document_url, document, context):
        for triple in document.select(_ADVERTISEMENTS):
            if isinstance(triple.object, NamedNode):
                yield triple.object.value, LinkProvenance(
                    extractor=self.name, predicate=triple.predicate.value
                )
        pod = self._selector.hints.pod_by_source(document_url)
        if pod is not None:
            for hint in self._selector.relevant_containers(pod):
                first_class = min(hint.classes) if hint.classes else None
                if pod.complete and hint.members:
                    provenance = LinkProvenance(extractor="hint-member", for_class=first_class)
                    for member in sorted(hint.members):
                        yield member, provenance
                    continue
                context.registered_targets.add(hint.container)
                yield hint.container, LinkProvenance(
                    extractor="hint-container", for_class=first_class
                )
