"""The growing triple source (Fig. 1).

Dereferenced documents feed their triples — those the compiled plan can
read — into one continuously growing store; query operators read from it
*incrementally*: the store hands every change off, and the pipeline takes
what has changed since it last took
(:meth:`~repro.rdf.dataset.Dataset.take_changes`) — the store keeps no
history.  Per-document provenance is kept (named graphs keyed by document
URL) so GRAPH queries work.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from ..rdf.dataset import Dataset
from ..rdf.document import ParsedDocument
from ..rdf.terms import NamedNode, Term
from ..rdf.triples import Quad, Triple

__all__ = ["GrowingTripleSource"]


class GrowingTripleSource:
    """The quad store one execution's dereferenced documents grow.

    Every document enters through :meth:`put_document`; the engine then
    advances the pipeline over :attr:`dataset`'s pending changes.  On a
    crawl a put is a plain append.  A put of a URL the source already
    holds is a diff — the live refresh of a standing query, or a document
    it no longer reaches — so the store can also *shrink*, in signed ``-1``
    changes only a ``live`` pipeline takes.

    The store is *plan-aware*: ``read_set`` is the compiled plan's
    :attr:`~repro.ltqp.pipeline.Pipeline.read_set` — the predicates of the
    quads some operator can match, or ``None`` when one of them can match
    any.  Only those triples are stored, handed off and diffed — taken from
    the document by predicate bucket, so the rest of it (on a pod crawl,
    about 11 triples of 12) is never looked at here.  Every document still
    gets its named graph, kept triples or not; a gone one has none.
    """

    def __init__(self, read_set: Optional[Collection[Term]] = None) -> None:
        self._dataset = Dataset()
        self._read_set = read_set
        self._triples_discovered = 0

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def triples_discovered(self) -> int:
        """Distinct triples of the documents ingested so far, kept or not
        (a document URL ingested twice counts once)."""
        return self._triples_discovered

    def _kept(self, document: ParsedDocument) -> Iterable[Triple]:
        """The triples of one document the plan can read, in document order."""
        read_set = self._read_set
        return document if read_set is None else document.select(read_set)

    def put_document(self, url: str, document: Optional[ParsedDocument]) -> int:
        """Make ``url``'s named graph hold ``document``'s kept triples —
        ``None``: the document is gone, and so is its graph.  Returns how
        many quads that changed (each handed off by the dataset).

        A URL the source does not hold is appended.  A held one is diffed
        against its graph: retractions first (an in-place edit then reads
        retract-then-insert, never both present), each side sorted so the
        signed changes — and every event stream downstream, sharded or not —
        are the same whatever the set order.  An edit of nothing the plan
        reads changes nothing.
        """
        dataset = self._dataset
        graph_name = NamedNode(url)
        # Looked up, not created: a gone document that was never held must
        # not leave an empty graph behind for ``LiveQuery.reads`` to find.
        graph = dataset.get_graph(graph_name)
        if graph is None and document is None:
            return 0
        added = kept = self._kept(document) if document is not None else ()
        removed: list[Triple] = []
        if graph is None:
            self._triples_discovered += document.distinct
        else:
            kept = set(kept)
            removed = sorted((t for t in graph if t not in kept), key=_sort_key)
            added = sorted((t for t in kept if t not in graph), key=_sort_key)
            for triple in removed:
                dataset.remove(Quad(*triple, graph_name))
            if document is None:
                dataset.drop_graph(graph_name)
                return len(removed)
        return len(removed) + dataset.add_triples(added, graph_name)


def _sort_key(triple: Triple) -> tuple[str, str, str]:
    return tuple(map(repr, triple))
