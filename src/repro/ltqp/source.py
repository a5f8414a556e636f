"""The growing triple source (Fig. 1).

Dereferenced documents feed their triples into one continuously growing
store; query operators read from it *incrementally*: the pipeline is
pushed the log window added since its last advance
(:meth:`~repro.rdf.dataset.Dataset.log_slice`).  Per-document provenance is
kept (named graphs keyed by document URL) so GRAPH queries and the
completeness oracle work.
"""

from __future__ import annotations

from typing import Iterable

from ..rdf.dataset import Dataset
from ..rdf.terms import intern_iri
from ..rdf.triples import Quad, Triple

__all__ = ["GrowingTripleSource"]


class GrowingTripleSource:
    """The quad store one execution's dereferenced documents grow.

    Producers call :meth:`add_document` (or :meth:`update_document` on a
    live refresh); the engine then advances the pipeline over
    :attr:`dataset`'s log.
    """

    def __init__(self) -> None:
        self._dataset = Dataset()
        self._document_count = 0

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def document_count(self) -> int:
        return self._document_count

    def add_document(self, url: str, triples: Iterable[Triple]) -> int:
        """Ingest one dereferenced document; returns #new quads."""
        added = self._dataset.add_triples(triples, intern_iri(url))
        self._document_count += 1
        return added

    def update_document(
        self, url: str, triples: Iterable[Triple]
    ) -> tuple[list[Triple], list[Triple]]:
        """Replace a document's graph with a new parse, minimally.

        Diffs ``triples`` against the document's current named graph and
        applies only the difference: removed triples are retracted (signed
        ``-1`` log entries), new ones inserted.  Returns
        ``(added, removed)`` — empty/empty when the parse is unchanged.

        This is the live-refresh ingest path: unlike :meth:`add_document`
        it may *shrink* the store, so it must only run on executions whose
        pipeline understands signed deltas.
        """
        graph_name = intern_iri(url)
        graph = self._dataset.graph(graph_name)
        new_triples = set(triples)
        # Sorted so the signed log (and every downstream event stream) is
        # deterministic regardless of set iteration order — sharded and
        # unsharded subscriptions must observe identical change sequences.
        sort_key = lambda t: (repr(t.subject), repr(t.predicate), repr(t.object))  # noqa: E731
        removed = sorted((t for t in graph if t not in new_triples), key=sort_key)
        added = sorted((t for t in new_triples if t not in graph), key=sort_key)
        # Retractions first: an in-place mutation (same subject/predicate,
        # new object) then reads retract-then-insert, never both present.
        for triple in removed:
            self._dataset.remove(Quad(triple.subject, triple.predicate, triple.object, graph_name))
        self._dataset.add_triples(added, graph_name)
        return added, removed
