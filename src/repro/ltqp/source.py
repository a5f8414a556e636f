"""The growing triple source (Fig. 1).

Dereferenced documents feed their triples — those the compiled plan can
read — into one continuously growing store; query operators read from it
*incrementally*: the pipeline is pushed the log window added since its
last advance (:meth:`~repro.rdf.dataset.Dataset.log_slice`).  Per-document
provenance is kept (named graphs keyed by document URL) so GRAPH queries
work.
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

    Producers call :meth:`add_document` (or :meth:`update_document` on a
    live refresh); the engine then advances the pipeline over
    :attr:`dataset`'s log.

    The store is *plan-aware*: ``read_set`` is the compiled plan's
    :attr:`~repro.ltqp.pipeline.Pipeline.read_set` — the predicates of the
    quads some operator can match, or ``None`` when one of them can match
    any.  Only those triples are stored, logged and diffed — taken from
    the document by predicate bucket, so the rest of it (on a pod crawl,
    about 11 triples of 12) is never looked at here.  Every document still
    gets its named graph, kept triples or not.
    """

    def __init__(self, read_set: Optional[Collection[Term]] = None) -> None:
        self._dataset = Dataset()
        self._read_set = read_set
        self._document_count = 0
        self._triples_discovered = 0

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def document_count(self) -> int:
        return self._document_count

    @property
    def triples_discovered(self) -> int:
        """Distinct triples of the documents ingested so far, kept or not
        (a document URL ingested twice counts once)."""
        return self._triples_discovered

    def _kept(self, document: ParsedDocument) -> Iterable[Triple]:
        """The triples of one document the plan can read, in document order."""
        read_set = self._read_set
        return document if read_set is None else document.select(read_set)

    def add_document(self, url: str, document: ParsedDocument) -> int:
        """Ingest one dereferenced document; returns #new quads stored."""
        graph_name = NamedNode(url)
        if not self._dataset.has_graph(graph_name):
            self._triples_discovered += document.distinct
        self._document_count += 1
        return self._dataset.add_triples(self._kept(document), graph_name)

    def update_document(
        self, url: str, document: ParsedDocument
    ) -> tuple[list[Triple], list[Triple]]:
        """Replace a document's graph with a new parse, minimally.

        Diffs the triples of the new parse the plan can read against the
        document's current named graph and applies only the difference:
        removed triples are retracted (signed ``-1`` log entries), new ones
        inserted.  Returns ``(added, removed)`` — empty/empty when nothing
        the plan reads changed.

        This is the live-refresh ingest path: unlike :meth:`add_document`
        it may *shrink* the store, so it must only run on executions whose
        pipeline understands signed deltas.
        """
        graph_name = NamedNode(url)
        # Looked up, not created: a document that is gone, and was never
        # held, must not leave an empty graph behind for ``reads`` to find.
        graph = self._dataset.get_graph(graph_name)
        held = graph if graph is not None else ()
        new_triples = set(self._kept(document))
        # Sorted so the signed log (and every downstream event stream) is
        # deterministic regardless of set iteration order — sharded and
        # unsharded subscriptions must observe identical change sequences.
        sort_key = lambda t: (repr(t.subject), repr(t.predicate), repr(t.object))  # noqa: E731
        removed = sorted((t for t in held if t not in new_triples), key=sort_key)
        added = sorted((t for t in new_triples if t not in held), key=sort_key)
        # Retractions first: an in-place mutation (same subject/predicate,
        # new object) then reads retract-then-insert, never both present.
        for triple in removed:
            self._dataset.remove(Quad(triple.subject, triple.predicate, triple.object, graph_name))
        if added:
            self._dataset.add_triples(added, graph_name)
        return added, removed
