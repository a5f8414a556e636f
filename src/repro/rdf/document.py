"""One parse of one document, as a value.

A dereferenced document is read by many parties — the growing source
(which keeps the plan's read set), every link extractor, the guided
selector — and, through the parsed-document store, by every later query
that dereferences the same URL.  Each of them wants the triples of a few
predicates, so the document is bucketed by predicate *once*
(:class:`~repro.ltqp.pipeline.DeltaBatch`'s idea, one layer up) and
readers take their buckets: :meth:`ParsedDocument.select`.  Only a reader
that can match any predicate iterates the document itself.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, KeysView, Optional

from .terms import Term
from .triples import Triple

__all__ = ["ParsedDocument"]


class ParsedDocument:
    """The triples of one parse, in document order; immutable.

    The predicate → positions index and the distinct-triple count are
    built on first use and kept, so whoever shares the value (a warm query,
    a live refresh, an adopting shard) shares them too.  Neither is part of
    the value's identity or its wire form.
    """

    __slots__ = ("triples", "_positions", "_distinct")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self.triples: tuple[Triple, ...] = tuple(triples)
        self._positions: Optional[dict[Term, list[int]]] = None
        self._distinct: Optional[int] = None

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        """Every triple — the wildcard reader's walk."""
        return iter(self.triples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParsedDocument):
            return self.triples == other.triples
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"ParsedDocument({len(self.triples)} triples)"

    @property
    def distinct(self) -> int:
        """How many different triples the document states."""
        if self._distinct is None:
            self._distinct = len(set(self.triples))
        return self._distinct

    @property
    def predicates(self) -> KeysView[Term]:
        """The predicates that occur in the document."""
        return self._index().keys()

    def select(self, predicates: Iterable[Term]) -> list[Triple]:
        """The triples whose predicate is one of ``predicates``, in
        document order — ``[t for t in triples if t.predicate in
        predicates]`` without looking at the others."""
        index = self._index()
        hits = [bucket for bucket in map(index.get, predicates) if bucket is not None]
        if not hits:
            return []
        triples = self.triples
        positions = hits[0] if len(hits) == 1 else sorted(chain.from_iterable(hits))
        return [triples[position] for position in positions]

    def _index(self) -> dict[Term, list[int]]:
        index = self._positions
        if index is None:
            index = {}
            for position, triple in enumerate(self.triples):
                bucket = index.get(triple.predicate)
                if bucket is None:
                    index[triple.predicate] = bucket = []
                bucket.append(position)
            self._positions = index
        return index
