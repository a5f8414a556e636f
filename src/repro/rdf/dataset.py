"""Indexed in-memory RDF stores.

Two stores are provided:

* :class:`Graph` — a set of triples; each of its SPO/POS/OSP hash indexes
  is built on the first read that needs it and maintained from then on,
  giving O(matching) pattern scans for any bound-position combination
  while a graph nobody pattern-matches pays for a set insert and nothing
  else.
* :class:`Dataset` — a set of quads (triple + source document IRI), built on
  per-graph :class:`Graph` instances plus a union graph.  This is the store
  the LTQP engine's growing triple source builds on: every per-graph change
  is handed off as a signed :class:`Quad` to whoever takes the dataset's
  pending changes (:meth:`Dataset.take_changes` — the pipeline), not kept,
  and the pipeline reads those changes, not the indexes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .terms import NamedNode, Term, Variable
from .triples import ObjectTerm, PredicateTerm, Quad, SubjectTerm, Triple

__all__ = ["Graph", "Dataset"]

_Index = dict[Term, dict[Term, set[Term]]]

#: Index family → how it nests a triple: (outer key, inner key, bucket member).
_FAMILIES = {"spo": itemgetter(0, 1, 2), "pos": itemgetter(1, 2, 0), "osp": itemgetter(2, 0, 1)}


def _is_concrete(term: Optional[Term]) -> bool:
    return term is not None and not isinstance(term, Variable)


def _index_add(index: _Index, first: Term, second: Term, third: Term) -> None:
    level = index.get(first)
    if level is None:
        level = index[first] = {}
    bucket = level.get(second)
    if bucket is None:
        bucket = level[second] = set()
    bucket.add(third)


def _index_discard(index: _Index, first: Term, second: Term, third: Term) -> None:
    level = index[first]
    bucket = level[second]
    bucket.discard(third)
    if not bucket:
        del level[second]
        if not level:
            del index[first]


class Graph:
    """A mutable set of triples with up to three hash indexes (SPO, POS, OSP).

    The triple set is the store.  An index family exists only once a read
    needed it: that read builds it from the set in one pass, and ``add`` /
    ``discard`` keep every built family current from then on.  Most graphs
    in an LTQP run (one per dereferenced document, plus a union that a
    BGP-only plan reads through the dataset's hand-off) are never
    pattern-matched and so never build one.
    """

    __slots__ = ("_triples", "_indexes")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set(triples)
        self._indexes: dict[str, _Index] = {}

    @property
    def built_indexes(self) -> tuple[str, ...]:
        """The index families reads have built so far — an observation for
        tests and diagnostics; there is nothing to configure."""
        return tuple(self._indexes)

    def _index(self, family: str) -> _Index:
        """The named index family, built from the triple set on first use."""
        index = self._indexes.get(family)
        if index is None:
            index = {}
            order = _FAMILIES[family]
            for triple in self._triples:
                _index_add(index, *order(triple))
            self._indexes[family] = index
        return index

    def add(self, triple: Triple) -> bool:
        """Insert; returns ``True`` when the triple was not present before.

        This is the hottest write path in the whole engine (every parsed
        quad lands here for its named graph and for the union), so novelty
        is read off the set's size — one hash probe, not two — and only the
        index families a read has already built are maintained.
        """
        triples = self._triples
        size = len(triples)
        triples.add(triple)
        if len(triples) == size:
            return False
        for family, index in self._indexes.items():
            _index_add(index, *_FAMILIES[family](triple))
        return True

    def discard(self, triple: Triple) -> bool:
        """Remove; returns ``True`` when the triple was present."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        for family, index in self._indexes.items():
            _index_discard(index, *_FAMILIES[family](triple))
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns the number of newly added triples."""
        return sum(1 for triple in triples if self.add(triple))

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern (``None``/Variable = wildcard).

        Picks the most selective available index for the bound positions.
        """
        s = subject if _is_concrete(subject) else None
        p = predicate if _is_concrete(predicate) else None
        o = object if _is_concrete(object) else None

        if s is not None and p is not None and o is not None:
            candidate = Triple(s, p, o)  # type: ignore[arg-type]
            if candidate in self._triples:
                yield candidate
            return
        if s is not None and p is not None:
            for obj in self._index("spo").get(s, {}).get(p, ()):
                yield Triple(s, p, obj)  # type: ignore[arg-type]
            return
        if p is not None and o is not None:
            for subj in self._index("pos").get(p, {}).get(o, ()):
                yield Triple(subj, p, o)  # type: ignore[arg-type]
            return
        if s is not None and o is not None:
            for pred in self._index("osp").get(o, {}).get(s, ()):
                yield Triple(s, pred, o)  # type: ignore[arg-type]
            return
        if s is not None:
            for pred, objs in self._index("spo").get(s, {}).items():
                for obj in objs:
                    yield Triple(s, pred, obj)  # type: ignore[arg-type]
            return
        if p is not None:
            for obj, subjs in self._index("pos").get(p, {}).items():
                for subj in subjs:
                    yield Triple(subj, p, obj)  # type: ignore[arg-type]
            return
        if o is not None:
            for subj, preds in self._index("osp").get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)  # type: ignore[arg-type]
            return
        yield from self._triples

    def subjects(self, predicate: Optional[Term] = None, object: Optional[Term] = None) -> Iterator[SubjectTerm]:
        seen: set[SubjectTerm] = set()
        for triple in self.match(None, predicate, object):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Term] = None) -> Iterator[ObjectTerm]:
        seen: set[ObjectTerm] = set()
        for triple in self.match(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Optional[Term]:
        """Return one matching term for the single wildcard position, or None."""
        for triple in self.match(subject, predicate, object):
            if subject is None:
                return triple.subject
            if object is None:
                return triple.object
            return triple.predicate
        return None

    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __bool__(self) -> bool:
        return bool(self._triples)

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def __repr__(self) -> str:
        return f"<Graph with {len(self._triples)} triples>"


class Dataset:
    """A quad store: named graphs keyed by document IRI plus a union view.

    The graphs are the store.  A change is *handed off*, not kept: every
    per-graph novelty (:meth:`add`, :meth:`add_triples`) and every
    retraction (:meth:`remove`) appends one :class:`Quad` to the pending
    run of its sign — ``+1`` insertion, ``-1`` retraction — and
    :meth:`take_changes` returns those maximal same-sign runs in arrival
    order and forgets them.  The LTQP pipeline is the one taker: it feeds
    each run as one signed delta batch.  During traversal the web only
    grows, so what is pending is one ``+1`` run; once documents start
    *changing* (live standing queries), ``-1`` runs appear between them.
    """

    __slots__ = ("_graphs", "_union", "_shared", "_runs", "__weakref__")

    def __init__(self) -> None:
        self._graphs: dict[Optional[NamedNode], Graph] = {}
        self._union = Graph()
        #: Triple → how many graphs beyond the first hold it, for the
        #: triples more than one graph holds: a retraction asks this, not
        #: every graph, whether the union keeps the triple.
        self._shared: dict[Triple, int] = {}
        #: The changes not taken yet: ``[(sign, quads), ...]``, each run
        #: of the other sign than the one before it.
        self._runs: list[tuple[int, list[Quad]]] = []

    @property
    def union(self) -> Graph:
        """The union of all graphs (default + named)."""
        return self._union

    @property
    def pending(self) -> int:
        """How many changed quads wait for :meth:`take_changes`."""
        return sum(len(quads) for _, quads in self._runs)

    def take_changes(self) -> list[tuple[int, list[Quad]]]:
        """The pending changes as maximal same-sign runs
        ``[(sign, quads), ...]`` in arrival order; the dataset forgets them."""
        runs, self._runs = self._runs, []
        return runs

    def _hand_off(self, sign: int, quads: list[Quad]) -> None:
        """Append ``quads`` to the pending run of ``sign`` (a change of sign opens one)."""
        runs = self._runs
        if runs and runs[-1][0] == sign:
            runs[-1][1].extend(quads)
        else:
            runs.append((sign, quads))

    def graph(self, name: Optional[NamedNode] = None) -> Graph:
        """Get (creating if needed) the graph with the given name.

        For writers; a read must not leave a phantom graph behind, so
        readers use :meth:`get_graph`.
        """
        if name not in self._graphs:
            self._graphs[name] = Graph()
        return self._graphs[name]

    def get_graph(self, name: Optional[NamedNode] = None) -> Optional[Graph]:
        """The graph with the given name, or ``None`` — never creates one."""
        return self._graphs.get(name)

    def graph_names(self) -> Iterator[Optional[NamedNode]]:
        return iter(self._graphs)

    def has_graph(self, name: Optional[NamedNode]) -> bool:
        return name in self._graphs

    def drop_graph(self, name: Optional[NamedNode]) -> None:
        """Forget an emptied named graph (a document that is gone)."""
        if self._graphs.get(name):
            raise ValueError(f"graph {name!r} still holds triples")
        self._graphs.pop(name, None)

    def add(self, quad: Quad) -> bool:
        """Insert a quad; returns ``True`` when new *in its graph*.

        The union graph deduplicates across graphs, but every per-graph
        novelty is handed off, so per-document provenance is never lost.
        """
        triple = quad.triple
        if not self.graph(quad.graph).add(triple):
            return False
        if not self._union.add(triple):
            self._shared[triple] = self._shared.get(triple, 0) + 1
        self._hand_off(1, [quad])
        return True

    def remove(self, quad: Quad) -> bool:
        """Retract a quad; returns ``True`` when it was present in its graph.

        The union graph only drops the triple when *no other* graph still
        holds it (cross-document duplicates keep the union entry alive).
        The retraction is handed off with sign ``-1``, in arrival order.
        """
        graph = self._graphs.get(quad.graph)
        if graph is None:
            return False
        triple = quad.triple
        if not graph.discard(triple):
            return False
        others = self._shared.get(triple)
        if others is None:
            self._union.discard(triple)
        elif others == 1:
            del self._shared[triple]
        else:
            self._shared[triple] = others - 1
        self._hand_off(-1, [quad])
        return True

    def add_triples(self, triples: Iterable[Triple], graph: Optional[NamedNode] = None) -> int:
        """Bulk-insert one graph's triples; returns how many were new in it.

        The ingest path for whole documents: the graph is looked up once,
        the caller's :class:`Triple` objects are stored as they are (in the
        named graph and in the union), and one :class:`Quad` is handed off
        per per-graph novelty — duplicates within ``triples`` or against the
        graph's current content add nothing.
        """
        add = self.graph(graph).add
        union_add = self._union.add
        shared = self._shared
        added: list[Quad] = []
        for triple in triples:
            if add(triple):
                if not union_add(triple):
                    shared[triple] = shared.get(triple, 0) + 1
                added.append(Quad(*triple, graph))
        if added:
            self._hand_off(1, added)
        return len(added)

    def update(self, quads: Iterable[Quad]) -> int:
        return sum(1 for q in quads if self.add(q))

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
        graph: Optional[NamedNode] = None,
    ) -> Iterator[Triple]:
        """Match over the union (``graph=None``) or a single named graph."""
        target = self._union if graph is None else self.get_graph(graph)
        if target is None:
            return iter(())
        return target.match(subject, predicate, object)

    def quads(self) -> Iterator[Quad]:
        """The stored quads, graph by graph in creation order."""
        for name, graph in self._graphs.items():
            for triple in graph:
                yield Quad(*triple, name)

    def __len__(self) -> int:
        """Total number of (triple, graph) pairs stored."""
        return sum(len(graph) for graph in self._graphs.values())

    def __contains__(self, triple: object) -> bool:
        return triple in self._union

    def __repr__(self) -> str:
        return f"<Dataset with {len(self)} quads in {len(self._graphs)} graphs>"
