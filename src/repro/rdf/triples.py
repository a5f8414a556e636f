"""Triples, quads, and triple patterns.

:class:`Triple` and :class:`Quad` are hand-rolled ``__slots__`` classes with
the hash computed once at construction (from the terms' identity hashes),
because every insert into the dataset's triple sets (and whichever indexes
reads have built) and every membership probe re-hashes the statement.
They are value-equal — terms are canonical, so two statements are equal
when they hold the same term objects — and must be treated as immutable.
:class:`TriplePattern` stays a frozen dataclass — patterns are built once
per query, not per triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .terms import BlankNode, Literal, NamedNode, Term, Variable, term_to_ntriples

__all__ = ["Triple", "Quad", "TriplePattern", "SubjectTerm", "PredicateTerm", "ObjectTerm"]

SubjectTerm = Union[NamedNode, BlankNode]
PredicateTerm = NamedNode
ObjectTerm = Union[NamedNode, BlankNode, Literal]


class Triple:
    """An RDF triple (subject, predicate, object)."""

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: SubjectTerm, predicate: PredicateTerm, object: ObjectTerm) -> None:
        self.subject = subject
        self.predicate = predicate
        self.object = object
        self._hash = hash((subject, predicate, object))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is Triple:
            return (
                self.subject is other.subject  # type: ignore[attr-defined]
                and self.predicate is other.predicate  # type: ignore[attr-defined]
                and self.object is other.object  # type: ignore[attr-defined]
            )
        return NotImplemented

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object

    def to_ntriples(self) -> str:
        return (
            f"{term_to_ntriples(self.subject)} "
            f"{term_to_ntriples(self.predicate)} "
            f"{term_to_ntriples(self.object)} ."
        )

    def __str__(self) -> str:
        return self.to_ntriples()

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def __reduce__(self):
        # Rebuild through __init__: the cached hash is process-local (it
        # derives from salted string hashes), so it must be recomputed on
        # the receiving side rather than carried across as state.
        return (Triple, (self.subject, self.predicate, self.object))


class Quad:
    """An RDF quad: a triple plus the graph (document IRI) it came from."""

    __slots__ = ("subject", "predicate", "object", "graph", "_hash")

    def __init__(
        self,
        subject: SubjectTerm,
        predicate: PredicateTerm,
        object: ObjectTerm,
        graph: Optional[NamedNode] = None,
    ) -> None:
        self.subject = subject
        self.predicate = predicate
        self.object = object
        self.graph = graph
        self._hash = hash((subject, predicate, object, graph))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is Quad:
            return (
                self.subject is other.subject  # type: ignore[attr-defined]
                and self.predicate is other.predicate  # type: ignore[attr-defined]
                and self.object is other.object  # type: ignore[attr-defined]
                and self.graph is other.graph  # type: ignore[attr-defined]
            )
        return NotImplemented

    @property
    def triple(self) -> Triple:
        return Triple(self.subject, self.predicate, self.object)

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object

    def to_nquads(self) -> str:
        parts = [
            term_to_ntriples(self.subject),
            term_to_ntriples(self.predicate),
            term_to_ntriples(self.object),
        ]
        if self.graph is not None:
            parts.append(term_to_ntriples(self.graph))
        return " ".join(parts) + " ."

    def __str__(self) -> str:
        return self.to_nquads()

    def __repr__(self) -> str:
        return f"Quad({self.subject!r}, {self.predicate!r}, {self.object!r}, {self.graph!r})"

    def __reduce__(self):
        return (Quad, (self.subject, self.predicate, self.object, self.graph))


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern: any position may be a :class:`Variable` or ``None``
    (wildcard).  Used both by the SPARQL algebra (variables) and by the
    dataset match API (``None`` wildcards)."""

    subject: Optional[Term]
    predicate: Optional[Term]
    object: Optional[Term]

    def variables(self) -> set[Variable]:
        return {t for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)}

    def matches(self, triple: Triple) -> bool:
        """Positional match, treating variables and ``None`` as wildcards."""
        term = self.subject
        if term is not None and term.__class__ is not Variable and term != triple.subject:
            return False
        term = self.predicate
        if term is not None and term.__class__ is not Variable and term != triple.predicate:
            return False
        term = self.object
        if term is not None and term.__class__ is not Variable and term != triple.object:
            return False
        return True

    def __iter__(self) -> Iterator[Optional[Term]]:
        yield self.subject
        yield self.predicate
        yield self.object

    def __str__(self) -> str:
        def render(term: Optional[Term]) -> str:
            return "_" if term is None else term_to_ntriples(term)

        return f"{render(self.subject)} {render(self.predicate)} {render(self.object)}"
