"""Triples, quads, and triple patterns.

A statement is a tuple of terms: :class:`Triple`, :class:`Quad` and
:class:`TriplePattern` are ``NamedTuple`` classes, so hashing, equality,
iteration, unpacking and pickling are the tuple's, in C.  Terms are
canonical and hash by identity, so a statement hashes and compares its
terms without calling back into Python — every insert into the dataset's
triple sets (and whichever indexes reads have built) and every membership
probe re-hashes the statement.  Being tuples, they are immutable.

Two consequences of being a tuple:

* a :class:`Quad` iterates and unpacks as its four fields
  ``subject, predicate, object, graph`` (``quad.triple`` is the first three);
* a statement equals any tuple of the same terms — a :class:`Triple` equals
  a fully concrete :class:`TriplePattern` over them, but never a
  :class:`Quad`, which has four.

:class:`TriplePattern` positions may hold a :class:`Variable` or ``None``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .terms import BlankNode, Literal, NamedNode, Term, Variable, term_to_ntriples

__all__ = ["Triple", "Quad", "TriplePattern", "SubjectTerm", "PredicateTerm", "ObjectTerm"]

SubjectTerm = Union[NamedNode, BlankNode]
PredicateTerm = NamedNode
ObjectTerm = Union[NamedNode, BlankNode, Literal]


class Triple(NamedTuple):
    """An RDF triple (subject, predicate, object)."""

    subject: SubjectTerm
    predicate: PredicateTerm
    object: ObjectTerm

    def to_ntriples(self) -> str:
        return " ".join(map(term_to_ntriples, self)) + " ."

    def __str__(self) -> str:
        return self.to_ntriples()


class Quad(NamedTuple):
    """An RDF quad: a triple plus the graph (document IRI) it came from."""

    subject: SubjectTerm
    predicate: PredicateTerm
    object: ObjectTerm
    graph: Optional[NamedNode] = None

    @property
    def triple(self) -> Triple:
        return Triple(*self[:3])

    def to_nquads(self) -> str:
        terms = self if self.graph is not None else self[:3]
        return " ".join(map(term_to_ntriples, terms)) + " ."

    def __str__(self) -> str:
        return self.to_nquads()


class TriplePattern(NamedTuple):
    """A triple pattern: any position may be a :class:`Variable` or ``None``
    (wildcard).  Used both by the SPARQL algebra (variables) and by the
    dataset match API (``None`` wildcards)."""

    subject: Optional[Term]
    predicate: Optional[Term]
    object: Optional[Term]

    def variables(self) -> set[Variable]:
        return {term for term in self if isinstance(term, Variable)}

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

    def __str__(self) -> str:
        return " ".join("_" if term is None else term_to_ntriples(term) for term in self)
