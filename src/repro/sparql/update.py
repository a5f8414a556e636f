"""SPARQL 1.1 Update (the subset Solid servers accept in PATCH bodies).

Solid pods are *live*: applications modify documents with
``application/sparql-update`` PATCH requests, and a traversal-based
engine sees the changes on its next execution ("can query over live data
that is spread over multiple pods", paper §1).  This module provides the
update operations the Solid protocol uses:

* ``INSERT DATA { ... }`` — add ground triples
* ``DELETE DATA { ... }`` — remove ground triples
* ``DELETE WHERE { ... }`` — remove all instantiations of a pattern
* ``DELETE { ... } INSERT { ... } WHERE { ... }`` — templated rewrite

Updates parse with the same tokenizer/term machinery as queries and
apply to a :class:`~repro.rdf.dataset.Graph` via :func:`apply_update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Union

from ..rdf.dataset import Graph
from ..rdf.terms import BlankNode, Literal, NamedNode, Variable
from ..rdf.triples import Triple, TriplePattern
from .algebra import BGP
from .eval import SnapshotEvaluator, construct_triples
from .parser import SparqlParseError, _Parser

__all__ = [
    "InsertData",
    "DeleteData",
    "DeleteWhere",
    "Modify",
    "UpdateOperation",
    "parse_update",
    "apply_update",
]


@dataclass(frozen=True)
class InsertData:
    triples: tuple[Triple, ...]


@dataclass(frozen=True)
class DeleteData:
    triples: tuple[Triple, ...]


@dataclass(frozen=True)
class DeleteWhere:
    patterns: tuple[TriplePattern, ...]


@dataclass(frozen=True)
class Modify:
    """DELETE { } INSERT { } WHERE { } — either template may be empty."""

    delete_template: tuple[TriplePattern, ...]
    insert_template: tuple[TriplePattern, ...]
    where: tuple[TriplePattern, ...]


UpdateOperation = Union[InsertData, DeleteData, DeleteWhere, Modify]


class _UpdateParser(_Parser):
    """Reuses the query parser's prologue/triples machinery for updates."""

    def parse_update(self) -> list[UpdateOperation]:
        self._parse_prologue()
        operations: list[UpdateOperation] = []
        while self._peek().kind != "EOF":
            operations.append(self._parse_operation())
            self._accept_punct(";")
        if not operations:
            self._fail("expected an update operation")
        return operations

    def _parse_operation(self) -> UpdateOperation:
        token = self._peek()
        if token.kind != "KEYWORD":
            self._fail("expected INSERT or DELETE", token)
        if token.value == "INSERT":
            self._next()
            if self._peek().kind == "KEYWORD" and self._peek().value == "DATA":
                self._next()
                return InsertData(self._parse_ground_block())
            insert_template = self._parse_template_block()
            self._expect_keyword("WHERE")
            where = self._parse_pattern_block()
            return Modify((), insert_template, where)
        if token.value == "DELETE":
            self._next()
            peeked = self._peek()
            if peeked.kind == "KEYWORD" and peeked.value == "DATA":
                self._next()
                return DeleteData(self._parse_ground_block())
            if peeked.kind == "KEYWORD" and peeked.value == "WHERE":
                self._next()
                return DeleteWhere(self._parse_pattern_block())
            delete_template = self._parse_template_block()
            insert_template: tuple[TriplePattern, ...] = ()
            if self._accept_keyword("INSERT"):
                insert_template = self._parse_template_block()
            self._expect_keyword("WHERE")
            where = self._parse_pattern_block()
            return Modify(delete_template, insert_template, where)
        self._fail("expected INSERT or DELETE", token)
        raise AssertionError

    def _parse_pattern_block(self) -> tuple[TriplePattern, ...]:
        self._expect_punct("{")
        patterns, path_patterns = self._parse_triples_block(stop_chars=("}",))
        if path_patterns:
            raise SparqlParseError("property paths are not allowed in updates")
        self._expect_punct("}")
        return tuple(patterns)

    _parse_template_block = _parse_pattern_block

    def _parse_ground_block(self) -> tuple[Triple, ...]:
        patterns = self._parse_pattern_block()
        triples: list[Triple] = []
        for pattern in patterns:
            triples.append(_ground(pattern))
        return tuple(triples)


def _ground(pattern: TriplePattern) -> Triple:
    """Ground a parsed pattern: query blank nodes become blank nodes again,
    real variables are illegal in DATA blocks."""
    terms = []
    for term in pattern:
        if isinstance(term, Variable):
            if term.value.startswith("__bn"):
                terms.append(BlankNode(term.value[4:] or term.value))
                continue
            raise SparqlParseError(f"variable ?{term.value} not allowed in DATA block")
        terms.append(term)
    subject, predicate, object_term = terms
    if isinstance(subject, Literal) or not isinstance(predicate, NamedNode):
        raise SparqlParseError("malformed triple in DATA block")
    return Triple(subject, predicate, object_term)


def parse_update(text: str) -> list[UpdateOperation]:
    """Parse a SPARQL Update request into its operations."""
    return _UpdateParser(text).parse_update()


def _fresh_scopes(graph: Graph) -> Iterator[str]:
    """Blank-node scopes ``u0``, ``u1``, … for INSERT templates, skipping
    every scope a blank node of ``graph`` already labels (``u{n}_{k}``):
    the new nodes are new to the graph — also after an earlier update made
    some — and their labels depend only on the graph and the update."""
    taken = {
        term.value.rpartition("_")[0]
        for triple in graph
        for term in triple
        if isinstance(term, BlankNode)
    }
    return (scope for scope in map("u{}".format, count()) if scope not in taken)


def apply_update(graph: Graph, operations: Union[UpdateOperation, list[UpdateOperation]]) -> dict:
    """Apply update operation(s) to a graph in place.

    Returns ``{"added": n, "removed": m}`` counts.
    """
    if not isinstance(operations, list):
        operations = [operations]
    added = removed = 0
    for operation in operations:
        if isinstance(operation, InsertData):
            for triple in operation.triples:
                if graph.add(triple):
                    added += 1
        elif isinstance(operation, DeleteData):
            for triple in operation.triples:
                if graph.discard(triple):
                    removed += 1
        elif isinstance(operation, DeleteWhere):
            evaluator = SnapshotEvaluator(graph)
            solutions = list(evaluator.evaluate(BGP(operation.patterns)))
            for binding in solutions:
                for triple in construct_triples(operation.patterns, binding, None):
                    if graph.discard(triple):
                        removed += 1
        elif isinstance(operation, Modify):
            evaluator = SnapshotEvaluator(graph)
            solutions = list(evaluator.evaluate(BGP(operation.where)))
            to_remove: list[Triple] = []
            to_add: list[Triple] = []
            scopes = _fresh_scopes(graph)
            for binding in solutions:
                to_remove.extend(construct_triples(operation.delete_template, binding, None))
                to_add.extend(construct_triples(operation.insert_template, binding, next(scopes)))
            for triple in to_remove:
                if graph.discard(triple):
                    removed += 1
            for triple in to_add:
                if graph.add(triple):
                    added += 1
        else:
            raise TypeError(f"unknown update operation: {operation!r}")
    return {"added": added, "removed": removed}
