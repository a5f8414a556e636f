"""Process-portable wire forms for the sharded service's data plane.

A sharded deployment moves two kinds of payload between processes:

* **result rows** (worker → front-end): every query answered by a shard
  streams its bindings back over a pipe (CONSTRUCT and DESCRIBE triples
  are ``?subject ?predicate ?object`` bindings like any other row).  :func:`encode_results` packs a
  result list into a *term-table* block — each distinct RDF term is
  written once and rows are index tuples — so a thousand rows over the
  same few IRIs cost a thousand small int tuples, not a thousand copies
  of the IRIs.
* **stored documents** (worker ↔ worker, via the front-end): a graceful
  drain-and-restart hands the outgoing worker's parsed-document store to
  its replacement so the new shard starts warm.  :func:`document_to_wire`
  keeps the response *validator* alongside the triples, so the imported
  entry still participates in ETag/304 revalidation exactly like a
  locally parsed one.  The document's predicate index does not travel:
  the decoded :class:`~repro.rdf.document.ParsedDocument` rebuilds it on
  first use.  The same block is what the document store persists.

Every block writes its terms in one *kind-tagged* JSON form, chosen so
that decoding parses no term text:

* an IRI is its string;
* a literal is a list of :class:`~repro.rdf.terms.Literal`'s own
  arguments — ``[value]``, ``[value, language]`` or
  ``[value, "", datatype]`` (a language tag, or a datatype other than
  ``xsd:string``, only when present);
* a blank node is ``{"_": label}`` and a variable ``{"?": name}``.

Decoding calls the term constructors, which are canonical
(:mod:`repro.rdf.terms`): within the receiving process every occurrence
of a term is one object again, no matter how many messages mentioned it,
and a document decoded again shares its terms with the copy decoded
before instead of adding objects for the collector to trace.  The forms
carry values, never object state: a term's identity — and so its hash —
is local to the process holding it.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..ltqp.live import ResultChange
from ..ltqp.stats import TimedResult
from ..rdf.document import ParsedDocument
from ..rdf.terms import (
    XSD_STRING,
    BlankNode,
    Literal,
    NamedNode,
    Term,
    Variable,
    term_to_ntriples,
)
from ..rdf.triples import Triple
from ..sparql.bindings import Binding
from .docstore import StoredDocument

__all__ = [
    "encode_term",
    "encode_results",
    "decode_results",
    "encode_events",
    "decode_events",
    "document_to_wire",
    "document_from_wire",
]


def encode_term(term: Term) -> str:
    """One term as its N-Triples surface form (``?var`` for variables) —
    the HTTP front door's JSON, not a wire block."""
    return term_to_ntriples(term)


def _tagged(term: Term) -> object:
    """One term in the kind-tagged table form (see the module docstring)."""
    kind = term.__class__
    if kind is NamedNode:
        return term.value
    if kind is Literal:
        if term.language:
            return [term.value, term.language]
        if term.datatype != XSD_STRING:
            return [term.value, "", term.datatype]
        return [term.value]
    if kind is BlankNode:
        return {"_": term.value}
    if kind is Variable:
        return {"?": term.value}
    raise TypeError(f"not an RDF term: {term!r}")


def _untagged(entry: object) -> Term:
    """The literal, blank node or variable of one table entry."""
    kind = entry.__class__
    if kind is list:
        return Literal(*entry)  # type: ignore[misc]
    if kind is dict and len(entry) == 1:  # type: ignore[arg-type]
        ((tag, label),) = entry.items()  # type: ignore[union-attr]
        if tag == "_":
            return BlankNode(label)
        if tag == "?":
            return Variable(label)
    raise ValueError(f"not a term table entry: {entry!r}")


def _decode_terms(table: list) -> list[Term]:
    """A table's terms, in order; no term text is parsed."""
    return [NamedNode(entry) if entry.__class__ is str else _untagged(entry) for entry in table]


class _TermTable:
    """Builds the per-block term table: each distinct term written once."""

    def __init__(self) -> None:
        self.terms: list[object] = []
        self._index: dict[Term, int] = {}

    def add(self, term: Term) -> int:
        index = self._index.get(term)
        if index is None:
            index = len(self.terms)
            self._index[term] = index
            self.terms.append(_tagged(term))
        return index


class _RowPacker:
    """Rows over one term table: a row holds one term index per variable
    the block has seen so far (``-1`` = unbound), padded as new ones appear."""

    def __init__(self) -> None:
        self.table = _TermTable()
        self.variables: list[str] = []
        self._slots: dict[Variable, int] = {}
        self.rows: list[list[int]] = []

    def add(self, binding: Binding) -> None:
        row = [-1] * len(self.variables)
        for variable, term in binding.items():
            slot = self._slots.get(variable)
            if slot is None:
                slot = self._slots[variable] = len(self.variables)
                self.variables.append(variable.value)
                for other in self.rows:
                    other.append(-1)
                row.append(-1)
            row[slot] = self.table.add(term)
        self.rows.append(row)

    def block(self, **columns) -> dict:
        return {"vars": self.variables, "terms": self.table.terms, "rows": self.rows, **columns}


def _unpack(block: dict) -> list[Binding]:
    """A block's rows as bindings over canonical terms."""
    terms = _decode_terms(block["terms"])
    variables = [Variable(name) for name in block["vars"]]
    return [
        Binding({variables[slot]: terms[index] for slot, index in enumerate(row) if index >= 0})
        for row in block["rows"]
    ]


def encode_results(results: Iterable[TimedResult]) -> dict:
    """Pack a result list into a block."""
    packer, elapsed = _RowPacker(), []
    for timed in results:
        packer.add(timed.binding)
        elapsed.append(timed.elapsed)
    return packer.block(elapsed=elapsed)


def decode_results(block: dict) -> list[TimedResult]:
    """Rebuild the result list over this process's canonical terms."""
    return [
        TimedResult(binding=binding, elapsed=when)
        for binding, when in zip(_unpack(block), block["elapsed"])
    ]


def encode_events(events: Iterable[ResultChange]) -> dict:
    """Pack signed result-change events into a term-table block.

    Same rows as :func:`encode_results`, but every row carries its *sign*
    — the signed multiplicity delta — plus its event sequence number and
    the index of the document URL that caused it (``-1`` for initial
    results).  Replaying a decoded block therefore reconstructs the
    subscriber-visible result multiset exactly.
    """
    packer = _RowPacker()
    urls: list[str] = []
    url_index: dict[str, int] = {}
    signs: list[int] = []
    seqs: list[int] = []
    url_refs: list[int] = []
    for event in events:
        packer.add(event.binding)
        signs.append(event.delta)
        seqs.append(event.seq)
        if event.url:
            ref = url_index.get(event.url)
            if ref is None:
                ref = url_index[event.url] = len(urls)
                urls.append(event.url)
            url_refs.append(ref)
        else:
            url_refs.append(-1)
    return packer.block(signs=signs, seqs=seqs, urls=urls, url_refs=url_refs)


def decode_events(block: dict) -> list[ResultChange]:
    """Rebuild the signed event list over this process's canonical terms."""
    urls = block["urls"]
    return [
        ResultChange(seq=seq, binding=binding, delta=sign, url=urls[ref] if ref >= 0 else "")
        for binding, sign, seq, ref in zip(
            _unpack(block), block["signs"], block["seqs"], block["url_refs"]
        )
    ]


def document_to_wire(stored: StoredDocument) -> dict:
    """One stored document as a term-table block, validator preserved.

    ``triples`` is flat: three term indexes per triple, in document order.
    """
    table = _TermTable()
    add = table.add
    triples = []
    for triple in stored.document.triples:
        triples += map(add, triple)
    return {
        "url": stored.url,
        "validator": stored.validator,
        "terms": table.terms,
        "triples": triples,
    }


def document_from_wire(wire: dict, stored_at: Optional[float] = None) -> StoredDocument:
    """Rebuild a stored document over this process's canonical terms."""
    terms = _decode_terms(wire["terms"])
    indexes = iter(wire["triples"])
    triples = zip(indexes, indexes, indexes, strict=True)
    return StoredDocument(
        url=wire["url"],
        validator=wire["validator"],
        document=ParsedDocument([Triple(terms[s], terms[p], terms[o]) for s, p, o in triples]),
        stored_at=stored_at if stored_at is not None else time.monotonic(),
    )
