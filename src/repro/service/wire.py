"""Process-portable wire forms for the sharded service's data plane.

A sharded deployment moves two kinds of payload between processes:

* **result rows** (worker → front-end): every query answered by a shard
  streams its bindings back over a pipe.  :func:`encode_results` packs a
  result list into a *term-table* block — each distinct RDF term is
  serialized once (N-Triples surface syntax) and rows are index tuples —
  so a thousand rows over the same few IRIs cost a thousand small int
  tuples, not a thousand copies of the IRIs.
* **stored documents** (worker ↔ worker, via the front-end): a graceful
  drain-and-restart hands the outgoing worker's parsed-document store to
  its replacement so the new shard starts warm.  :func:`document_to_wire`
  keeps the response *validator* alongside the triples, so the imported
  entry still participates in ETag/304 revalidation exactly like a
  locally parsed one.  The document's predicate index does not travel:
  the decoded :class:`~repro.rdf.document.ParsedDocument` rebuilds it on
  first use.

Decoding re-interns: IRIs come back through
:func:`~repro.rdf.terms.intern_iri`, so within the receiving process
every occurrence of an IRI is one object again (identity-shortcut
equality, one cached hash) no matter how many messages mentioned it.
The slotted term classes' cached hashes are salted by per-process string
hash randomization, which is exactly why the wire forms carry lexical
surface forms, never raw object state.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ltqp.live import ResultChange
from ..ltqp.stats import TimedResult
from ..rdf.document import ParsedDocument
from ..rdf.ntriples import _parse_term
from ..rdf.terms import Term, Variable, intern, term_to_ntriples
from ..rdf.triples import Triple
from ..sparql.bindings import Binding
from .docstore import StoredDocument

__all__ = [
    "encode_term",
    "decode_term",
    "encode_results",
    "decode_results",
    "encode_events",
    "decode_events",
    "document_to_wire",
    "document_from_wire",
]


def encode_term(term: Term) -> str:
    """One term as its N-Triples surface form (``?var`` for variables)."""
    return term_to_ntriples(term)


def decode_term(text: str) -> Term:
    """Parse a term back, re-interning it in the receiving process."""
    if text.startswith("?"):
        return Variable(text[1:])
    term, _ = _parse_term(text, 0, 0)
    # _parse_term already interns IRIs; route the rest (literals, blank
    # nodes) through the generic pool so repeated terms share one object.
    return intern(term)  # type: ignore[arg-type]


class _TermTable:
    """Builds the per-block term table: each distinct term encoded once."""

    def __init__(self) -> None:
        self.terms: list[str] = []
        self._index: dict[Term, int] = {}

    def add(self, term: Term) -> int:
        index = self._index.get(term)
        if index is None:
            index = len(self.terms)
            self._index[term] = index
            self.terms.append(encode_term(term))
        return index


def encode_results(results: Iterable[TimedResult]) -> dict:
    """Pack a result list (bindings or construct triples) into a block."""
    table = _TermTable()
    variables: list[str] = []
    var_index: dict[Variable, int] = {}
    rows: list[list[int]] = []
    elapsed: list[float] = []
    kind = "bindings"
    for timed in results:
        value = timed.binding
        if isinstance(value, Triple):
            kind = "triples"
            rows.append([table.add(t) for t in value])
        else:
            row_width = len(variables)
            row = [-1] * row_width
            for variable, term in value.items():
                slot = var_index.get(variable)
                if slot is None:
                    slot = len(variables)
                    var_index[variable] = slot
                    variables.append(variable.value)
                    for other in rows:
                        other.append(-1)
                    row.append(-1)
                row[slot] = table.add(term)
            rows.append(row)
        elapsed.append(timed.elapsed)
    return {
        "kind": kind,
        "vars": variables,
        "terms": table.terms,
        "rows": rows,
        "elapsed": elapsed,
    }


def decode_results(block: dict) -> list[TimedResult]:
    """Rebuild the result list, re-interning every term."""
    terms = [decode_term(text) for text in block["terms"]]
    elapsed = block["elapsed"]
    results: list[TimedResult] = []
    if block["kind"] == "triples":
        for row, when in zip(block["rows"], elapsed):
            triple = Triple(terms[row[0]], terms[row[1]], terms[row[2]])
            results.append(TimedResult(binding=triple, elapsed=when))
        return results
    variables = [Variable(name) for name in block["vars"]]
    for row, when in zip(block["rows"], elapsed):
        items = {
            variables[slot]: terms[index]
            for slot, index in enumerate(row)
            if index >= 0
        }
        results.append(TimedResult(binding=Binding(items), elapsed=when))
    return results


def encode_events(events: Iterable[ResultChange]) -> dict:
    """Pack signed result-change events into a term-table block.

    Same term-table layout as :func:`encode_results`, but every row
    carries its *sign* — the signed multiplicity delta — plus its event
    sequence number and the index of the document URL that caused it
    (``-1`` for initial results).  Replaying a decoded block therefore
    reconstructs the subscriber-visible result multiset exactly.
    """
    table = _TermTable()
    variables: list[str] = []
    var_index: dict[Variable, int] = {}
    urls: list[str] = []
    url_index: dict[str, int] = {}
    rows: list[list[int]] = []
    signs: list[int] = []
    seqs: list[int] = []
    url_refs: list[int] = []
    for event in events:
        row_width = len(variables)
        row = [-1] * row_width
        for variable, term in event.binding.items():
            slot = var_index.get(variable)
            if slot is None:
                slot = len(variables)
                var_index[variable] = slot
                variables.append(variable.value)
                for other in rows:
                    other.append(-1)
                row.append(-1)
            row[slot] = table.add(term)
        rows.append(row)
        signs.append(event.delta)
        seqs.append(event.seq)
        if event.url:
            ref = url_index.get(event.url)
            if ref is None:
                ref = len(urls)
                url_index[event.url] = ref
                urls.append(event.url)
            url_refs.append(ref)
        else:
            url_refs.append(-1)
    return {
        "kind": "events",
        "vars": variables,
        "terms": table.terms,
        "rows": rows,
        "signs": signs,
        "seqs": seqs,
        "urls": urls,
        "url_refs": url_refs,
    }


def decode_events(block: dict) -> list[ResultChange]:
    """Rebuild the signed event list, re-interning every term."""
    terms = [decode_term(text) for text in block["terms"]]
    variables = [Variable(name) for name in block["vars"]]
    urls = block["urls"]
    events: list[ResultChange] = []
    for row, sign, seq, ref in zip(
        block["rows"], block["signs"], block["seqs"], block["url_refs"]
    ):
        items = {
            variables[slot]: terms[index]
            for slot, index in enumerate(row)
            if index >= 0
        }
        events.append(
            ResultChange(
                seq=seq,
                binding=Binding(items),
                delta=sign,
                url=urls[ref] if ref >= 0 else "",
            )
        )
    return events


def document_to_wire(stored: StoredDocument) -> dict:
    """One stored document as a term-table block, validator preserved."""
    table = _TermTable()
    rows = [[table.add(t) for t in triple] for triple in stored.document.triples]
    return {
        "url": stored.url,
        "validator": stored.validator,
        "terms": table.terms,
        "rows": rows,
    }


def document_from_wire(wire: dict, stored_at: Optional[float] = None) -> StoredDocument:
    """Rebuild a stored document with terms interned in this process.

    Reads only the keys it names: a payload persisted before the ``links``
    field was dropped still decodes, so an older store file reopens warm.
    """
    import time

    terms = [decode_term(text) for text in wire["terms"]]
    return StoredDocument(
        url=wire["url"],
        validator=wire["validator"],
        document=ParsedDocument(Triple(terms[s], terms[p], terms[o]) for s, p, o in wire["rows"]),
        stored_at=stored_at if stored_at is not None else time.monotonic(),
    )
