"""RDF term model.

Immutable, hashable term classes following the RDF 1.1 abstract syntax:
:class:`NamedNode` (IRIs), :class:`BlankNode`, :class:`Literal`, and the
SPARQL-only :class:`Variable`.  Terms compare by value, are usable as
dictionary keys, and render to their N-Triples / SPARQL surface syntax via
:func:`term_to_ntriples`.

Terms sit on the engine's hottest path: every triple insert hashes its
three terms into the SPO/POS/OSP indexes, and every delta match hashes
them again into bindings and join tables.  The classes here are therefore
hand-rolled ``__slots__`` classes (not dataclasses) with the hash computed
once at construction and stored, and with identity short-circuits in
``__eq__``.  Nothing mutates a term after construction; treat them as
frozen.

:func:`intern_iri` / :func:`intern` provide a bounded intern pool so bulk
producers (the Turtle/N-Triples parsers, the SolidBench generator, the
namespace factories) share one object per distinct IRI instead of
allocating millions of duplicates.

The module also provides typed-literal helpers (:func:`literal_from_python`,
:meth:`Literal.to_python`) covering the XSD types used by SolidBench data:
strings, booleans, integers/longs, decimals, doubles, dates and dateTimes.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone
from decimal import Decimal
from typing import Union

__all__ = [
    "Term",
    "NamedNode",
    "BlankNode",
    "Literal",
    "Variable",
    "XSD",
    "RDF_LANGSTRING",
    "XSD_STRING",
    "XSD_BOOLEAN",
    "XSD_INTEGER",
    "XSD_LONG",
    "XSD_INT",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_FLOAT",
    "XSD_DATE",
    "XSD_DATETIME",
    "intern",
    "intern_iri",
    "intern_pool_stats",
    "clear_intern_pools",
    "literal_from_python",
    "term_to_ntriples",
    "escape_string_literal",
    "unescape_string_literal",
]

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_BOOLEAN = XSD + "boolean"
XSD_INTEGER = XSD + "integer"
XSD_LONG = XSD + "long"
XSD_INT = XSD + "int"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_FLOAT = XSD + "float"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_LONG,
        XSD_INT,
        XSD_DECIMAL,
        XSD_DOUBLE,
        XSD_FLOAT,
        XSD + "short",
        XSD + "byte",
        XSD + "nonNegativeInteger",
        XSD + "nonPositiveInteger",
        XSD + "negativeInteger",
        XSD + "positiveInteger",
        XSD + "unsignedLong",
        XSD + "unsignedInt",
        XSD + "unsignedShort",
        XSD + "unsignedByte",
    }
)

_INTEGER_DATATYPES = _NUMERIC_DATATYPES - {XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}


# Per-class hash salts keep equal-valued terms of different kinds (e.g.
# NamedNode("x") vs BlankNode("x")) from landing in the same hash bucket.
_NAMED_SALT = 0x5B1D_9E37
_BLANK_SALT = 0x2F0C_63A5
_VARIABLE_SALT = 0x7A3D_11C9


class NamedNode:
    """An IRI reference term.

    The ``value`` is stored as given; callers are expected to pass absolute
    IRIs (relative resolution happens in the parsers).
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: str) -> None:
        self.value = value
        self._hash = hash(value) ^ _NAMED_SALT

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is NamedNode:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    def __str__(self) -> str:
        return f"<{self.value}>"

    def __repr__(self) -> str:
        return f"NamedNode({self.value!r})"

    def __reduce__(self):
        # Pickle as a call to :func:`intern_iri`, never as raw state: the
        # stored ``_hash`` is salted by the *sending* process's string
        # hash randomization, so the receiving side must recompute it —
        # and re-interning means every deserialized occurrence of an IRI
        # shares one object in the receiver's pool.
        return (intern_iri, (self.value,))


class BlankNode:
    """A blank node with a document/store-scoped label."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: str) -> None:
        self.value = value
        self._hash = hash(value) ^ _BLANK_SALT

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is BlankNode:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    def __str__(self) -> str:
        return f"_:{self.value}"

    def __repr__(self) -> str:
        return f"BlankNode({self.value!r})"

    def __reduce__(self):
        # Reconstruct through __init__ so the hash is recomputed with the
        # receiving process's string salt (see NamedNode.__reduce__).
        return (BlankNode, (self.value,))


class Variable:
    """A SPARQL variable (``?name``); never appears in stored data."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: str) -> None:
        self.value = value
        self._hash = hash(value) ^ _VARIABLE_SALT

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is Variable:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    def __str__(self) -> str:
        return f"?{self.value}"

    def __repr__(self) -> str:
        return f"Variable({self.value!r})"

    def __reduce__(self):
        return (Variable, (self.value,))


class Literal:
    """An RDF literal with lexical form, optional language tag and datatype.

    Plain literals default to ``xsd:string``; language-tagged literals get
    ``rdf:langString`` per RDF 1.1.
    """

    __slots__ = ("value", "language", "datatype", "_hash")

    def __init__(self, value: str, language: str = "", datatype: str = XSD_STRING) -> None:
        self.value = value
        if language:
            language = language.lower()
            datatype = RDF_LANGSTRING
        self.language = language
        self.datatype = datatype
        self._hash = hash((value, language, datatype))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is Literal:
            return (
                self.value == other.value  # type: ignore[attr-defined]
                and self.language == other.language  # type: ignore[attr-defined]
                and self.datatype == other.datatype  # type: ignore[attr-defined]
            )
        return NotImplemented

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    @property
    def is_integer(self) -> bool:
        return self.datatype in _INTEGER_DATATYPES

    def to_python(self) -> Union[str, int, float, bool, Decimal, date, datetime]:
        """Convert to the closest native Python value.

        Raises :class:`ValueError` when the lexical form is invalid for the
        datatype (ill-typed literal).
        """
        dt = self.datatype
        if dt in _INTEGER_DATATYPES:
            return int(self.value)
        if dt == XSD_DECIMAL:
            return Decimal(self.value)
        if dt in (XSD_DOUBLE, XSD_FLOAT):
            return float(self.value)
        if dt == XSD_BOOLEAN:
            if self.value in ("true", "1"):
                return True
            if self.value in ("false", "0"):
                return False
            raise ValueError(f"invalid xsd:boolean lexical form: {self.value!r}")
        if dt == XSD_DATETIME:
            return _parse_datetime(self.value)
        if dt == XSD_DATE:
            return date.fromisoformat(self.value)
        return self.value

    def __reduce__(self):
        # ``language`` re-coerces the datatype to rdf:langString in
        # __init__, so passing both back is lossless.
        return (Literal, (self.value, self.language, self.datatype))

    def __str__(self) -> str:
        return term_to_ntriples(self)

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.value!r}, language={self.language!r})"
        if self.datatype != XSD_STRING:
            return f"Literal({self.value!r}, datatype={self.datatype!r})"
        return f"Literal({self.value!r})"


Term = Union[NamedNode, BlankNode, Literal, Variable]


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

#: Upper bound on each intern pool.  Past this the pools stop growing (new
#: terms are still constructed, just not shared) — a safety valve for
#: adversarial workloads with unbounded distinct IRIs.
INTERN_POOL_LIMIT = 1 << 20

_IRI_POOL: dict[str, NamedNode] = {}
_TERM_POOL: dict[Term, Term] = {}


def intern_iri(value: str) -> NamedNode:
    """Return the canonical :class:`NamedNode` for ``value``.

    Repeated calls with the same IRI string return the *same* object, so
    equality checks short-circuit on identity and the hash is computed only
    once per distinct IRI across the whole process.  The pool is bounded by
    :data:`INTERN_POOL_LIMIT`.
    """
    node = _IRI_POOL.get(value)
    if node is None:
        node = NamedNode(value)
        if len(_IRI_POOL) < INTERN_POOL_LIMIT:
            _IRI_POOL[value] = node
    return node


def intern(term: Term) -> Term:
    """Return the canonical instance of any term (value- and type-equal).

    :class:`NamedNode` interning goes through the dedicated string-keyed
    pool (cheaper lookups); other term kinds share a generic pool.  Interned
    and non-interned terms compare and hash identically — interning is purely
    a memory/speed optimisation.
    """
    if term.__class__ is NamedNode:
        return intern_iri(term.value)
    canonical = _TERM_POOL.get(term)
    if canonical is None:
        canonical = term
        if len(_TERM_POOL) < INTERN_POOL_LIMIT:
            _TERM_POOL[term] = term
    return canonical


def intern_pool_stats() -> dict[str, int]:
    """Sizes of the intern pools (for diagnostics and benchmarks)."""
    return {"iris": len(_IRI_POOL), "terms": len(_TERM_POOL), "limit": INTERN_POOL_LIMIT}


def clear_intern_pools() -> None:
    """Drop all interned terms (tests and memory-pressure escape hatch)."""
    _IRI_POOL.clear()
    _TERM_POOL.clear()


def _parse_datetime(lexical: str) -> datetime:
    """Parse an ``xsd:dateTime`` lexical form, handling trailing ``Z``."""
    text = lexical
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def literal_from_python(value: Union[str, int, float, bool, Decimal, date, datetime]) -> Literal:
    """Build a typed literal from a native Python value."""
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD_DOUBLE)
    if isinstance(value, Decimal):
        return Literal(str(value), datatype=XSD_DECIMAL)
    if isinstance(value, datetime):
        return Literal(value.isoformat(), datatype=XSD_DATETIME)
    if isinstance(value, date):
        return Literal(value.isoformat(), datatype=XSD_DATE)
    if isinstance(value, str):
        return Literal(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an RDF literal")


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}

_UNESCAPES = {
    "\\": "\\",
    '"': '"',
    "'": "'",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "b": "\b",
    "f": "\f",
}

_ESCAPE_RE = re.compile(r'[\\"\n\r\t\b\f]')
_UNESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.)")


def escape_string_literal(text: str) -> str:
    """Escape a string for inclusion in a double-quoted Turtle/N-Triples literal."""
    return _ESCAPE_RE.sub(lambda match: _ESCAPES[match.group(0)], text)


def _unescape(match: re.Match[str]) -> str:
    body = match.group(1)
    if body[0] in "uU":
        return chr(int(body[1:], 16))
    if body in _UNESCAPES:
        return _UNESCAPES[body]
    raise ValueError(f"invalid escape sequence: \\{body}")


def unescape_string_literal(text: str) -> str:
    """Reverse :func:`escape_string_literal`, including ``\\uXXXX`` forms."""
    # Almost no literal a parser sees contains an escape: those pay for one
    # substring test, not a regex pass.
    if "\\" not in text:
        return text
    return _UNESCAPE_RE.sub(_unescape, text)


def term_to_ntriples(term: Term) -> str:
    """Serialize a term to N-Triples surface syntax (SPARQL syntax for variables)."""
    if isinstance(term, NamedNode):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.value}"
    if isinstance(term, Variable):
        return f"?{term.value}"
    if isinstance(term, Literal):
        body = f'"{escape_string_literal(term.value)}"'
        if term.language:
            return f"{body}@{term.language}"
        if term.datatype and term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype}>"
        return body
    raise TypeError(f"not an RDF term: {term!r}")
