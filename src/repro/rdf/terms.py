"""RDF term model.

Immutable term classes following the RDF 1.1 abstract syntax:
:class:`NamedNode` (IRIs), :class:`BlankNode`, :class:`Literal`, and the
SPARQL-only :class:`Variable`.  Terms render to their N-Triples / SPARQL
surface syntax via :func:`term_to_ntriples`.

Every term is *canonical*: a constructor returns the one live object for
its value — an IRI, a blank-node label, a variable name, or a literal's
lexical form, lowercased language tag and datatype.  Two terms are equal
exactly when they are the same object, so the classes define no
``__hash__`` / ``__eq__`` of their own: hashing and equality are
``object``'s, C-level identity, in every set, index, join table and
DISTINCT the engine builds.  Terms sit on the engine's hottest path (every
stored triple is hashed into sets and indexes, every delta match into
bindings and join bags), and none of that calls back into Python.

The pools behind the constructors are weak-valued: an entry lives exactly
as long as its term is referenced somewhere else, so memory is bounded by
the live terms — a hostile stream of unique IRIs leaves nothing behind
once the documents that carried it are dropped.  A hit is one dict probe
and one weak-reference call; the miss path takes a lock, because the
shard pipe unpickles terms in executor and reader threads.  Pickling and
the service wire forms carry values and rebuild through the constructors,
so a term that crosses a process boundary is the receiver's canonical
object.  Nothing mutates a term after construction; treat them as frozen.

The module also provides typed-literal helpers (:func:`literal_from_python`,
:meth:`Literal.to_python`) covering the XSD types used by SolidBench data:
strings, booleans, integers/longs, decimals, doubles, dates and dateTimes.
"""

from __future__ import annotations

import re
import threading
from datetime import date, datetime, timezone
from decimal import Decimal
from typing import Optional, Union
from weakref import ref

from _weakref import _remove_dead_weakref  # WeakValueDictionary's C-level pruner

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
    "term_pool_sizes",
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


# ---------------------------------------------------------------------------
# canonical construction
# ---------------------------------------------------------------------------

#: Serialises the miss path of every pool.  The shard pipe unpickles terms
#: in executor and reader threads, and two threads minting one value must
#: come away with one object; a hit takes no lock.
_MINT_LOCK = threading.Lock()


class _Entry(ref):
    """A pool entry: a weak reference to the live term that remembers its
    key (built by ``ref``'s own C constructor; the key is set after)."""

    __slots__ = ("key",)


class _Pool(dict):
    """A weak-valued pool: key → :class:`_Entry` for the live term.

    ``forget`` is the entries' callback: it drops a dead term's entry, and
    only while that entry is still the dead one (a term minted again under
    the same key in the meantime stays)."""

    __slots__ = ("forget",)

    def __init__(self) -> None:
        def forget(entry: _Entry, pool: _Pool = self, remove=_remove_dead_weakref) -> None:
            remove(pool, entry.key)

        self.forget = forget


def _publish(pool: _Pool, key: object, term: "Term") -> "Term":
    """The miss path: make ``term`` the live object for ``key`` — unless
    another thread published one first, which is then returned instead."""
    entry = _Entry(term, pool.forget)
    entry.key = key
    with _MINT_LOCK:
        live = pool.get(key)
        if live is not None:
            live = live()
            if live is not None:
                return live
        pool[key] = entry
    return term


_IRIS = _Pool()
_LABELS = _Pool()
_NAMES = _Pool()
#: Literal pools keyed by lexical form alone, one per datatype this module
#: names (the common ones, fixed: an unbounded stream of datatypes must not
#: leave pools behind).  Any other literal — a language tag, or another
#: datatype — is keyed ``(form, language, datatype)`` in ``_OTHER_LITERALS``.
_TYPED = {
    datatype: _Pool()
    for datatype in (
        XSD_STRING, XSD_BOOLEAN, XSD_INTEGER, XSD_LONG, XSD_INT, XSD_DECIMAL,
        XSD_DOUBLE, XSD_FLOAT, XSD_DATE, XSD_DATETIME,
    )
}
_OTHER_LITERALS = _Pool()


class NamedNode:
    """An IRI reference term.

    The ``value`` is stored as given; callers are expected to pass absolute
    IRIs (relative resolution happens in the parsers).
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: str) -> "NamedNode":
        entry = _IRIS.get(value)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.value = value
        return _publish(_IRIS, value, node)

    @staticmethod
    def existing(value: str) -> Optional["NamedNode"]:
        """The live node for ``value``, or ``None`` — creates nothing.

        A value no live node names cannot be a key of any store, so a
        membership probe can stop here without minting a term to throw
        away."""
        entry = _IRIS.get(value)
        return None if entry is None else entry()

    def __str__(self) -> str:
        return f"<{self.value}>"

    def __repr__(self) -> str:
        return f"NamedNode({self.value!r})"

    def __reduce__(self):
        # Rebuilt through the constructor: the receiving process hands
        # back its own live node for the IRI.
        return (NamedNode, (self.value,))


class BlankNode:
    """A blank node with a document/store-scoped label."""

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: str) -> "BlankNode":
        entry = _LABELS.get(value)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.value = value
        return _publish(_LABELS, value, node)

    def __str__(self) -> str:
        return f"_:{self.value}"

    def __repr__(self) -> str:
        return f"BlankNode({self.value!r})"

    def __reduce__(self):
        return (BlankNode, (self.value,))


class Variable:
    """A SPARQL variable (``?name``); never appears in stored data."""

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: str) -> "Variable":
        entry = _NAMES.get(value)
        if entry is not None:
            variable = entry()
            if variable is not None:
                return variable
        variable = object.__new__(cls)
        variable.value = value
        return _publish(_NAMES, value, variable)

    def __str__(self) -> str:
        return f"?{self.value}"

    def __repr__(self) -> str:
        return f"Variable({self.value!r})"

    def __reduce__(self):
        return (Variable, (self.value,))


class Literal:
    """An RDF literal with lexical form, optional language tag and datatype.

    Plain literals default to ``xsd:string``; language-tagged literals get
    ``rdf:langString`` per RDF 1.1.  A literal of a common XSD datatype is
    found by its lexical form in its datatype's pool (no key object
    built); any other by its form, lowercased language tag and datatype.
    """

    __slots__ = ("value", "language", "datatype", "__weakref__")

    def __new__(cls, value: str, language: str = "", datatype: str = XSD_STRING) -> "Literal":
        key: object = value
        if language:
            language = language.lower()
            datatype = RDF_LANGSTRING
            pool = _OTHER_LITERALS
            key = (value, language, datatype)
        else:
            pool = _TYPED.get(datatype)
            if pool is None:
                pool = _OTHER_LITERALS
                key = (value, language, datatype)
        entry = pool.get(key)
        if entry is not None:
            literal = entry()
            if literal is not None:
                return literal
        literal = object.__new__(cls)
        literal.value = value
        literal.language = language
        literal.datatype = datatype
        return _publish(pool, key, literal)

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
        # the constructor, so passing both back is lossless.
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


def term_pool_sizes() -> dict[str, int]:
    """How many live terms each pool holds (diagnostics and tests)."""
    return {
        "iris": len(_IRIS),
        "blank_nodes": len(_LABELS),
        "variables": len(_NAMES),
        "literals": sum(map(len, _TYPED.values())) + len(_OTHER_LITERALS),
    }


#: Kept importable for callers that name it (the ledger's probe): the
#: constructor is canonical, so this is the constructor.
intern_iri = NamedNode


def intern(term: Term) -> Term:
    """``term`` itself: every term is already canonical."""
    return term


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
