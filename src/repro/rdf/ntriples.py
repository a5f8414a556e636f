"""N-Triples / N-Quads line-based parsing and serialization."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from .terms import (
    BlankNode,
    Literal,
    NamedNode,
    unescape_string_literal,
)
from .triples import ObjectTerm, Quad, SubjectTerm, Triple

__all__ = [
    "NTriplesParseError",
    "parse_ntriples",
    "parse_nquads",
    "serialize_ntriples",
    "serialize_nquads",
]

_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9_\-.]+)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'
    r"(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)|\^\^<([^<>\s]*)>)?"
)


class NTriplesParseError(ValueError):
    """Raised on malformed N-Triples/N-Quads input."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"{message} (line {line_number})")
        self.line_number = line_number


def _parse_term(
    line: str, pos: int, line_number: int, bnode_prefix: str = ""
) -> tuple[object, int]:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    if pos >= len(line):
        raise NTriplesParseError("unexpected end of line", line_number)
    char = line[pos]
    if char == "<":
        match = _IRI_RE.match(line, pos)
        if not match:
            raise NTriplesParseError("malformed IRI", line_number)
        value = match.group(1)
        if "\\" in value:
            value = unescape_string_literal(value)
        return NamedNode(value), match.end()
    if char == "_":
        match = _BNODE_RE.match(line, pos)
        if not match:
            raise NTriplesParseError("malformed blank node", line_number)
        return BlankNode(bnode_prefix + match.group(1)), match.end()
    if char == '"':
        match = _LITERAL_RE.match(line, pos)
        if not match:
            raise NTriplesParseError("malformed literal", line_number)
        value = unescape_string_literal(match.group(1))
        language = match.group(2) or ""
        datatype = match.group(3) or ""
        if language:
            return Literal(value, language), match.end()
        if datatype:
            return Literal(value, "", datatype), match.end()
        return Literal(value), match.end()
    raise NTriplesParseError(f"unexpected character {char!r}", line_number)


def _parse_line(
    line: str, line_number: int, allow_graph: bool, bnode_prefix: str
) -> Optional[tuple[SubjectTerm, NamedNode, ObjectTerm, Optional[NamedNode]]]:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    subject, pos = _parse_term(line, 0, line_number, bnode_prefix)
    predicate, pos = _parse_term(line, pos, line_number, bnode_prefix)
    obj, pos = _parse_term(line, pos, line_number, bnode_prefix)
    graph: Optional[NamedNode] = None
    rest = line[pos:].strip()
    if allow_graph and rest.startswith("<"):
        match = _IRI_RE.match(rest)
        if not match:
            raise NTriplesParseError("malformed graph IRI", line_number)
        graph = NamedNode(match.group(1))
        rest = rest[match.end():].strip()
    if rest != ".":
        raise NTriplesParseError("expected terminating '.'", line_number)
    if not isinstance(subject, (NamedNode, BlankNode)):
        raise NTriplesParseError("literal subject not allowed", line_number)
    if not isinstance(predicate, NamedNode):
        raise NTriplesParseError("predicate must be an IRI", line_number)
    return subject, predicate, obj, graph  # type: ignore[return-value]


def parse_ntriples(text: str, bnode_prefix: str = "") -> Iterator[Triple]:
    """Parse N-Triples text, yielding triples line by line.

    Lines are split on ``\n`` only — ``str.splitlines`` would also split on
    Unicode separators (U+001E, U+2028, ...) that may occur raw inside
    literals.  A blank node ``_:x`` is ``BlankNode(bnode_prefix + "x")``:
    give each document its own prefix to keep its blank nodes its own.
    """
    for line_number, line in enumerate(text.split("\n"), start=1):
        parsed = _parse_line(line, line_number, allow_graph=False, bnode_prefix=bnode_prefix)
        if parsed is not None:
            subject, predicate, obj, _ = parsed
            yield Triple(subject, predicate, obj)


def parse_nquads(text: str, bnode_prefix: str = "") -> Iterator[Quad]:
    """Parse N-Quads text, yielding quads line by line (blank nodes as in
    :func:`parse_ntriples`)."""
    for line_number, line in enumerate(text.split("\n"), start=1):
        parsed = _parse_line(line, line_number, allow_graph=True, bnode_prefix=bnode_prefix)
        if parsed is not None:
            subject, predicate, obj, graph = parsed
            yield Quad(subject, predicate, obj, graph)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to N-Triples text (one statement per line)."""
    return "".join(t.to_ntriples() + "\n" for t in triples)


def serialize_nquads(quads: Iterable[Quad]) -> str:
    """Serialize quads to N-Quads text (one statement per line)."""
    return "".join(q.to_nquads() + "\n" for q in quads)
