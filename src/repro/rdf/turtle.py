"""Turtle parsing: one regex scanner under one grammar loop.

Supports the whole Turtle language as it appears in Solid pods and
SolidBench data:

* ``@prefix`` / ``@base`` and SPARQL-style ``PREFIX`` / ``BASE``
* IRIs (with relative-reference resolution against the base), prefixed
  names (including ``%hh`` and ``\\``-escaped local-name characters)
* the ``a`` keyword
* predicate-object lists (``;``, repeated or trailing) and object lists (``,``)
* literals: short/long quoted strings (single and double quotes), language
  tags, datatype annotations, numeric shorthands (integer, decimal, double),
  booleans
* blank node labels (``_:b``), anonymous blank nodes (``[ ... ]``)
* RDF collections (``( ... )``)
* comments

Text is read a terminal at a time, never a character at a time: each
terminal is one compiled pattern (stdlib ``re``) with the whitespace and
comments after it folded into the match, and the common statement body —
verb, simple object, then ``,`` / ``;`` / ``.`` — is one match of those
same patterns put in a row.  The grammar is a single loop with an explicit
stack for ``[ ... ]`` and ``( ... )``; :mod:`repro.rdf.trig` runs the same
loop with ``{``, ``}`` and ``GRAPH`` switched on.  Names and IRIs are
memoised per document opening, in tables the documents of one pod share.

Parse errors raise :class:`TurtleParseError` carrying line/column context:
where the terminal that could not be read starts (for a name-like one,
where its ``:`` would have to be).
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urljoin

from .namespaces import RDF
from .terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Literal,
    NamedNode,
    unescape_string_literal,
)
from .triples import ObjectTerm, SubjectTerm, Triple

__all__ = ["TurtleParseError", "TurtleParser", "parse_turtle"]

_RDF_FIRST = RDF.first
_RDF_REST = RDF.rest
_RDF_NIL = RDF.nil
_RDF_TYPE = RDF.type

# -- terminals ---------------------------------------------------------------

#: Whitespace and comments.  Every match ends with it, so the parser always
#: stands at the start of a terminal.  No input splits two ways under it,
#: so a failed match backtracks in linear time.
_WS = r"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*"


def _name_class(allowed: str) -> str:
    """A character class of ``allowed`` and every character from U+00C0
    on (the Unicode letters PN_CHARS admits, approximated broadly enough
    for real-world Turtle).  It is written as the complement of what it
    leaves out below U+00C0: a class spelled with the Unicode range itself
    takes milliseconds to compile, once per use in every pattern."""
    excluded = [code for code in range(0xC0) if chr(code) not in allowed]
    runs = []
    for code in excluded:
        if runs and runs[-1][1] == code - 1:
            runs[-1][1] = code
        else:
            runs.append([code, code])
    return "[^" + "".join(f"\\x{lo:02x}-\\x{hi:02x}" for lo, hi in runs) + "]"


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_NAME_START = _name_class(_LETTERS)  # PN_CHARS_BASE
_NAME = _name_class(_LETTERS + "0123456789_-·")  # PN_CHARS
_NAME_OR_DOT = _name_class(_LETTERS + "0123456789_-·.")
_NAME_OR_COLON = _name_class(_LETTERS + "0123456789_-·:")
# PLX: a percent-encoding (kept as written) or a PN_LOCAL_ESC.
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%]"
_PN_PREFIX = f"(?:{_NAME_START}(?:{_NAME_OR_DOT}*{_NAME})?)?"
# A local name may hold dots, but not end with one.
_PN_LOCAL = (
    f"(?:{_NAME_OR_COLON}|{_PLX}){_NAME_OR_COLON}*"
    f"(?:(?:{_PLX}|\\.+(?:{_NAME_OR_COLON}|{_PLX})){_NAME_OR_COLON}*)*"
)
# Each terminal that a longer one could extend ends where it cannot be
# extended, so a pattern put in a row never reads "ex:ab" as "ex:a" "b".
_PNAME = (
    f"{_PN_PREFIX}:(?:{_PN_LOCAL})?"
    f"(?!{_NAME_OR_COLON}|[%\\\\]|\\.(?:{_NAME_OR_COLON}|[%\\\\]))"
)
_IRIREF = (
    r'<[^<>"{}|^`\\\x00-\x20]*'
    r'(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^<>"{}|^`\\\x00-\x20]*)*>'
)
# Long forms first; a short string never starts a long one's quotes.
_STRING = (
    r'"""[^"\\]*(?:(?:\\[\s\S]|"(?!""))[^"\\]*)*"""'
    r"|'''[^'\\]*(?:(?:\\[\s\S]|'(?!''))[^'\\]*)*'''"
    r'|"(?!"")[^"\\\n]*(?:\\.[^"\\\n]*)*"'
    r"|'(?!'')[^'\\\n]*(?:\\.[^'\\\n]*)*'"
)
_LITERAL = (
    f"(?:{_STRING})"
    f"(?:@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\\^\\^(?:{_IRIREF}|{_PNAME}))?"
)
# DOUBLE, DECIMAL, INTEGER: "1." is the integer 1 and a statement's dot.
# SPARQL's numerals are the same terminals (``repro.sparql.tokens``).
NUMBER = (
    r"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"
    r"|[0-9]*\.[0-9]+|[0-9]+)(?![0-9]|\.[0-9]|[eE][+-]?[0-9])"
)
_BLANK_LABEL = f"_:{_NAME}(?:{_NAME_OR_DOT}*{_NAME})?(?!{_NAME}|\\.{_NAME})"
_BOOLEAN = f"(?:true|false)(?!{_NAME_OR_COLON})"
_A = f"a(?!{_NAME_OR_COLON})"
# "; ;" folds into one terminator: the grammar allows (';' (verb objectList)?)*.
_PUNCT = f";(?:{_WS};)*|[.,\\[\\]()]|[{{}}]"
# Directive keywords: the "@" forms, and SPARQL's (any case) and TriG's GRAPH.
_KEYWORD = "@prefix|@base|(?i:prefix|base|graph)(?=[ \\t\\r\\n<#]|\\Z)"

_VERB_TERM = f"{_IRIREF}|{_PNAME}|{_A}"
_OBJECT = f"{_IRIREF}|{_LITERAL}|{_PNAME}|{_BLANK_LABEL}|{NUMBER}|{_BOOLEAN}"
_END = f";(?:{_WS};)*|[,.\\]}}]"

#: Every terminal; ``match.lastindex`` names the one read.
_TOKEN = re.compile(
    f"(?:({_IRIREF})|({_LITERAL})|({_PNAME})|({_BLANK_LABEL})|({NUMBER})"
    f"|({_BOOLEAN})|({_A})|({_PUNCT})|({_KEYWORD})){_WS}"
)
(
    _IRI_TOKEN,
    _LITERAL_TOKEN,
    _PNAME_TOKEN,
    _BLANK_TOKEN,
    _NUMBER_TOKEN,
    _BOOLEAN_TOKEN,
    _A_TOKEN,
    _PUNCT_TOKEN,
    _KEYWORD_TOKEN,
) = range(1, 10)
_OBJECT_TOKENS = frozenset(range(_IRI_TOKEN, _A_TOKEN))

#: The fast path's units, each through the terminator after a simple
#: object: a statement's first triple, a verb and object after ``;``, and
#: an object after ``,``.
_STATEMENT = re.compile(
    f"({_IRIREF}|{_PNAME}|{_BLANK_LABEL}){_WS}"
    f"({_VERB_TERM}){_WS}({_OBJECT}){_WS}({_END}){_WS}"
)
_PREDICATE_OBJECT = re.compile(f"({_VERB_TERM}){_WS}({_OBJECT}){_WS}({_END}){_WS}")
_NEXT_OBJECT = re.compile(f"({_OBJECT}){_WS}({_END}){_WS}")

#: A directive after its keyword: prefix name (empty for a base), IRI,
#: and the "." that ends the "@" forms, if one follows.
_PREFIX_REST = re.compile(f"{_WS}({_PN_PREFIX}):{_WS}({_IRIREF}){_WS}(?:(\\.){_WS})?")
_BASE_REST = re.compile(f"{_WS}()({_IRIREF}){_WS}(?:(\\.){_WS})?")
_PREFIX_NAME = re.compile(f"{_WS}{_PN_PREFIX}:{_WS}")
_SKIP = re.compile(_WS)
# Opening directives whose text alone decides what they set up (_OPENINGS).
_ABSOLUTE_IRIREF = r'<[A-Za-z][A-Za-z0-9+.-]*:[^<>"{}|^`\\\x00-\x20]*>'
_OPENING = re.compile(
    f"@base{_WS}{_ABSOLUTE_IRIREF}{_WS}\\.{_WS}"
    f"(?:@(?:prefix{_WS}{_PN_PREFIX}:|base){_WS}{_ABSOLUTE_IRIREF}{_WS}\\.{_WS})*"
)
#: Letters, digits, "_", "-" and ".": the run a name-like term spans.
_NAME_RUN = re.compile(r"(?:[\w.-]|[^\x00-\xbf])*")
# Where a single-quoted literal's closing quote is: its suffix may hold a
# "'" (an IRI can), and a greedy body before an anchored suffix skips it.
_SINGLE_QUOTED = re.compile(
    r"('''|')(.*)\1(?:@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\^\^.+)?\Z", re.S
)
_LOCAL_ESCAPE = re.compile(r"\\(.)")

# Grammar states: what the loop reads next.
_VERB = 0  # a verb (after a subject)
_VERB_OR_END = 1  # a verb, or the end of a predicate-object list
_OBJECT_STATE = 2  # an object
_AFTER_OBJECT = 3  # ',', ';', or the end of a predicate-object list
_ITEM = 4  # a collection member, or ')'
_SUBJECT = 5  # a directive or a statement's subject

# What encloses the loop's position.
_IN_STATEMENT = 0
_IN_BRACKETS = 1
_IN_COLLECTION = 2

_EXPECTED = {
    _VERB: "expected verb",
    _VERB_OR_END: "expected verb",
    _OBJECT_STATE: "expected object",
    _AFTER_OBJECT: "expected ',', ';' or end of statement",
    _ITEM: "expected collection member or ')'",
    _SUBJECT: "expected subject or directive",
}


class TurtleParseError(ValueError):
    """Raised on malformed Turtle input, with 1-based line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TurtleParser:
    """Single-document Turtle parser producing :class:`Triple` instances.

    Blank node labels are scoped to the parser instance; distinct documents
    parsed with distinct parsers never share blank nodes, matching RDF
    document semantics.  When ``base_iri`` is set, relative IRIs are resolved
    against it (and against subsequent ``@base`` directives).
    """

    #: Whether ``{ ... }`` graph blocks and ``GRAPH`` are read (TriG).
    _graph_blocks = False

    def __init__(self, text: str, base_iri: str = "", bnode_prefix: str = "b") -> None:
        self._text = text
        self._base = base_iri
        self._prefixes: dict[str, str] = {}
        self._bnode_prefix = bnode_prefix
        self._bnode_counter = 0
        self._triples: list[Triple] = []
        # Token text -> term for the base and prefixes in force: the same
        # IRIs and names recur on nearly every line (see _OPENINGS).
        self._terms: dict[str, object] = {}
        # (index of the first triple, graph) at each graph-block boundary.
        self._graph_starts: list[tuple[int, Optional[object]]] = []
        # The opening directives, while the loop reads them (see _OPENINGS).
        self._opening: Optional[re.Match] = None

    # -- public API --------------------------------------------------------

    def parse(self) -> list[Triple]:
        """Parse the whole document and return its triples in order."""
        self._parse()
        return self._triples

    @property
    def prefixes(self) -> dict[str, str]:
        """Prefix map collected from the document's directives."""
        return dict(self._prefixes)

    # -- the grammar loop ----------------------------------------------------

    def _parse(self) -> None:
        """Read the whole text into ``self._triples``: a state machine over
        terminals, with ``stack`` holding what encloses each open ``[`` or
        ``(``."""
        text = self._text
        length = len(text)
        pos = self._opening_directives(_SKIP.match(text).end())
        terms = self._terms
        term = self._term
        triples = self._triples
        append = triples.append
        statement = _STATEMENT.match
        predicate_object = _PREDICATE_OBJECT.match
        next_object = _NEXT_OBJECT.match
        # One entry per open "[" or "(": the enclosing (frame, subject,
        # predicate, items) and whether the node it makes is a subject.
        stack: list[tuple] = []
        frame = _IN_STATEMENT
        subject = predicate = None
        items: list = []
        in_block = False
        state = _SUBJECT
        while True:
            # The fast path: one match reads through a triple's terminator.
            if state == _SUBJECT:
                if pos == length:
                    if in_block:
                        self._fail("unexpected end of input", pos)
                    return
                match = statement(text, pos)
                if match is not None:
                    found, verb, obj, end = match.group(1, 2, 3, 4)
                    subject = terms.get(found) or term(found, pos)
                    predicate = terms.get(verb) or term(verb, match.start(2))
            elif state <= _VERB_OR_END:
                match = predicate_object(text, pos)
                if match is not None:
                    verb, obj, end = match.group(1, 2, 3)
                    predicate = terms.get(verb) or term(verb, pos)
            elif state == _OBJECT_STATE:
                match = next_object(text, pos)
                if match is not None:
                    obj, end = match.group(1, 2)
            else:
                match = None
            if match is not None:
                node = terms.get(obj) or term(obj, match.start(match.lastindex - 1))
                append(Triple(subject, predicate, node))
                pos = match.end()
                punct = end[0]
                if punct == ";":
                    state = _VERB_OR_END
                    continue
                if punct == ",":
                    state = _OBJECT_STATE
                    continue
                if punct == "." and frame == _IN_STATEMENT:
                    state = _SUBJECT
                    continue
                state = _AFTER_OBJECT
                start = match.start(match.lastindex)
            else:
                # One terminal.
                match = _TOKEN.match(text, pos)
                if match is None:
                    self._unexpected(state, pos)
                kind = match.lastindex
                start = pos
                pos = match.end()
                found = match.group(kind)
                if kind == _PUNCT_TOKEN:
                    punct = found[0]
                elif state == _SUBJECT:
                    if kind == _KEYWORD_TOKEN:
                        if found.lower() == "graph":
                            if not self._graph_blocks or in_block:
                                self._fail("expected subject", start)
                            pos = self._graph_label(pos)
                            in_block = True
                        else:
                            pos = self._directive(start)
                            terms = self._terms
                        continue
                    if kind != _IRI_TOKEN and kind != _PNAME_TOKEN and kind != _BLANK_TOKEN:
                        self._unexpected(state, start)
                    subject = terms.get(found) or term(found, start)
                    state = _VERB
                    if (
                        self._graph_blocks
                        and not in_block
                        and kind != _BLANK_TOKEN
                        and text.startswith("{", pos)
                    ):  # a graph label, not a subject
                        self._graph_starts.append((len(triples), subject))
                        in_block = True
                        pos = _SKIP.match(text, pos + 1).end()
                        state = _SUBJECT
                    continue
                elif state <= _VERB_OR_END:
                    if kind != _IRI_TOKEN and kind != _PNAME_TOKEN and kind != _A_TOKEN:
                        self._unexpected(state, start)
                    predicate = terms.get(found) or term(found, start)
                    state = _OBJECT_STATE
                    continue
                elif state == _AFTER_OBJECT or kind not in _OBJECT_TOKENS:
                    self._unexpected(state, start)
                else:
                    obj = terms.get(found) or term(found, start)
                    if state == _ITEM:
                        items.append(obj)
                    else:
                        append(Triple(subject, predicate, obj))
                        state = _AFTER_OBJECT
                    continue
            # -- punctuation ------------------------------------------------
            if punct == "," or punct == ";":
                if state != _AFTER_OBJECT:
                    self._unexpected(state, start)
                state = _OBJECT_STATE if punct == "," else _VERB_OR_END
                continue
            closes_list = state == _AFTER_OBJECT or state == _VERB_OR_END
            if punct == "[" or punct == "(":
                if state == _SUBJECT:
                    as_subject = True
                elif state == _OBJECT_STATE or state == _ITEM:
                    as_subject = False
                else:
                    self._unexpected(state, start)
                stack.append((frame, subject, predicate, items, as_subject))
                if punct == "[":
                    frame = _IN_BRACKETS
                    subject = self._fresh_bnode()
                    state = _VERB_OR_END
                else:
                    frame = _IN_COLLECTION
                    items = []
                    state = _ITEM
                continue
            if punct == ".":
                if not closes_list or frame != _IN_STATEMENT:
                    if not closes_list:
                        self._unexpected(state, start)
                    self._fail("expected ']'", start)
                state = _SUBJECT
                continue
            if punct == "]" or punct == ")":
                if punct == "]":
                    if not closes_list or frame != _IN_BRACKETS:
                        if not closes_list:
                            self._unexpected(state, start)
                        self._fail("expected '.'", start)
                    node = subject
                else:
                    if state != _ITEM:
                        self._unexpected(state, start)
                    node = self._collection(items)
                frame, subject, predicate, items, as_subject = stack.pop()
                if as_subject:
                    subject = node
                    state = _VERB_OR_END if punct == "]" else _VERB
                elif frame == _IN_COLLECTION:
                    items.append(node)
                    state = _ITEM
                else:
                    append(Triple(subject, predicate, node))
                    state = _AFTER_OBJECT
                continue
            # "{" or "}": graph blocks, TriG only.
            if not self._graph_blocks:
                self._unexpected(state, start)
            if punct == "{" and state == _SUBJECT and not in_block:
                self._graph_starts.append((len(triples), None))
                in_block = True
            elif punct == "}" and in_block and not stack and (closes_list or state == _SUBJECT):
                self._graph_starts.append((len(triples), None))
                in_block = False
                state = _SUBJECT
            else:
                self._unexpected(state, start)

    def _opening_directives(self, pos: int) -> int:
        """Where reading starts: past the directives that open the text when
        the same lines opened a document before.  Otherwise the loop reads
        them, and :meth:`_directive` remembers what they set up."""
        match = _OPENING.match(self._text, pos)
        if match is None:
            return pos
        known = _OPENINGS.get(match.group())
        if known is None:
            self._opening = match
            return pos
        self._base, prefixes, self._terms = known
        self._prefixes = dict(prefixes)
        return match.end()

    def _graph_label(self, pos: int) -> int:
        """Read the label and ``{`` after ``GRAPH``; the position after them."""
        text = self._text
        match = _TOKEN.match(text, pos)
        if match is None or match.lastindex not in (_IRI_TOKEN, _PNAME_TOKEN):
            self._fail("expected graph label", pos)
        label = match.group(match.lastindex)
        graph = self._terms.get(label) or self._term(label, pos)
        pos = match.end()
        if not text.startswith("{", pos):
            self._fail("expected '{'", pos)
        self._graph_starts.append((len(self._triples), graph))
        return _SKIP.match(text, pos + 1).end()

    def _directive(self, pos: int) -> int:
        """Read the prefix or base directive at ``pos``; the position after it."""
        text = self._text
        at_form = text[pos] == "@"
        is_prefix = text[pos + at_form] in "pP"
        pos += at_form + (6 if is_prefix else 4)
        match = (_PREFIX_REST if is_prefix else _BASE_REST).match(text, pos)
        if match is None:
            if is_prefix:
                name = _PREFIX_NAME.match(text, pos)
                if name is None:
                    pos = _SKIP.match(text, pos).end()
                    self._fail("expected prefix name", _NAME_RUN.match(text, pos).end())
                pos = name.end()
            self._fail("expected IRI reference", _SKIP.match(text, pos).end())
        name, iri, dot = match.group(1, 2, 3)
        if not at_form:
            pos = match.end() if dot is None else match.start(3)
        elif dot is None:
            pos = match.end()
            self._fail("expected '.'" if pos < len(text) else "unexpected end of input", pos)
        else:
            pos = match.end()
        iri = self._iri(iri[1:-1])
        if is_prefix:
            self._prefixes[name] = iri
        else:
            self._base = iri
        self._terms = {}
        opening = self._opening
        if opening is not None and opening.end() == pos:  # the last opening directive
            if len(_OPENINGS) >= _OPENING_LIMIT:
                _OPENINGS.clear()
            _OPENINGS[opening.group()] = (self._base, dict(self._prefixes), self._terms)
        return pos

    # -- terms ----------------------------------------------------------------

    def _term(self, text: str, start: int):
        """The term a scanned terminal denotes, memoised for the base and
        prefixes in force (literals and blank nodes are not).  ``start`` is
        where it begins in the input, for errors."""
        first = text[0]
        if first == '"' or first == "'":
            return self._literal(text, start)  # nearly all distinct
        if first == "<":
            term = NamedNode(self._iri(text[1:-1]))
        elif first in "0123456789+-.":
            if "e" in text or "E" in text:
                term = Literal(text, datatype=XSD_DOUBLE)
            elif "." in text:
                term = Literal(text, datatype=XSD_DECIMAL)
            else:
                term = Literal(text, datatype=XSD_INTEGER)
        elif first == "_":
            # Keyed by the document's own label, not the allocation
            # counter: re-parsing the same document yields the same term
            # for ``_:x`` regardless of statement order, so live re-diffs
            # of an edited document stay minimal.  Only anonymous ``[]``
            # nodes draw from the counter.
            return BlankNode(self._bnode_prefix + text[2:])
        elif text == "a":
            term = _RDF_TYPE
        elif text == "true" or text == "false":
            term = Literal(text, datatype=XSD_BOOLEAN)
        else:
            prefix, _, local = text.partition(":")
            namespace = self._prefixes.get(prefix)
            if namespace is None:
                self._fail(f"undefined prefix {prefix!r}", start + len(prefix) + 1)
            if "\\" in local:
                local = _LOCAL_ESCAPE.sub(r"\1", local)
            term = NamedNode(namespace + local)
        terms = self._terms
        if len(terms) < _TERMS_LIMIT:
            terms[text] = term
        return term

    def _iri(self, raw: str) -> str:
        if "\\" in raw:
            raw = unescape_string_literal(raw)
        if self._base and not _is_absolute_iri(raw):
            return _resolve_relative(self._base, raw)
        return raw

    def _literal(self, text: str, start: int) -> Literal:
        if text[0] == '"':
            # Nothing after a double-quoted string can hold a '"'.
            close = text.rfind('"')
            value = text[3:close - 2] if text.startswith('"""') else text[1:close]
        else:
            parts = _SINGLE_QUOTED.match(text)
            close = parts.end(2) + len(parts.group(1)) - 1
            value = text[3:close - 2] if text.startswith("'''") else text[1:close]
        if "\\" in value:
            try:
                value = unescape_string_literal(value)
            except ValueError as error:
                self._fail(str(error), start)
        suffix = text[close + 1:]
        if not suffix:
            return Literal(value)
        if suffix[0] == "@":
            return Literal(value, suffix[1:])
        datatype = suffix[2:]
        node = self._terms.get(datatype) or self._term(datatype, start + close + 3)
        return Literal(value, "", node.value)

    def _fresh_bnode(self) -> BlankNode:
        self._bnode_counter += 1
        return BlankNode(f"{self._bnode_prefix}{self._bnode_counter}")

    def _collection(self, items: list[ObjectTerm]) -> SubjectTerm:
        if not items:
            return _RDF_NIL
        append = self._triples.append
        head = node = self._fresh_bnode()
        last = len(items) - 1
        for index, item in enumerate(items):
            append(Triple(node, _RDF_FIRST, item))
            if index < last:
                following = self._fresh_bnode()
                append(Triple(node, _RDF_REST, following))
                node = following
            else:
                append(Triple(node, _RDF_REST, _RDF_NIL))
        return head

    def _unexpected(self, state: int, pos: int) -> None:
        """Fail on what stands at ``pos`` where ``state`` wanted something
        else.  A term that cannot be read is reported where a prefixed name
        would need its ':' — at the end of the name-like run it starts with."""
        text = self._text
        char = text[pos:pos + 1]
        if not char:
            message = "unexpected end of input"
        elif char == '"' or char == "'":
            message = "unterminated string literal"
        elif char == "<":
            message = "malformed IRI reference"
        elif text.startswith("^^", pos):
            message, pos = "malformed datatype", pos + 2
        elif char == "_" and state in (_SUBJECT, _OBJECT_STATE, _ITEM):
            message = "malformed blank node label"
        else:
            message = _EXPECTED[state]
            if state != _AFTER_OBJECT:
                pos = _NAME_RUN.match(text, pos).end()
        self._fail(message, pos)

    def _fail(self, message: str, pos: int) -> None:
        consumed = self._text[:pos]
        line = consumed.count("\n") + 1
        column = pos - (consumed.rfind("\n") + 1) + 1
        raise TurtleParseError(message, line, column)


#: What the directives that open a document set up — base, prefix map and
#: terms table — by their text, for openings that text alone decides: an
#: absolute ``@base`` first and only absolute IRIs after it.  A pod's
#: documents open with the same lines, so they read them once and share one
#: table of names and IRIs.  Bounded: past the limit it starts over, and a
#: table stops growing at its own limit.
_OPENINGS: dict[str, tuple[str, dict[str, str], dict[str, object]]] = {}
_OPENING_LIMIT = 1 << 8
_TERMS_LIMIT = 1 << 10


#: Bounded memo for relative-IRI resolution.  Documents resolve the same
#: handful of (base, reference) pairs over and over; ``urljoin`` re-parses
#: both strings every call, so a dict hit is ~20x cheaper.
_RESOLVE_CACHE: dict[tuple[str, str], str] = {}
_RESOLVE_CACHE_LIMIT = 1 << 16


def _resolve_relative(base: str, reference: str) -> str:
    key = (base, reference)
    resolved = _RESOLVE_CACHE.get(key)
    if resolved is None:
        resolved = urljoin(base, reference)
        if len(_RESOLVE_CACHE) < _RESOLVE_CACHE_LIMIT:
            _RESOLVE_CACHE[key] = resolved
    return resolved


#: Whether an IRI is absolute: a scheme of letters, digits, "+", "-" or
#: "." before its first ":".
_is_absolute_iri = re.compile(r"(?:[^\W_]|[+.-])+:").match


def parse_turtle(text: str, base_iri: str = "", bnode_prefix: str = "b") -> list[Triple]:
    """Parse a Turtle document into a list of triples."""
    return TurtleParser(text, base_iri=base_iri, bnode_prefix=bnode_prefix).parse()
