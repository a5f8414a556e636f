"""SPARQL tokenizer.

Converts query text into a flat token stream consumed by the recursive
descent parser.  Token kinds:

==========  =====================================================
kind        examples
==========  =====================================================
IRIREF      ``<http://example.org/x>`` (value without brackets)
PNAME       ``foaf:name``, ``:x``, ``snvoc:`` (value as written)
VAR         ``?x`` / ``$x`` (value without sigil)
BLANK       ``_:b1`` (value without ``_:``)
STRING      quoted string (value unescaped); ``language``/``datatype``
            are attached by the parser from following tokens
NUMBER      integer/decimal/double (value as written)
LANGTAG     ``@en`` (value without ``@``)
KEYWORD     uppercased bare word: ``SELECT``, ``WHERE``, ``a`` → ``A``
PUNCT       one of the operator/punctuation lexemes
ANON        ``[]`` (anonymous blank node)
NIL         ``()`` (empty collection)
EOF         end of input
==========  =====================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..rdf.terms import unescape_string_literal
from ..rdf.turtle import NUMBER

__all__ = ["Token", "TokenizeError", "tokenize"]


class TokenizeError(ValueError):
    """Raised on unrecognized input, with position context."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


_IRIREF = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_VAR = re.compile(r"[?$]([A-Za-z0-9_À-￿]+)")
_BLANK = re.compile(r"_:([A-Za-z0-9_\-.À-￿]+)")
_PNAME = re.compile(r"([A-Za-z0-9_\-.À-￿]*):([A-Za-z0-9_\-.%À-￿]*)")
_NUMBER = re.compile(NUMBER)  # "1." is the integer 1 and a triple's dot
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LANGTAG = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")
_ANON = re.compile(r"\[\s*\]")
_NIL = re.compile(r"\(\s*\)")

# Multi-character punctuation first, then single characters.
_PUNCT = [
    "^^",
    "&&",
    "||",
    "!=",
    "<=",
    ">=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ".",
    ";",
    ",",
    "*",
    "/",
    "|",
    "^",
    "?",
    "+",
    "-",
    "=",
    "<",
    ">",
    "!",
]

#: Bare words that are SPARQL keywords (matched case-insensitively).
KEYWORDS = frozenset(
    {
        "SELECT", "ASK", "CONSTRUCT", "DESCRIBE", "WHERE", "PREFIX", "BASE",
        "DISTINCT", "REDUCED", "AS", "FROM", "NAMED", "ORDER", "BY", "ASC",
        "DESC", "LIMIT", "OFFSET", "GROUP", "HAVING", "OPTIONAL", "UNION",
        "MINUS", "GRAPH", "FILTER", "BIND", "VALUES", "UNDEF", "EXISTS",
        "NOT", "IN", "SERVICE", "SILENT", "TRUE", "FALSE", "A",
        # built-in call keywords (parsed as function names)
        "STR", "LANG", "LANGMATCHES", "DATATYPE", "BOUND", "IRI", "URI",
        "BNODE", "RAND", "ABS", "CEIL", "FLOOR", "ROUND", "CONCAT", "STRLEN",
        "UCASE", "LCASE", "ENCODE_FOR_URI", "CONTAINS", "STRSTARTS",
        "STRENDS", "STRBEFORE", "STRAFTER", "YEAR", "MONTH", "DAY", "HOURS",
        "MINUTES", "SECONDS", "TIMEZONE", "TZ", "NOW", "UUID", "STRUUID",
        "MD5", "SHA1", "SHA256", "SHA384", "SHA512", "COALESCE", "IF",
        "STRLANG", "STRDT", "SAMETERM", "ISIRI", "ISURI", "ISBLANK",
        "ISLITERAL", "ISNUMERIC", "REGEX", "SUBSTR", "REPLACE",
        "COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT",
        "SEPARATOR",
    }
)


def tokenize(text: str) -> list[Token]:
    """Tokenize a SPARQL query; the result always ends with an EOF token."""
    tokens: list[Token] = []
    pos = 0
    length = len(text)
    line = 1
    line_start = 0

    def location() -> tuple[int, int]:
        return line, pos - line_start + 1

    while pos < length:
        char = text[pos]
        if char == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if char in " \t\r":
            pos += 1
            continue
        if char == "#":
            newline = text.find("\n", pos)
            pos = length if newline < 0 else newline
            continue

        lin, col = location()

        if char == "<":
            match = _IRIREF.match(text, pos)
            if match:
                value = match.group(1)
                if "\\" in value:
                    value = unescape_string_literal(value)
                tokens.append(Token("IRIREF", value, lin, col))
                pos = match.end()
                continue
            # fall through to punctuation "<", "<="

        if char in "?$":
            match = _VAR.match(text, pos)
            if match:
                tokens.append(Token("VAR", match.group(1), lin, col))
                pos = match.end()
                continue
            # bare "?" is the zero-or-one path modifier

        if char == "_" and text.startswith("_:", pos):
            match = _BLANK.match(text, pos)
            if not match:
                raise TokenizeError("malformed blank node label", lin, col)
            label = match.group(1)
            end = match.end()
            while label.endswith("."):
                label = label[:-1]
                end -= 1
            tokens.append(Token("BLANK", label, lin, col))
            pos = end
            continue

        if char in "\"'":
            value, pos = _read_string(text, pos, lin, col)
            tokens.append(Token("STRING", value, lin, col))
            continue

        if char == "@":
            match = _LANGTAG.match(text, pos)
            if not match:
                raise TokenizeError("malformed language tag", lin, col)
            tokens.append(Token("LANGTAG", match.group(1), lin, col))
            pos = match.end()
            continue

        if char.isdigit() or (char in "+-." and _NUMBER.match(text, pos) and _NUMBER.match(text, pos).end() > pos + (1 if char in "+-" else 0)):
            # Disambiguate "." as punctuation from ".5" as a number, and
            # "+"/"-" signs from arithmetic operators: a sign is part of the
            # number only when directly followed by a digit or dot-digit.
            match = _NUMBER.match(text, pos)
            if match and match.group(0) not in ("+", "-", "."):
                tokens.append(Token("NUMBER", match.group(0), lin, col))
                pos = match.end()
                continue

        if char == "[":
            match = _ANON.match(text, pos)
            if match:
                tokens.append(Token("ANON", "[]", lin, col))
                pos = match.end()
                continue

        if char == "(":
            match = _NIL.match(text, pos)
            if match:
                tokens.append(Token("NIL", "()", lin, col))
                pos = match.end()
                continue

        # Prefixed names before bare words: "foaf:name" must not split.
        pname = _PNAME.match(text, pos)
        if pname and (char.isalnum() or char == "_" or char == ":" or ord(char) >= 0xC0):
            value = pname.group(0)
            end = pname.end()
            while value.endswith("."):
                value = value[:-1]
                end -= 1
            tokens.append(Token("PNAME", value, lin, col))
            pos = end
            continue

        word = _WORD.match(text, pos)
        if word:
            upper = word.group(0).upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, lin, col))
            else:
                # Unknown bare word: treat as keyword-like so the parser can
                # produce a targeted error message.
                tokens.append(Token("KEYWORD", upper, lin, col))
            pos = word.end()
            continue

        for punct in _PUNCT:
            if text.startswith(punct, pos):
                tokens.append(Token("PUNCT", punct, lin, col))
                pos += len(punct)
                break
        else:
            raise TokenizeError(f"unexpected character {char!r}", lin, col)

    tokens.append(Token("EOF", "", line, 1))
    return tokens


def _read_string(text: str, pos: int, line: int, column: int) -> tuple[str, int]:
    quote = text[pos]
    long_quote = quote * 3
    if text.startswith(long_quote, pos):
        end = text.find(long_quote, pos + 3)
        while end > 0 and _escaped_at(text, end):
            end = text.find(long_quote, end + 1)
        if end < 0:
            raise TokenizeError("unterminated long string", line, column)
        return unescape_string_literal(text[pos + 3:end]), end + 3
    index = pos + 1
    while index < len(text):
        char = text[index]
        if char == "\\":
            index += 2
            continue
        if char == quote:
            return unescape_string_literal(text[pos + 1:index]), index + 1
        if char == "\n":
            break
        index += 1
    raise TokenizeError("unterminated string", line, column)


def _escaped_at(text: str, index: int) -> bool:
    backslashes = 0
    index -= 1
    while index >= 0 and text[index] == "\\":
        backslashes += 1
        index -= 1
    return backslashes % 2 == 1
