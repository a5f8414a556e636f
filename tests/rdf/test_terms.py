"""Unit tests for the RDF term model."""

from datetime import date, datetime, timezone
from decimal import Decimal

import pytest

from repro.rdf.terms import (
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    NamedNode,
    Variable,
    escape_string_literal,
    literal_from_python,
    term_to_ntriples,
    unescape_string_literal,
)


class TestNamedNode:
    def test_equality_by_value(self):
        assert NamedNode("http://example.org/a") == NamedNode("http://example.org/a")
        assert NamedNode("http://example.org/a") != NamedNode("http://example.org/b")

    def test_hashable(self):
        nodes = {NamedNode("http://x/1"), NamedNode("http://x/1"), NamedNode("http://x/2")}
        assert len(nodes) == 2

    def test_str_is_ntriples(self):
        assert str(NamedNode("http://x/a")) == "<http://x/a>"

    def test_distinct_from_literal_with_same_value(self):
        assert NamedNode("abc") != Literal("abc")


class TestBlankNodeAndVariable:
    def test_blank_node_rendering(self):
        assert str(BlankNode("b1")) == "_:b1"

    def test_variable_rendering(self):
        assert str(Variable("name")) == "?name"

    def test_blank_node_not_equal_to_variable(self):
        assert BlankNode("x") != Variable("x")


class TestLiteral:
    def test_plain_literal_defaults_to_xsd_string(self):
        assert Literal("hello").datatype == XSD_STRING

    def test_language_tag_forces_langstring(self):
        lit = Literal("hallo", language="DE")
        assert lit.datatype == RDF_LANGSTRING
        assert lit.language == "de"  # normalized to lowercase

    def test_numeric_detection(self):
        assert Literal("4", datatype=XSD_INTEGER).is_numeric
        assert Literal("4.5", datatype=XSD_DECIMAL).is_numeric
        assert not Literal("4").is_numeric

    @pytest.mark.parametrize(
        "value,datatype,expected",
        [
            ("42", XSD_INTEGER, 42),
            ("-7", XSD_INTEGER, -7),
            ("2.5", XSD_DECIMAL, Decimal("2.5")),
            ("1.5e2", XSD_DOUBLE, 150.0),
            ("true", XSD_BOOLEAN, True),
            ("false", XSD_BOOLEAN, False),
            ("2010-10-12", XSD_DATE, date(2010, 10, 12)),
        ],
    )
    def test_to_python(self, value, datatype, expected):
        assert Literal(value, datatype=datatype).to_python() == expected

    def test_datetime_with_zulu_suffix(self):
        lit = Literal("2010-10-12T08:30:00Z", datatype=XSD_DATETIME)
        assert lit.to_python() == datetime(2010, 10, 12, 8, 30, tzinfo=timezone.utc)

    def test_ill_typed_boolean_raises(self):
        with pytest.raises(ValueError):
            Literal("maybe", datatype=XSD_BOOLEAN).to_python()

    def test_equality_is_lexical(self):
        # "1" and "01" are different literals even though numerically equal.
        assert Literal("1", datatype=XSD_INTEGER) != Literal("01", datatype=XSD_INTEGER)


class TestLiteralFromPython:
    @pytest.mark.parametrize(
        "value,datatype",
        [
            (True, XSD_BOOLEAN),
            (3, XSD_INTEGER),
            (2.5, XSD_DOUBLE),
            (Decimal("1.25"), XSD_DECIMAL),
            ("text", XSD_STRING),
            (date(2020, 1, 2), XSD_DATE),
        ],
    )
    def test_types(self, value, datatype):
        assert literal_from_python(value).datatype == datatype

    def test_bool_is_not_int(self):
        # bool is a subclass of int; must map to xsd:boolean, not integer.
        assert literal_from_python(True).value == "true"

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            literal_from_python(object())


class TestEscaping:
    def test_escape_roundtrip(self):
        original = 'line1\nline2\t"quoted"\\backslash'
        assert unescape_string_literal(escape_string_literal(original)) == original

    def test_unicode_escape(self):
        assert unescape_string_literal("\\u00e9") == "é"
        assert unescape_string_literal("\\U0001F600") == "😀"

    def test_invalid_escape_raises(self):
        with pytest.raises(ValueError):
            unescape_string_literal("\\q")

    def test_escape_free_text_is_returned_as_is(self):
        # The parser's common case: no backslash, no regex pass, no copy.
        text = "Ann's “quoted” café ☕"
        assert unescape_string_literal(text) is text

    def test_escapes_beside_plain_text(self):
        assert unescape_string_literal("a\\tb\\U0001F600c\\\\u0041") == "a\tb😀c\\u0041"
        with pytest.raises(ValueError):
            unescape_string_literal("fine so far \\x41")


class TestTermToNtriples:
    def test_typed_literal(self):
        rendered = term_to_ntriples(Literal("5", datatype=XSD_INTEGER))
        assert rendered == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_lang_literal(self):
        assert term_to_ntriples(Literal("hi", language="en")) == '"hi"@en'

    def test_plain_string_has_no_datatype_suffix(self):
        assert term_to_ntriples(Literal("hi")) == '"hi"'

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            term_to_ntriples("not a term")
