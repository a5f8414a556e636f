"""Unit tests for the SPARQL tokenizer."""

import pytest

from repro.sparql.tokens import Token, TokenizeError, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_iriref(self):
        assert kinds("<http://x/a>") == [("IRIREF", "http://x/a")]

    def test_variables_both_sigils(self):
        assert kinds("?x $y") == [("VAR", "x"), ("VAR", "y")]

    def test_pname(self):
        assert kinds("foaf:name") == [("PNAME", "foaf:name")]

    def test_pname_with_empty_prefix(self):
        assert kinds(":local") == [("PNAME", ":local")]

    def test_keywords_case_insensitive(self):
        assert kinds("select WHERE Filter") == [
            ("KEYWORD", "SELECT"),
            ("KEYWORD", "WHERE"),
            ("KEYWORD", "FILTER"),
        ]

    def test_blank_node(self):
        assert kinds("_:b1") == [("BLANK", "b1")]

    def test_anon_and_nil(self):
        assert kinds("[] ( )") == [("ANON", "[]"), ("NIL", "()")]

    def test_comment_skipped(self):
        assert kinds("?x # comment here\n?y") == [("VAR", "x"), ("VAR", "y")]


class TestStringsAndNumbers:
    def test_string_with_escape(self):
        tokens = tokenize('"a\\nb"')
        assert tokens[0] == Token("STRING", "a\nb", 1, 1)

    def test_single_quoted(self):
        assert kinds("'hi'") == [("STRING", "hi")]

    def test_long_string(self):
        assert kinds('"""multi\nline"""')[0] == ("STRING", "multi\nline")

    def test_langtag(self):
        assert kinds('"x"@en-GB') == [("STRING", "x"), ("LANGTAG", "en-GB")]

    def test_datatype_markers(self):
        result = kinds('"5"^^<http://x/dt>')
        assert result == [("STRING", "5"), ("PUNCT", "^^"), ("IRIREF", "http://x/dt")]

    @pytest.mark.parametrize("number", ["42", "-3", "+7", "4.5", ".5", "1e3", "2.5E-2"])
    def test_numbers(self, number):
        assert kinds(number) == [("NUMBER", number)]

    def test_dot_is_punct_not_number(self):
        assert kinds(".")[0] == ("PUNCT", ".")

    @pytest.mark.parametrize("text, number", [("1.", "1"), ("1. ", "1"), ("1.}", "1"), ("-2.\n", "-2")])
    def test_a_trailing_dot_ends_the_triple_not_the_integer(self, text, number):
        # DECIMAL needs a digit after its "." (the Turtle terminal, shared).
        assert kinds(text)[:2] == [("NUMBER", number), ("PUNCT", ".")]

    @pytest.mark.parametrize("number", ["1.e3", "1.5.", "12"])
    def test_the_longest_numeral_wins(self, number):
        assert kinds(number)[0] == ("NUMBER", number.rstrip("."))

    def test_minus_between_vars_is_operator(self):
        assert kinds("?a - ?b") == [("VAR", "a"), ("PUNCT", "-"), ("VAR", "b")]

    def test_unterminated_string_raises(self):
        with pytest.raises(TokenizeError):
            tokenize('"never closed')


class TestOperators:
    def test_multichar_operators(self):
        assert kinds("&& || != <= >= ^^") == [
            ("PUNCT", "&&"),
            ("PUNCT", "||"),
            ("PUNCT", "!="),
            ("PUNCT", "<="),
            ("PUNCT", ">="),
            ("PUNCT", "^^"),
        ]

    def test_path_operators(self):
        assert kinds("a|b/c") == [
            ("KEYWORD", "A"),
            ("PUNCT", "|"),
            ("KEYWORD", "B"),
            ("PUNCT", "/"),
            ("KEYWORD", "C"),
        ]

    def test_comparison_lt_vs_iri(self):
        # "<" followed by a space is an operator, not an IRI opener.
        assert kinds("?a < 5") == [("VAR", "a"), ("PUNCT", "<"), ("NUMBER", "5")]


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("?a\n  ?b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_token_terminates(self):
        assert tokenize("")[-1].kind == "EOF"
        assert tokenize("?x")[-1].kind == "EOF"
