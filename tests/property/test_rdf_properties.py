"""Property-based tests for the RDF layer (hypothesis)."""

import string
from urllib.parse import urljoin

from hypothesis import given, settings, strategies as st

from repro.rdf import (
    RDF,
    BlankNode,
    Graph,
    Literal,
    NamedNode,
    Quad,
    Triple,
    isomorphic,
    parse_ntriples,
    parse_trig,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)
from repro.rdf.terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    escape_string_literal,
    unescape_string_literal,
)

# -- strategies -------------------------------------------------------------

_iri_chars = st.text(
    alphabet=string.ascii_letters + string.digits + "-._~/",
    min_size=1,
    max_size=24,
)

iris = st.builds(lambda tail: NamedNode("http://example.org/" + tail), _iri_chars)

literal_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),  # no lone surrogates
        min_codepoint=0x09,
    ),
    max_size=48,
)

plain_literals = st.builds(Literal, literal_text)
lang_literals = st.builds(
    lambda value, lang: Literal(value, language=lang),
    literal_text,
    st.sampled_from(["en", "de", "nl-be", "fr"]),
)
typed_literals = st.builds(
    lambda n: Literal(str(n), datatype=XSD_INTEGER), st.integers(-10**9, 10**9)
) | st.builds(
    lambda b: Literal("true" if b else "false", datatype=XSD_BOOLEAN), st.booleans()
)
literals = plain_literals | lang_literals | typed_literals

triples = st.builds(Triple, iris, iris, iris | literals)
triple_lists = st.lists(triples, max_size=30)


class TestStringEscaping:
    @given(literal_text)
    def test_escape_roundtrip(self, text):
        assert unescape_string_literal(escape_string_literal(text)) == text

    @given(literal_text)
    def test_escaped_form_has_no_raw_quotes_or_newlines(self, text):
        escaped = escape_string_literal(text)
        assert "\n" not in escaped and '"' not in escaped.replace('\\"', "")


class TestSerializationRoundTrips:
    @given(triple_lists)
    @settings(max_examples=60)
    def test_ntriples_roundtrip(self, items):
        assert list(parse_ntriples(serialize_ntriples(items))) == items

    @given(triple_lists)
    @settings(max_examples=60)
    def test_turtle_roundtrip(self, items):
        text = serialize_turtle(items, prefixes={})
        assert set(parse_turtle(text)) == set(items)

    @given(triple_lists)
    @settings(max_examples=30)
    def test_turtle_roundtrip_with_prefixes(self, items):
        text = serialize_turtle(items, prefixes={"ex": "http://example.org/"})
        assert set(parse_turtle(text)) == set(items)


class TestGraphInvariants:
    @given(triple_lists)
    @settings(max_examples=60)
    def test_graph_is_a_set(self, items):
        graph = Graph(items)
        assert len(graph) == len(set(items))

    @given(triple_lists, triples)
    @settings(max_examples=60)
    def test_add_then_discard_restores(self, items, extra):
        graph = Graph(items)
        before = set(graph)
        was_new = graph.add(extra)
        if was_new:
            graph.discard(extra)
        assert set(graph) == before

    @given(triple_lists)
    @settings(max_examples=40)
    def test_every_index_agrees_with_full_scan(self, items):
        graph = Graph(items)
        for triple in list(graph)[:10]:
            assert triple in set(graph.match(triple.subject, None, None))
            assert triple in set(graph.match(None, triple.predicate, None))
            assert triple in set(graph.match(None, None, triple.object))
            assert triple in set(graph.match(triple.subject, triple.predicate, None))
            assert triple in set(graph.match(None, triple.predicate, triple.object))
            assert triple in set(graph.match(triple.subject, None, triple.object))

    @given(triple_lists)
    @settings(max_examples=40)
    def test_match_results_actually_match(self, items):
        graph = Graph(items)
        if not items:
            return
        probe = items[0]
        for triple in graph.match(None, probe.predicate, None):
            assert triple.predicate == probe.predicate


# -- Turtle text beyond what the writer produces ------------------------------

_EX = "http://example.org/"
_OTHER = "http://other.example/ns#"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_BASE = "http://base.example/dir/sub/"

#: Whitespace between terminals, comments included.
_gaps = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\n    ", " # a comment ; . ]\n", "#\n"])
_local_names = st.text(
    alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8
)
_relative_references = st.sampled_from(
    ["", "doc", "doc#frag", "#frag", "child/", "a/b/c", "../up", "./here", "?q=1", "x%20y"]
)
_statement_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=0x09),
    max_size=60,
)


def _short_string(value: str, quote: str) -> str:
    escaped = value.replace("\\", "\\\\").replace(quote, "\\" + quote)
    return quote + escaped.replace("\n", "\\n").replace("\r", "\\r") + quote


def _long_string(value: str, quote: str) -> str:
    # Raw newlines and lone quotes are fine; a quote is escaped only where
    # three in a row, or one at the very end, would close the string.
    body = value.replace("\\", "\\\\").replace(quote * 3, (quote * 2) + "\\" + quote)
    if body.endswith(quote):
        body = body[:-1] + "\\" + quote
    return quote * 3 + body + quote * 3


class _Statements:
    """What a generated document states, as it is written out."""

    def __init__(self, draw) -> None:
        self.draw = draw
        self.triples: list[Triple] = []
        self.base = _BASE
        self.fresh_count = 0

    def gap(self) -> str:
        return self.draw(_gaps)

    def fresh(self) -> BlankNode:
        self.fresh_count += 1
        return BlankNode(f"generated{self.fresh_count}")

    def iri(self) -> tuple[str, NamedNode]:
        draw = self.draw
        form = draw(
            st.sampled_from(
                ["absolute", "prefixed", "empty-prefix", "relative", "escaped", "local-escape"]
            )
        )
        local = draw(_local_names)
        if form == "absolute":
            return f"<{_EX}{local}>", NamedNode(_EX + local)
        if form == "prefixed":
            middle = draw(st.sampled_from(["", ".", ":", "..", "·"]))
            return f"ex:{local}{middle}{local}", NamedNode(f"{_EX}{local}{middle}{local}")
        if form == "empty-prefix":
            return f":{local}", NamedNode(_OTHER + local)
        if form == "relative":
            reference = draw(_relative_references)
            return f"<{reference}>", NamedNode(urljoin(self.base, reference))
        if form == "escaped":
            return f"<{_EX}\\u00e9{local}\\U0001F600>", NamedNode(f"{_EX}é{local}\U0001F600")
        escaped = draw(st.sampled_from(list("-.~!&'()*+,;=/?#@%_")))
        return f"ex:{local}\\{escaped}{local}", NamedNode(f"{_EX}{local}{escaped}{local}")

    def literal(self) -> tuple[str, Literal]:
        draw = self.draw
        form = draw(st.sampled_from(["string", "integer", "decimal", "double", "boolean"]))
        if form == "integer":
            sign, digits = draw(st.sampled_from(["", "+", "-"])), draw(st.integers(0, 10**12))
            return f"{sign}{digits}", Literal(f"{sign}{digits}", datatype=XSD_INTEGER)
        if form == "decimal":
            whole = draw(st.sampled_from(["", "0", "12"]))
            lexical = f"{draw(st.sampled_from(['', '-', '+']))}{whole}.{draw(st.integers(0, 999))}"
            return lexical, Literal(lexical, datatype=XSD_DECIMAL)
        if form == "double":
            mantissa = draw(st.sampled_from(["1", "1.", "1.5", ".5", "12.25"]))
            exponent = draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"]))
            lexical = f"{mantissa}{exponent}{draw(st.integers(0, 99))}"
            return lexical, Literal(lexical, datatype=XSD_DOUBLE)
        if form == "boolean":
            value = draw(st.sampled_from(["true", "false"]))
            return value, Literal(value, datatype=XSD_BOOLEAN)
        value = draw(_statement_values)
        quote = draw(st.sampled_from(['"', "'", '"""', "'''"]))
        text = _long_string(value, quote[0]) if len(quote) == 3 else _short_string(value, quote)
        suffix = draw(st.sampled_from(["", "lang", "iri-type", "prefixed-type"]))
        if suffix == "lang":
            language = draw(st.sampled_from(["en", "nl-BE", "de-1996"]))
            return f"{text}@{language}", Literal(value, language=language)
        if suffix == "iri-type":
            return f"{text}^^<{_XSD}token>", Literal(value, datatype=_XSD + "token")
        if suffix == "prefixed-type":
            return f"{text}^^xsd:token", Literal(value, datatype=_XSD + "token")
        return text, Literal(value)

    def label(self) -> tuple[str, BlankNode]:
        label = self.draw(st.sampled_from(["b0", "b1", "x.y", "node-2", "_u"]))
        return f"_:{label}", BlankNode("label-" + label)

    def obj(self, depth: int) -> tuple[str, object]:
        choices = ["iri", "literal", "literal", "label"]
        if depth:
            choices += ["brackets", "collection"]
        form = self.draw(st.sampled_from(choices))
        if form == "iri":
            return self.iri()
        if form == "literal":
            return self.literal()
        if form == "label":
            return self.label()
        if form == "brackets":
            node = self.fresh()
            if self.draw(st.booleans()):
                return "[" + self.gap() + "]", node
            inside = self.predicate_objects(node, depth - 1)
            return "[" + self.gap() + inside + self.gap() + "]", node
        return self.collection(depth - 1)

    def collection(self, depth: int) -> tuple[str, object]:
        members = [self.obj(depth) for _ in range(self.draw(st.integers(0, 3)))]
        if not members:
            return "(" + self.gap() + ")", RDF.nil
        head = node = self.fresh()
        for index, (_, member) in enumerate(members):
            self.triples.append(Triple(node, RDF.first, member))
            following = self.fresh() if index + 1 < len(members) else RDF.nil
            self.triples.append(Triple(node, RDF.rest, following))
            node = following
        inside = self.gap().join(text for text, _ in members)
        return "(" + self.gap() + inside + self.gap() + ")", head

    def predicate_objects(self, subject, depth: int) -> str:
        draw = self.draw
        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.integers(0, 4)) == 0:
                verb_text, verb = "a", RDF.type
            else:
                verb_text, verb = self.iri()
            objects = [self.obj(depth) for _ in range(draw(st.integers(1, 3)))]
            for _, node in objects:
                self.triples.append(Triple(subject, verb, node))
            listed = ("," + self.gap()).join(text for text, _ in objects)
            pieces.append(verb_text + self.gap() + listed)
        text = pieces[0]
        for piece in pieces[1:]:
            separator = draw(st.sampled_from([" ;", ";", " ; ;", ";;", " ;\n  ", "; # c\n;"]))
            text += separator + self.gap() + piece
        return text + draw(st.sampled_from(["", "", " ;", ";;"]))

    def statement(self, depth: int = 2) -> str:
        draw = self.draw
        form = draw(
            st.sampled_from(["iri", "iri", "label", "brackets", "brackets-alone", "collection"])
        )
        if form == "brackets" or form == "brackets-alone":
            node = self.fresh()
            text = "[" + self.gap() + self.predicate_objects(node, depth - 1) + self.gap() + "]"
            if form == "brackets-alone":
                return text + self.gap() + "."
        elif form == "collection":
            text, node = self.collection(depth - 1)
        elif form == "label":
            text, node = self.label()
        else:
            text, node = self.iri()
        return text + self.gap() + self.predicate_objects(node, depth) + self.gap() + "."


def _directives(draw, out: _Statements) -> str:
    """Prefixes and a base in the four directive forms (and lower case)."""
    lines = []
    base_form = draw(st.sampled_from(["@base", "BASE", "base"]))
    lines.append(f"@base <{_BASE}> ." if base_form == "@base" else f"{base_form} <{_BASE}>")
    for name, namespace in (("ex", _EX), ("", _OTHER), ("xsd", _XSD)):
        form = draw(st.sampled_from(["@prefix", "PREFIX", "prefix"]))
        gap = out.gap()
        if form == "@prefix":
            lines.append(f"@prefix{gap}{name}:{out.gap()}<{namespace}>{out.gap()}.")
        else:
            lines.append(f"{form}{gap}{name}:{out.gap()}<{namespace}>")
    return "\n".join(lines) + "\n"


@st.composite
def turtle_documents(draw):
    """A Turtle document and the triples it states."""
    out = _Statements(draw)
    text = _directives(draw, out)
    for _ in range(draw(st.integers(1, 4))):
        text += out.statement() + out.gap()
    if draw(st.booleans()):
        # A later relative base resolves against the one in force.
        out.base = urljoin(out.base, "../moved/")
        text += "@base <../moved/> .\n" + out.statement()
    return text, out.triples


@st.composite
def trig_documents(draw):
    """A TriG document and the quads it states."""
    out = _Statements(draw)
    text = _directives(draw, out)
    quads: list[Quad] = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(["plain", "default-block", "labelled", "GRAPH"]))
        graph = None
        if form == "plain":
            text += out.statement()
        else:
            if form == "labelled":
                label, graph = out.iri()
                text += label + out.gap()
            elif form == "GRAPH":
                label, graph = out.iri()
                text += "GRAPH " + label + out.gap()
            statements = [out.statement() for _ in range(draw(st.integers(0, 3)))]
            body = out.gap().join(statements)
            if statements and draw(st.booleans()):
                body = body[:-1]  # the last statement's "." is optional in a block
            text += "{" + out.gap() + body + out.gap() + "}"
        text += out.gap()
        quads.extend(Quad(t.subject, t.predicate, t.object, graph) for t in out.triples)
        out.triples = []
    return text, quads


class TestTurtleTextBeyondTheWriter:
    """Documents written the way people write Turtle — nested ``[ ]`` and
    ``( )``, ``,`` / ``;`` / ``;;``, every string form with escapes,
    numeric and boolean shorthands, comments, all directive forms and
    relative IRIs — parse to the triples they were generated from."""

    @given(turtle_documents())
    @settings(max_examples=150, deadline=None)
    def test_parses_to_what_it_states(self, document):
        text, expected = document
        parsed = parse_turtle(text, base_iri="http://ignored.example/")
        assert len(parsed) == len(expected), text
        assert isomorphic(parsed, expected), text

    @given(trig_documents())
    @settings(max_examples=100, deadline=None)
    def test_trig_blocks_parse_to_what_they_state(self, document):
        text, expected = document
        parsed = parse_trig(text)
        assert len(parsed) == len(expected), text
        graphs = {quad.graph for quad in expected} | {quad.graph for quad in parsed}
        for graph in graphs:
            assert isomorphic(
                [quad.triple for quad in parsed if quad.graph == graph],
                [quad.triple for quad in expected if quad.graph == graph],
            ), text
