"""Contract tests for canonical terms: one live object per term value.

Every term constructor returns the one live object for its value, so two
terms are equal exactly when they are the same object — whichever way
each was built — and the term classes hash and compare by identity.
"""

import gc
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import Pipe

import pytest

from repro.ltqp.stats import TimedResult
from repro.rdf.document import ParsedDocument
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.terms import (
    BlankNode,
    Literal,
    NamedNode,
    Variable,
    intern,
    intern_iri,
    term_pool_sizes,
)
from repro.rdf.triples import Triple
from repro.rdf.turtle import parse_turtle
from repro.service.docstore import StoredDocument
from repro.service.wire import decode_results, document_from_wire, document_to_wire, encode_results
from repro.sparql.bindings import Binding

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
TERM_CLASSES = (NamedNode, BlankNode, Literal, Variable)


def values():
    """One sample of every kind of term, with near-misses of each other."""
    return [
        NamedNode("http://example.org/a"),
        NamedNode("http://example.org/b"),
        BlankNode("b0"),
        BlankNode("b1"),
        Literal("a"),
        Literal("a", language="en"),
        Literal("a", language="en-GB"),
        Literal("1", datatype=XSD_INTEGER),
        Literal("01", datatype=XSD_INTEGER),
        Literal("http://example.org/a"),
        Variable("a"),
        Variable("b0"),
    ]


def rebuilt(term):
    """The same value, built through the constructor again."""
    if isinstance(term, Literal):
        return Literal(term.value, term.language, term.datatype)
    return type(term)(term.value)


def assert_canonical(originals, others):
    """``a == b`` holds exactly when ``a is b``, pairwise over both lists."""
    for a in originals:
        for b in others:
            assert (a == b) is (a is b), (a, b)
            assert (a != b) is (a is not b), (a, b)
            if a is b:
                assert hash(a) == hash(b)


class TestInternIri:
    def test_returns_same_object_for_same_iri(self):
        a = intern_iri("http://example.org/a")
        b = intern_iri("http://example.org/a")
        assert a is b

    def test_interned_and_fresh_nodes_are_interchangeable(self):
        interned = intern_iri("http://example.org/a")
        fresh = NamedNode("http://example.org/a")
        assert interned is fresh
        assert {interned: 1}[fresh] == 1
        assert len({interned, fresh}) == 1

    def test_distinct_iris_stay_distinct(self):
        assert intern_iri("http://x/a") != intern_iri("http://x/b")


class TestInternGeneric:
    def test_named_node_goes_through_iri_pool(self):
        node = NamedNode("http://example.org/n")
        assert intern(node) is intern_iri("http://example.org/n")

    def test_literal_blank_variable_pool(self):
        for term in (Literal("hi", language="en"), BlankNode("b0"), Variable("v")):
            assert intern(term) is term
            assert rebuilt(term) is term

    def test_interning_preserves_literal_facets(self):
        lit = intern(Literal("42", datatype=XSD_INTEGER))
        assert lit.is_integer
        assert lit.to_python() == 42


class TestEqualityIsIdentity:
    def test_term_classes_define_no_hash_or_equality(self):
        for cls in TERM_CLASSES:
            assert cls.__hash__ is object.__hash__, cls
            assert cls.__eq__ is object.__eq__, cls

    def test_constructor(self):
        originals = values()
        assert_canonical(originals, [rebuilt(term) for term in originals])

    def test_language_tags_key_lowercased(self):
        assert Literal("a", language="EN-gb") is Literal("a", language="en-GB")
        # A language tag makes the datatype rdf:langString, whatever was passed.
        assert Literal("a", "en", XSD_INTEGER) is Literal("a", language="en")

    def test_turtle_and_ntriples_parse(self):
        turtle = """
            @prefix ex: <http://example.org/> .
            ex:a ex:b "a", "a"@EN, "1"^^<http://www.w3.org/2001/XMLSchema#integer>, 1 .
        """
        ntriples = (
            '<http://example.org/a> <http://example.org/b> "a" .\n'
            '<http://example.org/a> <http://example.org/b> "a"@en .\n'
            '<http://example.org/a> <http://example.org/b> '
            '"1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        parsed = [term for triple in parse_turtle(turtle) for term in triple]
        parsed += [term for triple in parse_ntriples(ntriples) for term in triple]
        assert_canonical(values(), parsed)
        assert parsed.count(NamedNode("http://example.org/a")) == 7

    def test_pickle_round_trip(self):
        originals = values()
        back = pickle.loads(pickle.dumps(originals))
        assert_canonical(originals, back)
        assert all(a is b for a, b in zip(originals, back))

    def test_wire_decode(self):
        originals = values()
        rows = [TimedResult(Binding({Variable("t"): term}), 0.0) for term in originals]
        block = encode_results(rows)
        decoded = [result.binding[Variable("t")] for result in decode_results(block)]
        assert all(a is b for a, b in zip(originals, decoded))
        triple = Triple(
            NamedNode("http://example.org/a"),
            NamedNode("http://example.org/b"),
            Literal("a", language="en"),
        )
        stored = StoredDocument("http://example.org/", '"v1"', ParsedDocument([triple]), 0.0)
        back = document_from_wire(document_to_wire(stored)).document
        assert_canonical(originals, list(back.triples[0]))

    def test_shard_pipe(self):
        """A shard's messages are unpickled, and their wire blocks decoded,
        in executor threads (one reader per worker pipe): the front end's
        own terms come out."""
        originals = values()
        rows = [TimedResult(Binding({Variable("t"): term}), 0.0) for term in originals]
        pipes = [Pipe(duplex=False) for _ in range(4)]
        try:
            for _, sender in pipes:
                sender.send(("rows", 1, encode_results(rows)))
                sender.send(("done", 1, {"terms": originals}))

            def read(receiver):
                _, _, block = receiver.recv()
                _, _, report = receiver.recv()
                decoded = [result.binding[Variable("t")] for result in decode_results(block)]
                return [decoded, report["terms"]]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = pool.map(read, [receiver for receiver, _ in pipes], timeout=60)
                received = [terms for both in results for terms in both]
        finally:
            for receiver, sender in pipes:
                receiver.close()
                sender.close()
        for terms in received:
            assert_canonical(originals, terms)
            assert all(a is b for a, b in zip(originals, terms))


class TestConcurrentConstruction:
    def test_threads_get_one_object_per_value(self):
        """More threads than cores mint the same fresh values at once, with
        a short switch interval so the miss path interleaves: every thread
        must come away with the same object for each value."""
        texts = [f"http://concurrent.example/{n}" for n in range(2000)]
        start = threading.Barrier(8, timeout=30)

        def build(kind):
            start.wait()
            order = texts if kind % 2 else texts[::-1]
            built = {text: (NamedNode(text), Literal(text), BlankNode(text)) for text in order}
            return [built[text] for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                built = list(pool.map(build, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        first = built[0]
        for other in built[1:]:
            assert all(a is b for mine, theirs in zip(first, other) for a, b in zip(mine, theirs))
        assert len({id(term) for terms in first for term in terms}) == 3 * len(texts)


class TestPoolBounds:
    def test_stats_track_pool_sizes(self):
        before = term_pool_sizes()
        kept = [NamedNode("http://sizes.example/a"), Literal("sizes"), BlankNode("sizes")]
        after = term_pool_sizes()
        assert after["iris"] == before["iris"] + 1
        assert after["literals"] == before["literals"] + 1
        assert after["blank_nodes"] == before["blank_nodes"] + 1
        del kept
        assert term_pool_sizes() == before

    def test_unique_iri_stream_leaves_only_live_terms(self):
        gc.collect()
        before = term_pool_sizes()["iris"]
        kept = []
        for n in range(20_000):
            node = NamedNode(f"http://stream.example/{n}")
            if n % 1000 == 0:
                kept.append(node)
        del node
        gc.collect()
        assert term_pool_sizes()["iris"] <= before + len(kept)
        # The survivors are still the canonical objects for their values.
        assert all(NamedNode(node.value) is node for node in kept)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: Literal(str(n), datatype=XSD_INTEGER),
            lambda n: Literal("x", datatype=f"http://datatypes.example/{n}"),
            lambda n: Literal("x", language=f"x-{n}"),
            lambda n: BlankNode(f"s{n}"),
        ],
    )
    def test_literals_and_blank_nodes_are_not_retained(self, make):
        gc.collect()
        before = term_pool_sizes()
        for n in range(5_000):
            make(n + 10_000_000)
        gc.collect()
        assert term_pool_sizes() == before
