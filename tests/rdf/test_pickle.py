"""Pickle round-trips for terms and statements (the sharded service's data plane).

Terms hash by identity and statements are tuples of terms, so a hash is
only meaningful inside one process.  Shipping a term or a statement to
another process (shard workers do this for every result row that bypasses
the wire codec, and for ShardSpec contents) must therefore rebuild each
term through its constructor: the receiver gets its own canonical terms,
and every dict and set there finds them.
"""

import os
import pickle
import subprocess
import sys
import textwrap

from hypothesis import given, strategies as st

from repro.rdf.terms import (
    BlankNode,
    Literal,
    NamedNode,
    Variable,
    intern_iri,
)
from repro.rdf.triples import Quad, Triple, TriplePattern
from repro.sparql.bindings import Binding

_values = st.text(min_size=1, max_size=30)
_iris = st.from_regex(r"https?://[a-z]{1,10}\.example/[a-zA-Z0-9/_-]{0,20}", fullmatch=True)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestTermRoundtrip:
    @given(_iris)
    def test_named_node(self, iri):
        node = NamedNode(iri)
        back = roundtrip(node)
        assert back == node
        assert hash(back) == hash(node)

    @given(_iris)
    def test_named_node_reinterns(self, iri):
        # Unpickling funnels through intern_iri: within one process the
        # unpickled node IS the pooled object.
        pooled = intern_iri(iri)
        assert roundtrip(pooled) is intern_iri(iri)

    @given(_values)
    def test_blank_node(self, value):
        node = BlankNode(value)
        back = roundtrip(node)
        assert back == node and hash(back) == hash(node)

    @given(_values)
    def test_variable(self, value):
        var = Variable(value)
        back = roundtrip(var)
        assert back == var and hash(back) == hash(var)

    @given(_values, st.one_of(st.none(), st.just("en"), st.just("nl")))
    def test_literal(self, value, language):
        literal = Literal(value, language=language)
        back = roundtrip(literal)
        assert back == literal
        assert hash(back) == hash(literal)
        assert back.language == literal.language
        assert back.datatype == literal.datatype

    def test_typed_literal(self):
        literal = Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer")
        back = roundtrip(literal)
        assert back == literal and back.datatype == literal.datatype

    @given(_iris, _iris, _values)
    def test_triple_and_quad(self, s, p, o):
        triple = Triple(NamedNode(s), NamedNode(p), Literal(o))
        back = roundtrip(triple)
        assert back == triple and hash(back) == hash(triple)
        quad = Quad(NamedNode(s), NamedNode(p), Literal(o), NamedNode(s))
        back_quad = roundtrip(quad)
        assert back_quad == quad and hash(back_quad) == hash(quad)

    @given(_iris, _values)
    def test_binding(self, iri, value):
        binding = Binding(((Variable("s"), NamedNode(iri)), (Variable("o"), Literal(value))))
        back = roundtrip(binding)
        assert back == binding
        assert hash(back) == hash(binding)
        assert back[Variable("s")] == NamedNode(iri)


class TestCrossProcess:
    def test_hash_recomputed_under_different_hash_seed(self, tmp_path):
        """A term pickled here must hash *consistently* in a process with a
        different PYTHONHASHSEED — i.e. land in the same dict bucket as a
        locally-built equal term."""
        blob = pickle.dumps(
            {
                "named": NamedNode("https://pods.example/pods/alice/profile"),
                "literal": Literal("Alice", language="en"),
                "triple": Triple(
                    NamedNode("https://a.example/s"),
                    NamedNode("https://a.example/p"),
                    Literal("x"),
                ),
                "quad": Quad(
                    NamedNode("https://a.example/s"),
                    NamedNode("https://a.example/p"),
                    Literal("x"),
                    NamedNode("https://a.example/g"),
                ),
                "pattern": TriplePattern(Variable("s"), NamedNode("https://a.example/p"), None),
                "binding": Binding(((Variable("v"), NamedNode("https://a.example/s")),)),
            }
        )
        blob_path = tmp_path / "terms.pickle"
        blob_path.write_bytes(blob)
        script = textwrap.dedent(
            """
            import pickle, sys
            from repro.rdf.terms import NamedNode, Literal, Variable, intern_iri
            from repro.rdf.triples import Quad, Triple, TriplePattern
            from repro.sparql.bindings import Binding
            data = pickle.loads(open(sys.argv[1], 'rb').read())
            local = {
                "named": NamedNode("https://pods.example/pods/alice/profile"),
                "literal": Literal("Alice", language="en"),
                "triple": Triple(
                    NamedNode("https://a.example/s"),
                    NamedNode("https://a.example/p"),
                    Literal("x"),
                ),
                "quad": Quad(
                    NamedNode("https://a.example/s"),
                    NamedNode("https://a.example/p"),
                    Literal("x"),
                    NamedNode("https://a.example/g"),
                ),
                "pattern": TriplePattern(Variable("s"), NamedNode("https://a.example/p"), None),
                "binding": Binding(((Variable("v"), NamedNode("https://a.example/s")),)),
            }
            for key, value in data.items():
                assert value == local[key], key
                assert hash(value) == hash(local[key]), key
                assert value in {local[key]}, key
            # Unpickled IRIs re-intern into *this* process's pool.
            assert data["named"] is intern_iri("https://pods.example/pods/alice/profile")
            # A statement carries its terms, rebuilt as this process's own.
            for key in ("triple", "quad", "pattern"):
                assert type(data[key]) is type(local[key]), key
                for got, want in zip(data[key], local[key], strict=True):
                    assert got is want, key
            print("OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(blob_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout
