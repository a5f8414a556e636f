"""Unit tests for property-path evaluation."""

import pytest

from repro.rdf import Graph, NamedNode, Triple, Variable, parse_turtle
from repro.sparql.algebra import (
    AlternativePath,
    InversePath,
    NegatedPropertySet,
    OneOrMorePath,
    PathPattern,
    PredicatePath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)
from repro.sparql.paths import evaluate_path, path_predicates, path_reads

DATA = """
@prefix ex: <http://x/> .
ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:d .
ex:a ex:q ex:c .
ex:d ex:r ex:a .
"""


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


@pytest.fixture(scope="module")
def graph():
    return Graph(parse_turtle(DATA))


P = PredicatePath(n("p"))
Q = PredicatePath(n("q"))
R = PredicatePath(n("r"))


def pairs(graph, subject, path, object=None):
    return set(evaluate_path(graph, subject, path, object))


class TestBasicPaths:
    def test_predicate(self, graph):
        assert pairs(graph, n("a"), P) == {(n("a"), n("b"))}

    def test_inverse(self, graph):
        assert pairs(graph, n("b"), InversePath(P)) == {(n("b"), n("a"))}

    def test_sequence(self, graph):
        assert pairs(graph, n("a"), SequencePath((P, P))) == {(n("a"), n("c"))}

    def test_sequence_bound_object_only(self, graph):
        assert pairs(graph, None, SequencePath((P, P)), n("c")) == {(n("a"), n("c"))}

    def test_alternative(self, graph):
        assert pairs(graph, n("a"), AlternativePath((P, Q))) == {
            (n("a"), n("b")),
            (n("a"), n("c")),
        }

    def test_zero_or_one(self, graph):
        assert pairs(graph, n("a"), ZeroOrOnePath(P)) == {(n("a"), n("a")), (n("a"), n("b"))}


class TestTransitivePaths:
    def test_one_or_more_forward(self, graph):
        assert pairs(graph, n("a"), OneOrMorePath(P)) == {
            (n("a"), n("b")),
            (n("a"), n("c")),
            (n("a"), n("d")),
        }

    def test_one_or_more_backward(self, graph):
        assert pairs(graph, None, OneOrMorePath(P), n("c")) == {
            (n("b"), n("c")),
            (n("a"), n("c")),
        }

    def test_zero_or_more_includes_self(self, graph):
        result = pairs(graph, n("a"), ZeroOrMorePath(P))
        assert (n("a"), n("a")) in result
        assert (n("a"), n("d")) in result

    def test_cycle_terminates(self):
        graph = Graph(parse_turtle("@prefix ex: <http://x/> . ex:a ex:p ex:b . ex:b ex:p ex:a ."))
        result = pairs(graph, n("a"), OneOrMorePath(P))
        assert result == {(n("a"), n("b")), (n("a"), n("a"))}

    def test_both_ends_bound(self, graph):
        assert pairs(graph, n("a"), OneOrMorePath(P), n("d")) == {(n("a"), n("d"))}
        assert pairs(graph, n("d"), OneOrMorePath(P), n("a")) == set()

    def test_unbounded_both_sides(self, graph):
        result = pairs(graph, None, OneOrMorePath(P))
        assert (n("a"), n("d")) in result and (n("b"), n("d")) in result


class TestNegatedSets:
    def test_negated_forward(self, graph):
        result = pairs(graph, n("a"), NegatedPropertySet(forward=(n("p"),)))
        assert result == {(n("a"), n("c"))}  # only the ex:q edge remains

    def test_negated_inverse(self, graph):
        result = pairs(graph, n("a"), NegatedPropertySet(forward=(), inverse=(n("p"),)))
        # inverse edges into a, except via p: only d -r-> a reversed.
        assert result == {(n("a"), n("d"))}


class TestPathPredicates:
    def test_collects_all_mentioned_predicates(self):
        path = AlternativePath((SequencePath((P, InversePath(Q))), OneOrMorePath(R)))
        assert path_predicates(path) == {n("p"), n("q"), n("r")}

    def test_negated_set_predicates(self):
        assert path_predicates(NegatedPropertySet((n("p"),), (n("q"),))) == {n("p"), n("q")}


class TestPathReads:
    """The one rule for which quads can change a path pattern's answer."""

    @pytest.mark.parametrize(
        "path",
        [
            NegatedPropertySet((n("p"),)),
            SequencePath((P, NegatedPropertySet((), (n("q"),)))),
            ZeroOrMorePath(P),
            ZeroOrOnePath(P),
            OneOrMorePath(ZeroOrMorePath(P)),
            InversePath(ZeroOrOnePath(P)),
            SequencePath((ZeroOrMorePath(P), ZeroOrOnePath(Q))),
            AlternativePath((P, ZeroOrMorePath(Q))),
            ZeroOrOnePath(SequencePath((P, Q))),
        ],
    )
    def test_any_quad_between_two_variables(self, path):
        assert path_reads(PathPattern(Variable("a"), path, Variable("b"))) is None

    def test_a_negated_set_reads_any_quad_even_pinned(self):
        assert path_reads(PathPattern(n("a"), NegatedPropertySet((n("p"),)), Variable("b"))) is None

    @pytest.mark.parametrize(
        "subject, path, object, reads",
        [
            (n("a"), ZeroOrMorePath(P), Variable("b"), {"p"}),
            (Variable("a"), ZeroOrOnePath(P), n("b"), {"p"}),
            (Variable("a"), OneOrMorePath(P), Variable("b"), {"p"}),
            (Variable("a"), SequencePath((ZeroOrMorePath(P), Q)), Variable("b"), {"p", "q"}),
            (Variable("a"), AlternativePath((P, InversePath(Q))), Variable("b"), {"p", "q"}),
        ],
    )
    def test_pinned_or_non_nullable_reads_its_predicates(self, subject, path, object, reads):
        assert path_reads(PathPattern(subject, path, object)) == {n(name) for name in reads}
