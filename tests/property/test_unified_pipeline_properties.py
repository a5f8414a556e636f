"""Property tests: unified incremental pipeline ≡ snapshot evaluation.

The tentpole invariant of the unified execution stack: for ANY operator
tree — including the non-monotonic operators that previously fell back to
monolithic snapshot re-evaluation (OPTIONAL, MINUS, GROUP BY, ORDER BY +
LIMIT/OFFSET, FILTER EXISTS) — ANY partition of the data into documents,
ANY document arrival order, and ANY fault plan (a subset of documents that
never arrives), feeding deltas through the incremental pipeline and
finalizing at quiescence yields exactly the answer multiset a
:class:`SnapshotEvaluator` computes over the final snapshot.

Notes on determinism:

* ORDER BY conditions cover *every* variable of the subtree, so sort keys
  determine bindings and the top-k cut cannot diverge from the snapshot
  sort on ties (ties are identical bindings).
* Aggregates are restricted to COUNT(*) / COUNT(?v) [DISTINCT], whose
  results are arrival-order independent (SAMPLE and GROUP_CONCAT are not).
* Half the runs also force BGP rebuilds through ``Pipeline.reorder`` — a
  random BGP into a random permutation, at random points in the feed —
  which must preserve the answer multiset exactly like any other schedule.
"""

from hypothesis import given, settings, strategies as st

from repro.ltqp.pipeline import compile_pipeline
from repro.rdf import Dataset, Graph, Literal, NamedNode, Quad, Triple, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import (
    AggregateExpr,
    BGP,
    ExistsExpr,
    Filter,
    GroupBy,
    LeftJoin,
    Minus,
    Not,
    OrderBy,
    OrderCondition,
    Project,
    Slice,
    VariableExpr,
    operator_variables,
)
from repro.sparql.eval import SnapshotEvaluator

from .conftest import COUNTED, over_group_rows, rebuild_one_bgp

# Same tiny closed world as the other property suites: dense joins, few names.
nodes = st.sampled_from([NamedNode(f"http://x/n{i}") for i in range(6)])
predicates = st.sampled_from([NamedNode(f"http://x/p{i}") for i in range(3)])
values = st.sampled_from([Literal(str(i)) for i in range(3)])
triples = st.builds(Triple, nodes, predicates, nodes | values)

variables = st.sampled_from([Variable(name) for name in "abcd"])
pattern_terms = nodes | variables
patterns = st.builds(
    TriplePattern, pattern_terms, predicates | variables, pattern_terms | values
)
bgps = st.lists(patterns, min_size=1, max_size=3).map(lambda ps: BGP(tuple(ps)))

documents = st.lists(st.lists(triples, min_size=0, max_size=6), min_size=0, max_size=6)


def _order_all_vars(op):
    """ORDER BY over every variable: keys uniquely determine bindings."""
    conditions = tuple(
        OrderCondition(VariableExpr(var), descending=index % 2 == 1)
        for index, var in enumerate(sorted(operator_variables(op), key=lambda v: v.value))
    )
    return OrderBy(op, conditions)


@st.composite
def operator_trees(draw):
    """A random tree exercising each once-non-monotonic operator family."""
    base = draw(bgps)
    kind = draw(
        st.sampled_from(
            ["bgp", "project", "optional", "minus", "group", "order-slice", "exists"]
        )
    )
    if kind == "bgp":
        return base
    if kind == "project":
        # Projecting a dense star down to its centre: the shape where a
        # non-DISTINCT answer gets duplicate rows (and a rebuild has a
        # two-pattern join order to change).
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        star = BGP(
            (TriplePattern(a, draw(predicates), b), TriplePattern(a, draw(predicates), c))
        )
        return Project(star, (a,))
    if kind == "optional":
        return LeftJoin(base, draw(bgps), None)
    if kind == "minus":
        return Minus(base, draw(bgps))
    if kind == "group":
        group_vars = sorted(operator_variables(base), key=lambda v: v.value)
        keys = tuple((VariableExpr(var), None) for var in group_vars[:1])
        counted = draw(st.sampled_from(group_vars)) if group_vars else None
        operand = draw(
            st.sampled_from(
                [None, VariableExpr(counted)] if counted is not None else [None]
            )
        )
        distinct = operand is not None and draw(st.booleans())
        aggregates = ((COUNTED.variable, AggregateExpr("COUNT", operand, distinct)),)
        return draw(over_group_rows(GroupBy(base, keys, aggregates)))
    if kind == "order-slice":
        offset = draw(st.integers(0, 2))
        limit = draw(st.sampled_from([None, 0, 1, 3, 10]))
        return Slice(_order_all_vars(base), offset, limit)
    # FILTER [NOT] EXISTS over a second pattern.
    exists = ExistsExpr(draw(bgps), negated=False)
    expression = draw(st.sampled_from([exists, Not(exists)]))
    return Filter(expression, base)


def _key(binding):
    return sorted((v.value, str(t)) for v, t in binding.items())


def _canon(bindings, ordered):
    rows = [_key(b) for b in bindings]
    return rows if ordered else sorted(rows)


class TestUnifiedEquivalence:
    @given(
        operator_trees(),
        documents,
        st.randoms(use_true_random=False),
        st.integers(1, 3),
        st.lists(st.integers(0, 5), max_size=3),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_incremental_matches_snapshot(
        self, tree, docs, rng, docs_per_advance, faults, rebuild
    ):
        """Any tree × any arrival order × any fault plan × forced
        rebuilds or not ⇒ snapshot answers."""
        dropped = {index for index in faults if index < len(docs)}
        arrival = [index for index in range(len(docs)) if index not in dropped]
        rng.shuffle(arrival)

        pipeline = compile_pipeline(tree)
        dataset = Dataset()
        produced = []
        for start in range(0, len(arrival), docs_per_advance):
            if rebuild:
                rebuild_one_bgp(pipeline, rng)
            for doc_index in arrival[start : start + docs_per_advance]:
                graph = NamedNode(f"https://h/doc{doc_index}")
                for triple in docs[doc_index]:
                    dataset.add(
                        Quad(triple.subject, triple.predicate, triple.object, graph)
                    )
            produced.extend(pipeline.advance(dataset))
        if rebuild:
            rebuild_one_bgp(pipeline, rng)
        produced.extend(pipeline.finalize(dataset))

        surviving = [t for i, doc in enumerate(docs) if i not in dropped for t in doc]
        expected = SnapshotEvaluator(Graph(surviving)).evaluate(tree)

        ordered = isinstance(tree, Slice)  # the ORDER+LIMIT/OFFSET shape
        assert _canon(produced, ordered) == _canon(expected, ordered)

    @given(documents, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_blocking_plans_hold_output_until_finalize(self, docs, rng):
        """A blocking root emits nothing from advance(); everything arrives
        in the finalize pass — and still matches the snapshot."""
        pattern = TriplePattern(Variable("a"), NamedNode("http://x/p0"), Variable("b"))
        tree = Minus(BGP((pattern,)), BGP((pattern,)))
        arrival = list(range(len(docs)))
        rng.shuffle(arrival)

        pipeline = compile_pipeline(tree)
        assert pipeline.blocking_nodes
        dataset = Dataset()
        for doc_index in arrival:
            graph = NamedNode(f"https://h/doc{doc_index}")
            for triple in docs[doc_index]:
                dataset.add(Quad(triple.subject, triple.predicate, triple.object, graph))
            assert pipeline.advance(dataset) == []
        produced = pipeline.finalize(dataset)
        expected = SnapshotEvaluator(
            Graph([t for doc in docs for t in doc])
        ).evaluate(tree)
        assert _canon(produced, False) == _canon(expected, False)
