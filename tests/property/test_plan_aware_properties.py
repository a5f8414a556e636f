"""Property tests: a source that keeps only the plan's read set ≡ snapshot
evaluation over *every* document.

The growing source stores the triples whose predicate some operator of the
compiled plan can read and drops the rest (``GrowingTripleSource(read_set)``).
That is only sound if the read set really is everything the plan reads — a
scan off the delta, a path leaf, an EXISTS pattern or a DESCRIBE reading the
dataset itself — so the property runs random queries from every operator
family over a source handed ``pipeline.read_set`` and compares with a
:class:`SnapshotEvaluator` over a dataset holding all the documents whole:

* one-shot: any query form × any document arrival order × any number of
  documents per advance (× forced rebuilds of a random BGP into a random
  permutation at random points in the feed);
* live: any initial documents × any sequence of document rewrites — the
  replay of initial results plus every signed change equals the fresh answer
  over the final state.

Half the queries are a broad sweep (one operator family over one or two
random leaves); the other half sit where a missed registration shows — a
pattern that matches most documents, under an operator that reads the
dataset itself (EXISTS in FILTER / BIND / OPTIONAL's ON / HAVING / ORDER BY,
or a path that may match the empty walk) over a *different* predicate.

Determinism notes as in the sibling suites: ORDER BY covers every variable
of its subtree, aggregates are COUNTs, LIMIT appears only over such an ORDER
BY (or as ASK's LIMIT 1 over the empty projection).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.ltqp.pipeline import compile_query_pipeline
from repro.ltqp.source import GrowingTripleSource
from repro.rdf import BlankNode, Literal, NamedNode, ParsedDocument, Triple, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import (
    BGP,
    AggregateExpr,
    AlternativePath,
    Compare,
    Distinct,
    ExistsExpr,
    Extend,
    Filter,
    GraphOp,
    GroupBy,
    InversePath,
    Join,
    LeftJoin,
    Minus,
    NegatedPropertySet,
    Not,
    OneOrMorePath,
    OrderBy,
    OrderCondition,
    PathPattern,
    PredicatePath,
    Project,
    Query,
    SequencePath,
    Slice,
    SubSelect,
    Union,
    ValuesOp,
    VariableExpr,
    ZeroOrMorePath,
    ZeroOrOnePath,
    operator_variables,
)
from repro.sparql.eval import SnapshotEvaluator

from .conftest import COUNTED, over_group_rows, rebuild_one_bgp

# A closed world smaller and denser than the sibling suites' (most patterns
# match something, so most answers are non-empty and a dropped quad shows),
# with a blank node (DESCRIBE's CBD recurses through it) and four
# predicates, so every document carries triples most plans do not read.
IRIS = [NamedNode(f"http://x/n{i}") for i in range(3)]
PREDICATES = [NamedNode(f"http://x/p{i}") for i in range(4)]
nodes = st.sampled_from(IRIS + [BlankNode("b0")])
predicates = st.sampled_from(PREDICATES)
values = st.just(Literal("0"))
triples = st.builds(Triple, nodes, predicates, st.one_of(nodes, nodes, values))

DOC_COUNT = 5
# Mostly well-filled (left to itself hypothesis spends its budget on the
# query and draws near-empty data), now and then empty: a document that
# names a graph and adds nothing to it.
document = st.lists(triples, min_size=4, max_size=8) | st.lists(triples, max_size=1)
documents = st.lists(document, min_size=2, max_size=DOC_COUNT)
edits = st.lists(st.tuples(st.integers(0, DOC_COUNT - 1), document), min_size=1, max_size=5)

variables = st.sampled_from([Variable(name) for name in "abcd"])
pattern_ends = st.one_of(st.sampled_from(IRIS), variables, variables, variables)
# A plan that can read any quad (variable predicate, negated set, unpinned
# ``p*``, DESCRIBE) is the exception the filter must recognise, not the rule:
# those forms are drawn rarely enough that about half the plans keep a
# proper subset of what they are fed.
pattern_predicates = st.sampled_from(PREDICATES * 3 + [Variable("p")])
patterns = st.builds(TriplePattern, pattern_ends, pattern_predicates, pattern_ends | values)

paths = st.recursive(
    st.sampled_from(
        [PredicatePath(p) for p in PREDICATES] * 3
        + [NegatedPropertySet((PREDICATES[0],)), NegatedPropertySet((PREDICATES[1],), (PREDICATES[2],))]
    ),
    lambda inner: st.one_of(
        st.builds(InversePath, inner),
        st.builds(ZeroOrMorePath, inner),
        st.builds(OneOrMorePath, inner),
        st.builds(ZeroOrOnePath, inner),
        st.builds(lambda a, b: SequencePath((a, b)), inner, inner),
        st.builds(lambda a, b: AlternativePath((a, b)), inner, inner),
    ),
    max_leaves=3,
)
path_patterns = st.builds(PathPattern, pattern_ends, paths, pattern_ends)


def _doc_name(index: int) -> NamedNode:
    return NamedNode(f"https://h/doc{index}")


@st.composite
def bgps(draw):
    triple_patterns = draw(st.lists(patterns, min_size=0, max_size=2))
    path_count = draw(st.sampled_from([0, 0, 1]))
    if not triple_patterns and not path_count:
        triple_patterns = [draw(patterns)]
    return BGP(
        tuple(triple_patterns), tuple(draw(path_patterns) for _ in range(path_count))
    )


@st.composite
def leaves(draw):
    kind = draw(st.sampled_from(["bgp", "bgp", "values", "graph-iri", "graph-var"]))
    if kind == "bgp":
        return draw(bgps())
    if kind == "values":
        variable = draw(variables)
        rows = draw(st.lists(st.sampled_from(IRIS), min_size=1, max_size=2))
        return Join(ValuesOp((variable,), tuple((row,) for row in rows)), draw(bgps()))
    if kind == "graph-iri":
        return GraphOp(_doc_name(draw(st.integers(0, DOC_COUNT))), draw(bgps()))
    # Paths included: under GRAPH ?g a path leaf is evaluated per named graph.
    return GraphOp(Variable("g"), draw(bgps()))


def _order_all_vars(op):
    conditions = tuple(
        OrderCondition(VariableExpr(var), descending=index % 2 == 1)
        for index, var in enumerate(sorted(operator_variables(op), key=lambda v: v.value))
    )
    return OrderBy(op, conditions)


@st.composite
def exists_expressions(draw, scope):
    """``[NOT] EXISTS`` over a pattern of its own — usually correlated with
    the outer solution through one of its variables, so the verdict varies
    by row — that may itself hide a nested ``NOT EXISTS``."""
    if scope and draw(st.integers(0, 3)):
        fresh = Variable("x")
        pattern = BGP(
            (TriplePattern(draw(st.sampled_from(scope)), draw(predicates), fresh),)
        )
        inner = BGP((TriplePattern(fresh, draw(predicates), draw(pattern_ends)),))
    else:
        pattern, inner = draw(bgps()), draw(bgps())
    if draw(st.booleans()):
        pattern = Filter(ExistsExpr(inner, negated=True), pattern)
    exists = ExistsExpr(pattern, negated=draw(st.booleans()))
    return draw(st.sampled_from([exists, Not(exists)]))


#: Operator families that read the dataset itself, not just the delta.
DATASET_READERS = (
    "exists", "optional-on-exists", "bind-exists", "group-having-exists",
    "order-by-exists", "path",
)
KINDS = (
    "leaf", "join", "optional", "minus", "union", "filter", "project", "distinct",
    "sub-select", "group", "order-slice", *DATASET_READERS,
)


@st.composite
def operator_trees(draw, kinds=KINDS, leaf=leaves()):
    """One operator family (of ``kinds``) over one or two leaves."""
    base = draw(leaf)
    kind = draw(st.sampled_from(kinds))
    in_scope = sorted(operator_variables(base), key=lambda v: v.value)
    if kind == "leaf":
        return base
    if kind == "join":
        return Join(base, draw(leaves()))
    if kind == "optional":
        return LeftJoin(base, draw(leaves()), None)
    if kind == "optional-on-exists":
        # An optional side that usually has partners, or ON is never asked.
        joined = draw(st.sampled_from(in_scope)) if in_scope else draw(pattern_ends)
        optional = BGP((TriplePattern(joined, draw(predicates), Variable("y")),))
        return LeftJoin(base, optional, draw(exists_expressions(in_scope)))
    if kind == "minus":
        return Minus(base, draw(leaves()))
    if kind == "union":
        return Union(base, draw(leaves()))
    if kind == "filter":
        if len(in_scope) < 2:
            return base
        return Filter(Compare("!=", VariableExpr(in_scope[0]), VariableExpr(in_scope[1])), base)
    if kind == "exists":
        return Filter(draw(exists_expressions(in_scope)), base)
    if kind == "bind-exists":
        return Extend(base, Variable("e"), draw(exists_expressions(in_scope)))
    if kind == "path":
        # Beside the base, not under it: a join on ``?a`` would only ever ask
        # about nodes the base's own quads mention.
        closure = draw(st.sampled_from([ZeroOrMorePath, ZeroOrOnePath, OneOrMorePath]))
        path = PathPattern(draw(pattern_ends), closure(draw(paths)), draw(pattern_ends))
        return Union(base, BGP((), (path,)))
    if kind == "project":
        return Project(base, tuple(in_scope[:1]))
    if kind == "distinct":
        return Distinct(Project(base, tuple(in_scope[:1])))
    if kind == "sub-select":
        inner = Query("SELECT", Distinct(Project(base, tuple(in_scope[:2]))))
        return Join(SubSelect(inner), draw(bgps()))
    if kind in ("group", "group-having-exists"):
        keys = tuple((VariableExpr(var), None) for var in in_scope[:1])
        operand = draw(st.sampled_from([None] + [VariableExpr(var) for var in in_scope]))
        distinct = operand is not None and draw(st.booleans())
        group = GroupBy(base, keys, ((COUNTED.variable, AggregateExpr("COUNT", operand, distinct)),))
        if kind.endswith("exists"):
            return Filter(draw(exists_expressions(in_scope[:1])), group)
        return draw(over_group_rows(group))
    if kind == "order-slice":
        return Slice(_order_all_vars(base), draw(st.integers(0, 2)), draw(st.sampled_from([None, 1, 3])))
    # ORDER BY (EXISTS {…}) and then every variable: still a total order —
    # made visible by the LIMIT, which cuts wherever the EXISTS key put it.
    ordered = _order_all_vars(base)
    by_exists = OrderCondition(draw(exists_expressions(in_scope)), descending=draw(st.booleans()))
    return Slice(OrderBy(base, (by_exists,) + ordered.conditions), 0, draw(st.sampled_from([1, 2])))


#: ``?a pI ?b``: matches in most documents, reads one predicate of four.
generic_leaves = st.builds(
    lambda predicate: BGP((TriplePattern(Variable("a"), predicate, Variable("b")),)), predicates
)


@st.composite
def queries(draw):
    if draw(st.booleans()):
        return Query("SELECT", draw(operator_trees(DATASET_READERS, generic_leaves)))
    where = draw(operator_trees())
    forms = ["SELECT"] * 5 + ["ASK", "DESCRIBE", "CONSTRUCT"]
    form = draw(st.sampled_from(forms))
    if form == "CONSTRUCT":
        in_scope = sorted(operator_variables(where), key=lambda v: v.value) or [IRIS[0]]
        template = (TriplePattern(in_scope[0], PREDICATES[0], in_scope[-1]),)
        return Query(form, where, construct_template=template)
    if form == "DESCRIBE":
        in_scope = sorted(operator_variables(where), key=lambda v: v.value)
        targets = draw(st.sampled_from([(IRIS[0],), tuple(in_scope[:1]), ()]))
        return Query(form, where, describe_targets=targets)
    return Query(form, where)


def _key(binding):
    return tuple(sorted((v.value, str(t)) for v, t in binding.items()))


def _oracle(query: Query, state: dict) -> Counter:
    """The fresh answer over every document, nothing dropped."""
    whole = GrowingTripleSource()
    for index, doc in state.items():
        whole.put_document(_doc_name(index).value, ParsedDocument(doc))
    evaluator = SnapshotEvaluator(whole.dataset)
    if query.form in ("CONSTRUCT", "DESCRIBE"):
        triples = evaluator.construct(query) if query.form == "CONSTRUCT" else evaluator.describe(query)
        columns = ("subject", "predicate", "object")
        return Counter(tuple(sorted(zip(columns, map(str, triple)))) for triple in triples)
    if query.form == "ASK":
        return Counter({(): 1}) if evaluator.ask(query) else Counter()
    return Counter(_key(binding) for binding in evaluator.select(query))


class TestPlanAwareSourceEquivalence:
    @given(
        queries(),
        documents,
        st.randoms(use_true_random=False),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_one_shot_matches_snapshot_over_all_documents(
        self, query, docs, rng, docs_per_advance, rebuild
    ):
        arrival = list(range(len(docs)))
        rng.shuffle(arrival)
        pipeline = compile_query_pipeline(query)
        source = GrowingTripleSource(pipeline.read_set)
        produced = []
        for start in range(0, len(arrival), docs_per_advance):
            if rebuild:
                rebuild_one_bgp(pipeline, rng)
            for index in arrival[start : start + docs_per_advance]:
                source.put_document(_doc_name(index).value, ParsedDocument(docs[index]))
            produced.extend(pipeline.advance(source.dataset))
        if rebuild:
            rebuild_one_bgp(pipeline, rng)
        produced.extend(pipeline.finalize(source.dataset))

        assert Counter(map(_key, produced)) == _oracle(query, dict(enumerate(docs)))
        # Dropping is by predicate and nothing else.
        reads = pipeline.read_set
        kept = {(q.triple, q.graph) for q in source.dataset.quads()}
        assert kept == {
            (triple, _doc_name(index))
            for index, doc in enumerate(docs)
            for triple in doc
            if reads is None or triple.predicate in reads
        }
        assert source.triples_discovered == sum(len(set(doc)) for doc in docs)

    @given(queries(), documents, edits)
    @settings(max_examples=400, deadline=None)
    def test_live_replay_matches_fresh_answer_over_final_state(self, query, docs, edit_seq):
        pipeline = compile_query_pipeline(query, live=True)
        source = GrowingTripleSource(pipeline.read_set)
        state = dict(enumerate(docs))
        maintained: Counter = Counter()
        for index, doc in state.items():
            source.put_document(_doc_name(index).value, ParsedDocument(doc))
        maintained.update(_key(b) for b in pipeline.finalize(source.dataset))

        for doc_index, new_triples in edit_seq:
            index = doc_index % len(docs)
            state[index] = list(new_triples)
            changed = source.put_document(_doc_name(index).value, ParsedDocument(new_triples))
            runs = source.dataset.take_changes()
            # Only what the plan reads is diffed, handed off — or held at all.
            reads = pipeline.read_set
            assert all(reads is None or q.predicate in reads for _, run in runs for q in run)
            assert sum(len(run) for _, run in runs) == changed
            for binding, delta in pipeline.feed(runs, source.dataset):
                maintained[_key(binding)] += delta

        assert +maintained == _oracle(query, state)
