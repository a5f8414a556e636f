"""Property tests: live maintenance ≡ fresh evaluation over the final state.

The correctness anchor for standing queries: for ANY operator tree drawn
from the once-non-monotonic families (OPTIONAL, MINUS, GROUP BY,
ORDER BY + LIMIT/OFFSET, FILTER [NOT] EXISTS), ANY initial partition of
data into documents, ANY point in the insert schedule at which quiescence
falls (before the first document, between two, after the last), and ANY
sequence of document *rewrites* (including rewrites to empty — a deleted
document), replaying the initial results plus every signed change batch
from ``poll_changes`` yields exactly the multiset a
:class:`SnapshotEvaluator` computes over the final document states.

The last class holds a standing query to the same anchor one layer up,
through a real traversal: owner PATCHes that add and remove cross-pod
links (so a write grows or shrinks the subweb) and change ordinary
triples, each routed through ``notify`` / ``drain``, after which the
standing multiset must equal a fresh run from the same seeds.

Determinism notes (same as the unified-pipeline suite):

* ORDER BY covers every variable, so sort keys determine bindings;
  page *order* is not conveyed by signed diffs, so ordered shapes are
  compared as multisets.
* Aggregates are restricted to COUNT(*) / COUNT(?v) [DISTINCT] —
  SAMPLE and GROUP_CONCAT are arrival-order dependent by design and
  have no canonical value after a rebuild.
"""

import asyncio
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.ltqp.live import LiveQuery
from repro.net.message import Request
from repro.solidbench import SolidBenchConfig, build_universe

from repro.ltqp.pipeline import compile_pipeline
from repro.ltqp.source import GrowingTripleSource
from repro.rdf import Graph, Literal, NamedNode, ParsedDocument, Triple, Variable
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

DOC_COUNT = 4
documents = st.lists(
    st.lists(triples, min_size=0, max_size=5), min_size=1, max_size=DOC_COUNT
)
#: An edit rewrites one document to an arbitrary new triple list
#: (possibly empty — the document went away).
edits = st.lists(
    st.tuples(
        st.integers(0, DOC_COUNT - 1), st.lists(triples, min_size=0, max_size=5)
    ),
    min_size=1,
    max_size=5,
)


def _order_all_vars(op):
    conditions = tuple(
        OrderCondition(VariableExpr(var), descending=index % 2 == 1)
        for index, var in enumerate(
            sorted(operator_variables(op), key=lambda v: v.value)
        )
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
    exists = ExistsExpr(draw(bgps), negated=False)
    expression = draw(st.sampled_from([exists, Not(exists)]))
    return Filter(expression, base)


def _key(binding):
    return tuple(sorted((v.value, str(t)) for v, t in binding.items()))


def _multiset(bindings) -> Counter:
    return Counter(_key(b) for b in bindings)


def _doc_url(index: int) -> str:
    return f"https://h/doc{index}"


#: Where quiescence falls in the insert schedule: after this many
#: documents (clamped to the schedule's length).  0 settles on an empty
#: dataset — every document then arrives as a ``+1`` batch through the
#: settled tree; ``DOC_COUNT`` is the classic settle-at-the-end.
settle_points = st.integers(0, DOC_COUNT)


def _run_inserts(pipeline, source, docs, settle_after, rng=None) -> Counter:
    """Feed ``docs`` one per batch, finalizing after ``settle_after`` of
    them; returns the result multiset maintained across both phases.  With
    ``rng``, each batch before quiescence first rebuilds a random BGP."""
    maintained: Counter = Counter()
    settle_after = min(settle_after, len(docs))
    for index in range(len(docs) + 1):
        if index == settle_after:
            maintained.update(_key(b) for b in pipeline.finalize(source.dataset))
        if index == len(docs):
            break
        if rng is not None and index < settle_after:
            rebuild_one_bgp(pipeline, rng)
        source.put_document(_doc_url(index), ParsedDocument(docs[index]))
        for binding, delta in pipeline.poll_changes(source.dataset):
            # Open nodes withhold whatever more data could retract.
            assert delta > 0 or index >= settle_after
            maintained[_key(binding)] += delta
    return maintained


def _check_maintenance(tree, docs, settle_after, edit_seq, rng=None) -> None:
    pipeline = compile_pipeline(tree, live=True)
    source = GrowingTripleSource()
    state = {index: list(doc) for index, doc in enumerate(docs)}
    maintained = _run_inserts(pipeline, source, docs, settle_after, rng)

    for doc_index, new_triples in edit_seq:
        index = doc_index % len(docs)
        state[index] = list(new_triples)
        source.put_document(_doc_url(index), ParsedDocument(new_triples))
        for binding, delta in pipeline.poll_changes(source.dataset):
            maintained[_key(binding)] += delta

    surviving = [t for doc in state.values() for t in doc]
    expected = SnapshotEvaluator(Graph(surviving)).evaluate(tree)
    assert +maintained == _multiset(expected)


class TestLiveMaintenanceEquivalence:
    @given(operator_trees(), documents, settle_points, edits)
    @settings(max_examples=120, deadline=None)
    def test_maintained_matches_fresh_over_final_state(
        self, tree, docs, settle_after, edit_seq
    ):
        """Any tree × any initial docs × any settle point × any rewrite
        sequence ⇒ the maintained multiset is the fresh answer over the
        final state."""
        _check_maintenance(tree, docs, settle_after, edit_seq)

    @given(operator_trees(), documents, settle_points, edits, st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_maintained_matches_fresh_after_rebuilds_during_the_traversal(
        self, tree, docs, settle_after, edit_seq, rng
    ):
        """The same, with random BGPs rebuilt into random join orders while
        the plan is open: the settled chains maintain like compiled ones."""
        _check_maintenance(tree, docs, settle_after, edit_seq, rng)

    @given(documents, settle_points, edits)
    @settings(max_examples=60, deadline=None)
    def test_edit_then_revert_nets_to_zero(self, docs, settle_after, edit_seq):
        """Rewriting documents and then restoring the originals must net
        every signed change out: the maintained multiset ends exactly
        where it started, wherever quiescence fell."""
        pattern = TriplePattern(Variable("a"), NamedNode("http://x/p0"), Variable("b"))
        tree = LeftJoin(
            BGP((pattern,)),
            BGP((TriplePattern(Variable("b"), NamedNode("http://x/p1"), Variable("c")),)),
            None,
        )
        pipeline = compile_pipeline(tree, live=True)
        source = GrowingTripleSource()
        snapshot = +_run_inserts(pipeline, source, docs, settle_after)

        net: Counter = Counter()
        for doc_index, new_triples in edit_seq:
            index = doc_index % len(docs)
            source.put_document(_doc_url(index), ParsedDocument(new_triples))
            for binding, delta in pipeline.poll_changes(source.dataset):
                net[_key(binding)] += delta
        for index, doc in enumerate(docs):
            source.put_document(_doc_url(index), ParsedDocument(doc))
            for binding, delta in pipeline.poll_changes(source.dataset):
                net[_key(binding)] += delta

        assert {k: v for k, v in net.items() if v} == {}
        assert +(snapshot + net) == +snapshot


# -- a standing query over a real traversal ---------------------------------

MOOD = "https://vocab.example/mood"
MOOD_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{MOOD}> ?o }}"

#: Documents the writes touch: 0 is pod 0's card (the seed), 1–4 notes in
#: pods 0–3 — pod 0's is listed by the index the traversal reads, the
#: others are reached only through links.
NOTES = 4
writes = st.lists(
    st.tuples(
        st.sampled_from(["link", "unlink", "value"]),
        st.integers(0, NOTES),
        st.integers(1, NOTES),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=6,
)


class _World:
    """A private tiny universe, the documents the writes touch, and the
    value each note holds."""

    def __init__(self) -> None:
        self.universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        card = self.universe.pod_of(0)
        self.seed = card.profile_url
        self.urls = [card.profile_url] + [
            self.universe.pod_of(index).base_url + "notes/mood" for index in range(NOTES)
        ]
        self.subjects = [card.webid] + [url + "#it" for url in self.urls[1:]]
        self.values = {index: 0 for index in range(1, NOTES + 1)}

    async def send(self, method: str, url: str, body: str, content_type: str) -> None:
        server = self.universe.server
        headers = {"content-type": content_type, **server.login_owner(url[len(server.origin):])}
        response = await self.universe.internet.dispatch(
            Request(method, url, headers, body.encode("utf-8"))
        )
        assert response.status < 300, response.body

    async def create_notes(self) -> None:
        for index in range(1, NOTES + 1):
            body = f'<{self.subjects[index]}> <{MOOD}> "v0" .'
            await self.send("PUT", self.urls[index], body, "text/turtle")

    async def write(self, kind: str, source: int, target: int, value: int) -> str:
        """One owner PATCH; returns the written document's URL."""
        source = max(source, 1) if kind == "value" else source  # the card holds no value
        subject = f"<{self.subjects[source]}> <{MOOD}>"
        if kind == "value":
            old, self.values[source] = self.values[source], value
            update = f'DELETE DATA {{ {subject} "v{old}" }} ;\nINSERT DATA {{ {subject} "v{value}" }}'
        else:
            verb = "INSERT DATA" if kind == "link" else "DELETE DATA"
            update = f"{verb} {{ {subject} <{self.urls[target]}> }}"
        url = self.urls[source]
        await self.send("PATCH", url, update, "application/sparql-update")
        return url


class TestStandingTraversalEquivalence:
    @given(writes)
    @settings(max_examples=30, deadline=None)
    def test_a_standing_query_answers_what_a_fresh_run_answers(self, steps):
        """Any sequence of link additions, link removals and value edits
        across pods ⇒ after each drain, the standing multiset is a fresh
        run's from the same seed — whichever documents the writes brought
        into reach or took out of it."""
        world = _World()

        async def run():
            await world.create_notes()
            live = LiveQuery(world.universe.fast_engine(), MOOD_QUERY, seeds=[world.seed])
            await live.start()
            for step in steps:
                live.notify(await world.write(*step))
                await live.drain()
                fresh = await world.universe.fast_engine().query(
                    MOOD_QUERY, seeds=[world.seed]
                ).gather()
                assert Counter(live.current_results()) == Counter(fresh.bindings), step
            live.close()

        asyncio.run(run())
