"""Adaptive join ordering (paper §5 future work): every pipeline re-orders
each BGP from the counts its own scans keep, while the plan is open."""

import dataclasses
import importlib.util
from collections import Counter

import pytest

from repro.ltqp import TraversalPolicy
from repro.ltqp.pipeline import JoinNode, compile_pipeline, compile_query_pipeline
from repro.obs import Tracer
from repro.rdf import Dataset, Literal, NamedNode, Quad
from repro.sparql import parse_query
from repro.sparql.eval import SnapshotEvaluator
from repro.sparql.planner import plan_bgp_order

EX = "PREFIX ex: <http://x/>\n"


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


def q(subject, predicate, object, graph="https://h/doc"):
    return Quad(subject, predicate, object, NamedNode(graph))


def skewed_dataset(popular: int = 60, selective: int = 2) -> list[Quad]:
    """Many ex:content triples, few ex:creator ex:me triples."""
    quads = []
    for index in range(popular):
        quads.append(q(n(f"m{index}"), n("content"), Literal(f"text {index}")))
    for index in range(selective):
        quads.append(q(n(f"m{index}"), n("creator"), n("me")))
    return quads


#: A query whose textual order starts with the *huge* pattern.
BAD_ORDER_QUERY = EX + "SELECT ?m ?c WHERE { ?m ex:content ?c . ?m ex:creator ex:me }"


def textual(text):
    """The query's pipeline starting from its textual join order."""
    query = parse_query(text)
    return query, compile_pipeline(query.where, bgp_order=list)


def feed_in_chunks(pipeline, quads, chunk=5):
    """Advance per chunk, then finalize: every answer, and the dataset."""
    dataset = Dataset()
    produced = []
    for start in range(0, len(quads), chunk):
        for quad in quads[start:start + chunk]:
            dataset.add(quad)
        produced.extend(pipeline.advance(dataset))
    produced.extend(pipeline.finalize(dataset))
    return produced, dataset


def chain_patterns(node):
    """The patterns of a left-deep join chain, in join order."""
    patterns = []
    while isinstance(node, JoinNode):
        left, right = node.children()
        patterns.insert(0, right._pattern)
        node = left
    return [node._pattern, *patterns]


def snapshot(query, dataset):
    return Counter(SnapshotEvaluator(dataset.union).evaluate(query.where))


class TestAdaptivePipeline:
    def test_replans_on_skewed_data(self):
        query, pipeline = textual(BAD_ORDER_QUERY)
        produced, _ = feed_in_chunks(pipeline, skewed_dataset())
        assert len(produced) == 2  # answers still correct
        assert pipeline.replans >= 1
        (bgp,) = pipeline.bgps
        assert chain_patterns(bgp.top)[0].predicate == n("creator")
        assert pipeline.root.children() == (bgp.top,)  # the projection reads the new chain

    def test_replan_produces_same_answers_as_snapshot(self):
        query, pipeline = textual(BAD_ORDER_QUERY)
        produced, dataset = feed_in_chunks(pipeline, skewed_dataset(), chunk=3)
        assert pipeline.replans >= 1
        assert Counter(produced) == snapshot(query, dataset)

    def test_no_duplicate_answers_across_replans(self):
        query, pipeline = textual(BAD_ORDER_QUERY)
        produced, _ = feed_in_chunks(pipeline, skewed_dataset(), chunk=2)
        assert pipeline.replans >= 1
        assert len(produced) == len(set(produced)) == 2

    def test_duplicate_rows_of_non_distinct_query_survive(self):
        """Two people named "Ann" are two answers, exactly as the oracle
        says — across a re-order of the BGP that derives them."""
        query, pipeline = textual(EX + 'SELECT ?n WHERE { ?p ex:name ?n . ?p ex:vip "yes" }')
        quads = [q(n(f"p{index}"), n("name"), Literal("Ann")) for index in range(20)]
        quads += [q(n(f"p{index}"), n("vip"), Literal("yes")) for index in range(2)]
        produced, dataset = feed_in_chunks(pipeline, quads, chunk=4)
        assert pipeline.replans >= 1
        assert len(produced) == 2
        assert Counter(produced) == snapshot(query, dataset)

    def test_replay_keeps_the_answer_multiset(self):
        """The default plan leads with the constant-object pattern; the data
        makes it the big one.  The re-order derives nothing twice."""
        query = parse_query(
            EX + "SELECT ?c WHERE { ?m ex:content ?c . ?m ex:creator ex:me }"
        )
        quads = [q(n(f"m{index}"), n("creator"), n("me")) for index in range(40)] + [
            q(n(f"m{index}"), n("content"), Literal("same text")) for index in range(3)
        ]
        pipeline = compile_query_pipeline(query)
        produced, dataset = feed_in_chunks(pipeline, quads, chunk=2)
        assert pipeline.replans >= 1
        assert Counter(produced) == snapshot(query, dataset) == Counter({produced[0]: 3})

    def test_replan_counter_bounded(self):
        """The skew flips twice and then once more: two re-orders, no third."""
        query, pipeline = textual(BAD_ORDER_QUERY)
        quads = skewed_dataset(popular=40, selective=2)
        quads += [q(n(f"x{index}"), n("creator"), n("me")) for index in range(200)]
        quads += [q(n(f"y{index}"), n("content"), Literal(str(index))) for index in range(1000)]
        produced, dataset = feed_in_chunks(pipeline, quads, chunk=2)
        (bgp,) = pipeline.bgps
        assert pipeline.replans == bgp.reorders == 2
        assert Counter(produced) == snapshot(query, dataset)

    def test_no_replan_when_order_is_already_good(self):
        pipeline = compile_query_pipeline(
            parse_query(EX + "SELECT ?m ?c WHERE { ?m ex:creator ex:me . ?m ex:content ?c }")
        )
        feed_in_chunks(pipeline, skewed_dataset(), chunk=4)
        assert pipeline.replans == 0

    def test_a_settled_plan_keeps_its_order(self):
        query, pipeline = textual(BAD_ORDER_QUERY)
        pipeline.finalize(Dataset())
        feed_in_chunks(pipeline, skewed_dataset())
        assert pipeline.replans == 0


class TestRebuildRegressions:
    """The two ways the recompile-and-replay re-planner went wrong."""

    LIMIT_QUERY = EX + "SELECT ?c WHERE { ?m ex:content ?c . ?m ex:creator ex:me } LIMIT {k}"

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("creators, chunk", [(10, 2), (40, 2), (40, 5), (40, 10)])
    def test_limit_k_returns_exactly_k_rows(self, k, creators, chunk):
        """A replay's LIMIT chose other rows than those delivered, and they
        passed as surplus: LIMIT 1 / 2 / 3 returned 2 / 4 / 6 rows."""
        query = parse_query(self.LIMIT_QUERY.replace("{k}", str(k)))
        quads = [q(n(f"m{index}"), n("creator"), n("me")) for index in range(creators)]
        # Contents in the other order than creators: a replay derives them
        # in creator order, unlike the first delivery.
        quads += [
            q(n(f"m{index}"), n("content"), Literal(f"text {index}")) for index in reversed(range(6))
        ]
        pipeline = compile_query_pipeline(query)
        produced, _ = feed_in_chunks(pipeline, quads, chunk=chunk)
        assert pipeline.replans >= 1
        assert len(produced) == k

    def test_a_reorder_leaves_the_other_bgps_order_alone(self):
        """Skew inside the OPTIONAL only: the replay re-planner mapped that
        BGP's order onto every BGP and flipped the required one to its
        textual order."""
        query = parse_query(
            EX + "SELECT * WHERE { ?m ex:content ?c . ?m ex:creator ex:me "
            "OPTIONAL { ?m ex:tag ex:t . ?m ex:tagged ?t } }"
        )
        quads = [q(n(f"m{index}"), n("tag"), n("t")) for index in range(40)]
        quads += [q(n(f"m{index}"), n("tagged"), n(f"t{index}")) for index in range(2)]
        quads += [q(n(f"m{index}"), n("creator"), n("me")) for index in range(2)]
        quads += [q(n(f"m{index}"), n("content"), Literal(f"text {index}")) for index in range(2)]
        pipeline = compile_query_pipeline(query)
        required, optional = pipeline.bgps
        produced, dataset = feed_in_chunks(pipeline, quads, chunk=4)
        assert (optional.reorders, required.reorders) == (1, 0)
        assert chain_patterns(optional.top)[0].predicate == n("tagged")
        # Creator first: the zero-knowledge order, whatever order it is asked in.
        zero_knowledge = plan_bgp_order([scan._pattern for scan in reversed(required.scans)])
        assert chain_patterns(required.top) == zero_knowledge
        assert zero_knowledge[0].predicate == n("creator")
        assert Counter(produced) == snapshot(query, dataset)


class TestOnePlannerPath:
    def test_no_adaptive_module_and_no_adaptive_policy(self):
        assert importlib.util.find_spec("repro.ltqp.adaptive") is None
        assert "adaptive" not in {field.name for field in dataclasses.fields(TraversalPolicy)}

    def test_a_reorder_is_an_argument_of_its_batch_span_and_reads_no_clock(self):
        reads = []
        tracer = Tracer(clock=lambda: reads.append(None) or float(len(reads)))
        _, pipeline = textual(BAD_ORDER_QUERY)
        pipeline.enable_tracing(tracer)
        feed_in_chunks(pipeline, skewed_dataset(), chunk=3)
        batches = [span for span in tracer.spans if span.name == "advance-batch"]
        assert sum(span.args.get("reordered", 0) for span in batches) == pipeline.replans >= 1
        assert all(span.kind == "span" for span in tracer.spans)  # no instant
        assert len(reads) == 2 * len(tracer.spans)  # a span's start and end, nothing else


class TestEngineIntegration:
    def test_the_default_engine_reorders_and_matches_the_oracle(self, tiny_universe):
        from repro.bench import oracle_bindings
        from repro.solidbench import discover_query

        query = discover_query(tiny_universe, 3, 1)
        execution = tiny_universe.fast_engine().query(query.text, seeds=query.seeds).run_sync()
        assert set(execution.bindings) == oracle_bindings(tiny_universe, query)
        assert execution.stats.replans >= 1
        assert "replans" in execution.stats.summary()
