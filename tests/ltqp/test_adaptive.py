"""Tests for adaptive query planning (paper §5 future work)."""

from collections import Counter

import pytest

from repro.ltqp.adaptive import AdaptivePipeline, observed_cardinality
from repro.ltqp import EngineConfig, TraversalPolicy
from repro.rdf import Dataset, Literal, NamedNode, Quad, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql import parse_query
from repro.sparql.eval import SnapshotEvaluator

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


def identity_order(patterns):
    return list(patterns)


class TestObservedCardinality:
    def test_counts_matching_triples(self):
        dataset = Dataset()
        for quad in skewed_dataset():
            dataset.add(quad)
        content = TriplePattern(Variable("m"), n("content"), Variable("c"))
        creator = TriplePattern(Variable("m"), n("creator"), n("me"))
        assert observed_cardinality(content, dataset) == 60
        assert observed_cardinality(creator, dataset) == 2


class TestAdaptivePipeline:
    def feed_in_chunks(self, pipeline, quads, chunk=5):
        dataset = Dataset()
        produced = []
        for start in range(0, len(quads), chunk):
            for quad in quads[start:start + chunk]:
                dataset.add(quad)
            produced.extend(pipeline.advance(dataset))
        return produced, dataset

    def make_bad_pipeline(self, **kwargs):
        query = parse_query(BAD_ORDER_QUERY)
        pipeline = AdaptivePipeline(query.where, check_interval=2, **kwargs)
        # Force the initial plan to the bad (textual) order so adaptivity
        # has something to correct.
        pipeline._pipeline = pipeline._compile(order=None)
        return query, pipeline

    def test_replans_on_skewed_data(self):
        query = parse_query(BAD_ORDER_QUERY)
        pipeline = AdaptivePipeline(query.where, check_interval=2)
        # Override initial order with the adversarial textual order.
        from repro.ltqp.pipeline import compile_pipeline

        pipeline._pipeline = compile_pipeline(query.where, bgp_order=identity_order)
        pipeline._current_order = None  # will be repopulated on replan path

        # Feed; current_order is None so _maybe_replan must be tolerant.
        produced, _ = self.feed_in_chunks(pipeline, skewed_dataset())
        assert len(produced) == 2  # answers still correct

    def test_replan_produces_same_answers_as_snapshot(self):
        query = parse_query(BAD_ORDER_QUERY)
        pipeline = AdaptivePipeline(query.where, check_interval=1, replan_factor=2.0)
        produced, dataset = self.feed_in_chunks(pipeline, skewed_dataset(), chunk=3)
        expected = set(SnapshotEvaluator(dataset.union).evaluate(query.where))
        assert set(produced) == expected

    def test_no_duplicate_answers_across_replans(self):
        query = parse_query(BAD_ORDER_QUERY)
        pipeline = AdaptivePipeline(query.where, check_interval=1, replan_factor=1.1)
        produced, _ = self.feed_in_chunks(pipeline, skewed_dataset(), chunk=2)
        assert len(produced) == len(set(produced))

    def test_duplicate_rows_of_non_distinct_query_survive(self):
        """Two people named "Ann" are two answers, exactly as the oracle says."""
        query = parse_query(EX + "SELECT ?n WHERE { ?p ex:name ?n }")
        quads = [
            q(n("p1"), n("name"), Literal("Ann")),
            q(n("p2"), n("name"), Literal("Ann")),
        ]
        pipeline = AdaptivePipeline(query.where)
        produced, dataset = self.feed_in_chunks(pipeline, quads, chunk=1)
        produced += pipeline.finalize(dataset)
        expected = SnapshotEvaluator(dataset.union).evaluate(query.where)
        assert len(produced) == 2
        assert Counter(produced) == Counter(expected)

    def test_replay_keeps_the_answer_multiset(self):
        """A replan re-derives delivered answers: only the surplus is new."""
        query = parse_query(
            EX + "SELECT ?c WHERE { ?m ex:content ?c . ?m ex:creator ex:me }"
        )
        # The zero-knowledge plan leads with the constant-object pattern;
        # the data makes it the big one.
        quads = [q(n(f"m{index}"), n("creator"), n("me")) for index in range(40)] + [
            q(n(f"m{index}"), n("content"), Literal("same text")) for index in range(3)
        ]
        pipeline = AdaptivePipeline(query.where, check_interval=1, replan_factor=1.1)
        produced, dataset = self.feed_in_chunks(pipeline, quads, chunk=2)
        produced += pipeline.finalize(dataset)
        assert pipeline.replans >= 1
        expected = SnapshotEvaluator(dataset.union).evaluate(query.where)
        assert Counter(produced) == Counter(expected) == Counter({produced[0]: 3})

    def test_replan_counter_bounded(self):
        query = parse_query(BAD_ORDER_QUERY)
        pipeline = AdaptivePipeline(
            query.where, check_interval=1, replan_factor=1.01, max_replans=2
        )
        self.feed_in_chunks(pipeline, skewed_dataset(popular=200), chunk=2)
        assert pipeline.replans <= 2

    def test_no_replan_when_order_is_already_good(self):
        query = parse_query(
            EX + "SELECT ?m ?c WHERE { ?m ex:creator ex:me . ?m ex:content ?c }"
        )
        pipeline = AdaptivePipeline(query.where, check_interval=1)
        self.feed_in_chunks(pipeline, skewed_dataset(), chunk=4)
        assert pipeline.replans == 0


class TestEngineIntegration:
    def test_adaptive_engine_matches_default(self, tiny_universe):
        from repro.solidbench import discover_query

        query = discover_query(tiny_universe, 2, 1)
        default_engine = tiny_universe.fast_engine()
        default = default_engine.query(query.text, seeds=query.seeds).run_sync()

        adaptive_engine = tiny_universe.fast_engine(
            config=EngineConfig(traversal=TraversalPolicy(adaptive=True))
        )
        adaptive = adaptive_engine.query(query.text, seeds=query.seeds).run_sync()
        assert set(adaptive.bindings) == set(default.bindings)
        assert adaptive.stats.replans >= 0
        assert "replans" in adaptive.stats.summary()
