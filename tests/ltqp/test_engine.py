"""Unit/integration tests for the link-traversal engine."""

import asyncio
import gc
import weakref

import pytest

from repro.ltqp import (
    AllIriExtractor,
    Dereferencer,
    LinkTraversalEngine,
    TraversalPolicy,
    queue_factory_for,
)
from repro.net import HttpClient, Internet, NoLatency, StaticApp
from repro.rdf import Literal, NamedNode, RDF, SNVOC, Triple, Variable
from repro.solid import Pod, SolidServer

ORIGIN = "https://bench.example"
SNB = f"PREFIX snvoc: <{SNVOC.base}>\n"


def build_two_pod_world():
    """Pod 1: creator with posts; pod 2: a liker pointing into pod 1."""
    server = SolidServer(ORIGIN)

    pod1 = Pod(ORIGIN + "/pods/0001/", owner_name="Zulma")
    me1 = NamedNode(pod1.webid)
    for index, day in enumerate(["2010-10-12", "2011-11-21"]):
        message = NamedNode(f"{pod1.base_url}posts/{day}#post{index}")
        pod1.add_document(
            f"posts/{day}",
            [
                Triple(message, RDF.type, SNVOC.Post),
                Triple(message, SNVOC.hasCreator, me1),
                Triple(message, SNVOC.content, Literal(f"post {index}")),
            ],
        )
    pod1.build_profile()
    pod1.build_type_index([(SNVOC.Post, "posts/", True)])
    server.mount(pod1)

    pod2 = Pod(ORIGIN + "/pods/0002/", owner_name="Ana")
    liked = NamedNode(pod1.base_url + "posts/2010-10-12#post0")
    pod2.add_document("likes", [Triple(NamedNode(pod2.webid), SNVOC.likes, liked)])
    pod2.build_profile()
    server.mount(pod2)

    internet = Internet()
    internet.register(ORIGIN, server)
    return internet, pod1, pod2


@pytest.fixture()
def world():
    return build_two_pod_world()


def engine_for(internet, **kwargs):
    return LinkTraversalEngine(Dereferencer(HttpClient(internet, latency=NoLatency())), **kwargs)


class TestExecution:
    def test_streams_results_while_traversing(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query).run_sync()
        assert len(result) == 2
        assert result.stats.streaming
        assert result.stats.time_to_first_result is not None
        assert result.stats.time_to_first_result <= result.stats.total_time

    def test_query_based_seed_fallback(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query).run_sync()  # no explicit seeds
        assert result.seeds == [pod1.webid]
        assert len(result) == 2

    def test_explicit_seeds_override(self, world):
        internet, pod1, pod2 = world
        engine = engine_for(internet)
        query = SNB + "SELECT ?c WHERE { ?m snvoc:content ?c }"
        result = engine.query(query, seeds=[pod1.webid]).run_sync()
        assert result.seeds == [pod1.webid]
        assert len(result) == 2

    def test_stream_api_yields_incrementally(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"

        async def collect():
            seen = []
            async for binding in engine.query(query):
                seen.append(binding)
            return seen

        assert len(asyncio.run(collect())) == 2

    def test_cross_pod_traversal(self, world):
        internet, pod1, pod2 = world
        engine = engine_for(internet)
        query = SNB + (
            f"SELECT ?creator WHERE {{ <{pod2.webid}> snvoc:likes ?m . "
            "?m snvoc:hasCreator ?creator }"
        )
        result = engine.query(query).run_sync()
        assert [b[Variable("creator")].value for b in result.bindings] == [pod1.webid]
        fetched_origin_paths = {r.url for r in engine.client.log.records}
        assert any("/pods/0001/" in url for url in fetched_origin_paths)

    def test_limit_stops_traversal_early(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        unbounded = engine.query(
            SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        ).run_sync()
        engine2 = engine_for(internet)
        limited = engine2.query(
            SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }} LIMIT 1"
        ).run_sync()
        assert len(limited) == 1
        assert limited.stats.documents_fetched <= unbounded.stats.documents_fetched

    def test_non_monotonic_query_finalizes_at_quiescence(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + (
            f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }} ORDER BY ?c"
        )
        result = engine.query(query).run_sync()
        # The blocking OrderSlice operator holds output for the finalize
        # pass, so the plan does not stream — but it runs through the same
        # unified pipeline (no snapshot re-evaluation).
        assert not result.stats.streaming
        assert [b[Variable("c")].value for b in result.bindings] == ["post 0", "post 1"]

    def test_ask_query(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        result = engine.query(SNB + f"ASK {{ ?m snvoc:hasCreator <{pod1.webid}> }}").run_sync()
        assert len(result) == 1  # one empty binding = true

    def test_dead_seed_is_lenient(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query, seeds=["https://nowhere.example/x", pod1.webid]).run_sync()
        assert len(result) == 2
        assert result.stats.documents_failed >= 1

    def test_no_seeds_completes_empty(self, world):
        internet, _, _ = world
        engine = engine_for(internet)
        result = engine.query(SNB + "SELECT ?c WHERE { ?m snvoc:content ?c }", seeds=[]).run_sync()
        assert len(result) == 0


class TestConfiguration:
    def test_max_documents_bounds_traversal(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet, traversal=TraversalPolicy(max_documents=3))
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query).run_sync()
        assert result.stats.documents_fetched <= 3

    def test_max_depth_bounds_traversal(self, world):
        internet, pod1, _ = world
        shallow = engine_for(internet, traversal=TraversalPolicy(max_depth=1))
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = shallow.query(query).run_sync()
        assert len(result) == 0  # posts live at depth > 1

    def test_priority_queue_factory(self, world):
        internet, pod1, _ = world
        engine = engine_for(
            internet, traversal=TraversalPolicy(queue_policy="priority")
        )
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        assert len(engine.query(query).run_sync()) == 2

    def test_custom_extractors(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet, extractors=[AllIriExtractor()])
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query).run_sync()
        assert len(result) == 2
        assert set(result.stats.links_by_extractor) <= {"seed", "all-iris"}

    def test_stats_accounting(self, world):
        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        result = engine.query(query).run_sync()
        stats = result.stats
        assert stats.documents_fetched == len(engine.client.log.records) - stats.documents_failed
        assert stats.links_queued >= stats.documents_fetched
        assert stats.queue_samples
        assert stats.triples_discovered > 0
        summary = stats.summary()
        assert summary["results"] == 2


class TestServiceOrientedEngine:
    """The dereferencer the engine is handed + the per-execution traversal override."""

    def test_queue_policy_via_traversal_policy(self, world):
        internet, pod1, _ = world
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        for policy in ("fifo", "lifo", "priority"):
            engine = engine_for(internet, traversal=TraversalPolicy(queue_policy=policy))
            assert len(engine.query(query).run_sync()) == 2

    def test_registered_policy_is_the_queue_the_run_uses(self, world, monkeypatch):
        """``QUEUE_POLICIES`` is the one way to choose — and to add — a queue."""
        from repro.ltqp import QUEUE_POLICIES

        internet, pod1, _ = world
        made = []

        def factory(context):
            queue = queue_factory_for("priority")(context)
            made.append(queue)
            return queue

        monkeypatch.setitem(QUEUE_POLICIES, "recording", factory)
        engine = engine_for(
            internet, traversal=TraversalPolicy(queue_policy="recording")
        )
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        execution = engine.query(query).run_sync()
        assert len(execution) == 2
        (queue,) = made  # the registered factory built this run's queue
        assert execution.stats.links_queued == queue.pushed_total

    def test_injected_dereferencer_is_used(self, world):
        from repro.service import DocumentStore

        internet, pod1, _ = world
        client = HttpClient(internet, latency=NoLatency())
        store = DocumentStore()
        dereferencer = Dereferencer(client, document_store=store)
        engine = LinkTraversalEngine(dereferencer)
        assert engine.dereferencer is dereferencer
        assert engine.client is client
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        cold = engine.query(query).run_sync()
        warm = engine.query(query).run_sync()
        assert len(cold) == len(warm) == 2
        assert cold.stats.documents_from_store == 0
        assert warm.stats.documents_from_store == warm.stats.documents_fetched
        assert store.hits > 0

    def test_per_execution_traversal_override(self, world):
        from repro.ltqp.engine import TraversalPolicy

        internet, pod1, _ = world
        engine = engine_for(internet)
        query = SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"

        async def run(traversal):
            execution = engine.query(query, traversal=traversal)
            await execution.gather()
            return execution

        bounded = asyncio.run(run(TraversalPolicy(max_documents=2)))
        assert bounded.stats.documents_fetched <= 2
        # The engine's own policy is untouched: a plain run is unbounded.
        full = asyncio.run(run(None))
        assert full.stats.documents_fetched > 2


class TestExecutionFreesItsDataset:
    """A finished execution's dataset goes by reference counting alone: no
    reference cycle holds it until the next full collection."""

    @staticmethod
    def dataset_ref(engine, text, seeds):
        async def run():
            execution = engine.query(text, seeds=seeds)
            ref = None
            async for _ in execution:
                if ref is None:
                    ref = weakref.ref(execution.source.dataset)
            return execution, ref

        execution, ref = asyncio.run(run())
        assert ref is not None and len(execution) > 0
        return execution, ref

    @pytest.mark.parametrize("exists", [False, True])
    def test_dataset_is_dead_once_the_execution_is_dropped(self, tiny_universe, exists):
        from repro.solidbench import discover_query

        seeds = discover_query(tiny_universe, 6, 1).seeds
        where = f"?message snvoc:hasCreator <{seeds[0]}> ; snvoc:id ?messageId ."
        if exists:
            where += " FILTER EXISTS { ?forum snvoc:containerOf ?message ; snvoc:title ?t }"
        text = SNB + f"SELECT ?message WHERE {{ {where} }}"
        engine = tiny_universe.fast_engine()
        gc.collect()
        gc.disable()
        try:
            execution, ref = self.dataset_ref(engine, text, seeds)
            del execution
            assert ref() is None
        finally:
            gc.enable()
