"""Tests for engine traversal bounds and queue disciplines."""

import pytest

from repro.ltqp import (
    EngineConfig,
    QueuePolicyContext,
    TraversalPolicy,
    build_queue,
    queue_factory_for,
)
from repro.net import ConstantLatency, HttpClient, NoLatency
from repro.solidbench import discover_query


def make_engine(universe, latency=None, **config_kwargs):
    return universe.engine(
        config=EngineConfig(traversal=TraversalPolicy(**config_kwargs)),
        latency=latency if latency is not None else NoLatency(),
    )


class TestMaxResults:
    def test_stops_after_n_results(self, tiny_universe):
        query = discover_query(tiny_universe, 2, 1)
        bounded = make_engine(tiny_universe, max_results=5)
        result = bounded.query(query.text, seeds=query.seeds).run_sync()
        assert len(result) == 5

    def test_bounded_run_fetches_fewer_documents(self, tiny_universe):
        query = discover_query(tiny_universe, 2, 1)
        full = make_engine(tiny_universe).query(query.text, seeds=query.seeds).run_sync()
        bounded = make_engine(tiny_universe, max_results=3).query(
            query.text, seeds=query.seeds
        ).run_sync()
        assert bounded.stats.documents_fetched <= full.stats.documents_fetched

    def test_results_are_a_subset_of_full_answer(self, tiny_universe):
        query = discover_query(tiny_universe, 2, 1)
        full = make_engine(tiny_universe).query(query.text, seeds=query.seeds).run_sync()
        bounded = make_engine(tiny_universe, max_results=4).query(
            query.text, seeds=query.seeds
        ).run_sync()
        assert set(bounded.bindings) <= set(full.bindings)

    def test_limit_boundary_is_exact(self, tiny_universe):
        """The binding arriving exactly at the limit is counted, none past it.

        Regression test for the former double check in ``emit()``: the count
        was compared against the limit both before and after appending, so a
        binding landing exactly on the boundary could be double-handled.  Every
        cap must yield exactly ``min(cap, total)`` results.
        """
        query = discover_query(tiny_universe, 2, 1)
        full = make_engine(tiny_universe).query(query.text, seeds=query.seeds).run_sync()
        total = len(full)
        assert total >= 2
        for cap in (1, total - 1, total, total + 3):
            bounded = make_engine(tiny_universe, max_results=cap).query(
                query.text, seeds=query.seeds
            ).run_sync()
            assert len(bounded) == min(cap, total)
            assert bounded.stats.result_count == min(cap, total)


class TestMaxDocuments:
    def test_refused_document_is_neither_counted_nor_link_extracted(
        self, paper_tiny_universe, monkeypatch
    ):
        """Workers in flight when ``max_documents`` fills still deliver
        their documents; the bound turns those away *whole* — not ingested,
        not counted as fetched or from-store, and not mined for links.
        (The paper-shaped crawl: its root listing fans out wide enough to
        have eight fetches in flight when the fifth document lands.)"""
        import asyncio

        from repro.ltqp import QUEUE_POLICIES, LinkQueue
        from repro.net.cache import HttpCache
        from repro.obs import Tracer, trace_execution_stats
        from repro.service import QueryService, SharedResources

        pushed = []

        class RecordingQueue(LinkQueue):
            def push(self, link):
                pushed.append(link)
                return super().push(link)

        monkeypatch.setitem(QUEUE_POLICIES, "recording", lambda context: RecordingQueue())
        # Warm store + always-stale HTTP cache: every document is a 304
        # revalidation the workers await concurrently, then a store hit.
        resources = SharedResources.for_universe(
            paper_tiny_universe,
            latency=ConstantLatency(rtt_seconds=0.001),
            http_cache=HttpCache(default_max_age=0),
            config=EngineConfig(traversal=TraversalPolicy(queue_policy="recording")),
        )
        service = QueryService(resources)
        query = discover_query(paper_tiny_universe, 1, 5)
        tracer = Tracer()

        async def scenario():
            await service.run(query.text, seeds=query.seeds)  # fill the store
            pushed.clear()
            return await service.run(
                query.text, seeds=query.seeds, max_documents=5, tracer=tracer
            )

        stats = asyncio.run(scenario()).stats
        assert 0 < stats.documents_from_store <= stats.documents_fetched <= 5
        spans = [span for span in tracer.spans if span.name == "dereference"]
        refused = {s.args["url"] for s in spans if s.args["outcome"] == "over-bound"}
        assert refused, "scenario must overshoot: several workers in flight at the bound"
        assert not [link for link in pushed if link.parent_url in refused]
        derived = trace_execution_stats(tracer)
        assert derived["documents_fetched"] == stats.documents_fetched
        assert derived["documents_failed"] == stats.documents_failed == 0


class TestMaxDuration:
    def test_deadline_cuts_traversal_short(self, tiny_universe):
        query = discover_query(tiny_universe, 8, 1)  # multi-pod, many fetches
        slow = ConstantLatency(rtt_seconds=0.005)
        unbounded = make_engine(tiny_universe, latency=slow).query(
            query.text, seeds=query.seeds
        ).run_sync()
        deadline = make_engine(
            tiny_universe, latency=slow, max_duration=0.1
        ).query(query.text, seeds=query.seeds).run_sync()
        assert deadline.stats.documents_fetched < unbounded.stats.documents_fetched

    def test_partial_results_still_stream(self, tiny_universe):
        query = discover_query(tiny_universe, 2, 1)
        result = make_engine(
            tiny_universe, latency=ConstantLatency(rtt_seconds=0.003), max_duration=0.05
        ).query(query.text, seeds=query.seeds).run_sync()
        # Whatever was produced is valid (monotonic query).
        full = make_engine(tiny_universe).query(query.text, seeds=query.seeds).run_sync()
        assert set(result.bindings) <= set(full.bindings)


class TestBoundsAreReported:
    """A run cut short by ``max_documents`` / ``max_duration`` says so in
    ``completeness()``: one refusal of the bound's kind per link it left
    unfetched — attribution only, so ``complete`` keeps its meaning."""

    def test_document_bound_refuses_every_link_it_leaves(self, tiny_universe):
        query = discover_query(tiny_universe, 8, 1)
        full = make_engine(tiny_universe).query(query.text, seeds=query.seeds).run_sync()
        bounded = make_engine(tiny_universe, max_documents=20).query(
            query.text, seeds=query.seeds
        ).run_sync()
        stats = bounded.stats
        assert len(bounded) < len(full)
        report = stats.completeness()
        left = stats.links_queued - stats.documents_fetched
        assert left > 0
        assert report["refusals_by_kind"] == {"max-documents": left}
        assert sum(report["refusals_by_origin"].values()) == left
        assert report["documents_refused"] == 0 and report["complete"]

    def test_deadline_refuses_every_link_and_stops(self, tiny_universe):
        query = discover_query(tiny_universe, 8, 1)
        bounded = make_engine(tiny_universe, max_duration=1e-9).query(
            query.text, seeds=query.seeds
        ).run_sync()
        stats = bounded.stats
        assert len(bounded) == 0 and stats.documents_fetched == 0
        assert stats.completeness()["refusals_by_kind"] == {"max-duration": stats.links_queued}


class TestQueueDisciplines:
    def test_lifo_answers_match_fifo(self, tiny_universe):
        query = discover_query(tiny_universe, 1, 1)
        fifo = make_engine(tiny_universe, queue_policy="fifo").query(
            query.text, seeds=query.seeds
        ).run_sync()
        lifo = make_engine(tiny_universe, queue_policy="lifo").query(
            query.text, seeds=query.seeds
        ).run_sync()
        assert set(fifo.bindings) == set(lifo.bindings)
        assert fifo.stats.documents_fetched == lifo.stats.documents_fetched

    def test_lifo_pops_newest_first(self):
        from repro.ltqp import Link

        queue = build_queue(queue_factory_for("lifo"), QueuePolicyContext())
        queue.push(Link("https://h/a"))
        queue.push(Link("https://h/b"))
        assert queue.pop().url == "https://h/b"
        queue.push(Link("https://h/c"))
        assert queue.pop().url == "https://h/c"
        assert queue.pop().url == "https://h/a"

    def test_lifo_deduplicates_like_any_queue(self):
        from repro.ltqp import Link

        queue = build_queue(queue_factory_for("lifo"), QueuePolicyContext())
        assert queue.push(Link("https://h/a"))
        assert not queue.push(Link("https://h/a#frag"))
