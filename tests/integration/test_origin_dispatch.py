"""The worker pool is bounded by origin slots, not by a fixed count.

A worker takes the best queued link whose origin has a free connection
slot; links popped for a full origin wait per origin, and the pool grows
while a dispatchable link finds every worker busy.  So a slow origin never
holds up another origin's links, and the client's per-origin cap — read
from the client, never mirrored — holds over every execution sharing it.
"""

from __future__ import annotations

import asyncio

from repro.ltqp import Dereferencer, LinkTraversalEngine, TraversalPolicy
from repro.ltqp.extractors import LinkExtractor
from repro.ltqp.links import origin_of
from repro.net import FunctionApp, HttpClient, Internet, NoLatency, Response, SeededJitterLatency
from repro.net import StaticApp
from repro.rdf import NamedNode
from repro.service import QueryService, SharedResources
from repro.solidbench import discover_query

LINKS = NamedNode("https://vocab.example/links")
QUERY = "SELECT ?o WHERE { ?s <https://vocab.example/name> ?o }"
FAST, SLOW = "https://fast.example", "https://slow.example"
SLOW_LINKS = 24


class FollowLinks(LinkExtractor):
    """Objects of ``LINKS``, in document order — and nothing else."""

    name = "links"

    def reads(self, context):
        return (LINKS,)

    def discover(self, document_url, document, context):
        for triple in document.select((LINKS,)):
            yield triple.object.value, None


def two_origin_world(delay: float) -> Internet:
    """A seed on the fast origin listing ``SLOW_LINKS`` slow documents, then
    one fast one: under fifo every slow link is popped before the fast."""

    async def slow(request):
        await asyncio.sleep(delay)
        return Response(200, {"content-type": "text/turtle"}, b"")

    fast = StaticApp()
    targets = [f"{SLOW}/{i}" for i in range(SLOW_LINKS)] + [f"{FAST}/leaf"]
    fast.put("/seed", "".join(f"<#me> <{LINKS.value}> <{url}> .\n" for url in targets))
    fast.put("/leaf", "")
    internet = Internet()
    internet.register(FAST, fast)
    internet.register(SLOW, FunctionApp(slow))
    return internet


def peak_overlap(records, origin: str) -> int:
    """Most requests to ``origin`` on the wire at one instant, from the log."""
    events = sorted(
        (time, kind)
        for record in records
        if record.url.startswith(origin + "/") and not record.from_cache
        for time, kind in ((record.started_at, 1), (record.finished_at, -1))
    )
    now = peak = 0
    for _, kind in events:  # at equal times a release sorts before an acquire
        now += kind
        peak = max(peak, now)
    return peak


class TestAFullOriginHoldsUpNobodyElse:
    def test_a_free_origins_link_starts_before_the_saturated_origins_seventh_completes(self):
        client = HttpClient(two_origin_world(delay=0.05), latency=NoLatency())
        engine = LinkTraversalEngine(Dereferencer(client), extractors=[FollowLinks()])
        execution = engine.query(QUERY, seeds=[f"{FAST}/seed"]).run_sync()
        assert execution.stats.documents_fetched == SLOW_LINKS + 2
        records = client.log.records
        (leaf,) = [record for record in records if record.url == f"{FAST}/leaf"]
        slow_done = sorted(record.finished_at for record in records if record.url.startswith(SLOW))
        assert len(slow_done) == SLOW_LINKS
        assert leaf.started_at < slow_done[client.origin_slots]
        # Six at a time on the slow origin: the cap, and no less.
        assert peak_overlap(records, SLOW) == client.origin_slots

    def test_one_worker_is_still_serial(self):
        client = HttpClient(two_origin_world(delay=0.001), latency=NoLatency())
        engine = LinkTraversalEngine(
            Dereferencer(client), extractors=[FollowLinks()],
            traversal=TraversalPolicy(worker_count=1),
        )
        engine.query(QUERY, seeds=[f"{FAST}/seed"]).run_sync()
        assert peak_overlap(client.log.records, SLOW) == 1
        assert [record.url for record in client.log.records][-1] == f"{FAST}/leaf"


class TestTheClientsCapHoldsEverywhere:
    def test_two_service_executions_sharing_one_client_stay_within_it(self, tiny_universe):
        resources = SharedResources.for_universe(
            tiny_universe,
            latency=SeededJitterLatency(seed=9, min_rtt_seconds=0.002, max_rtt_seconds=0.008),
        )
        service = QueryService(resources, max_concurrent=2)
        queries = [discover_query(tiny_universe, template, 1) for template in (2, 8)]

        async def both():
            handles = [service.submit(query.text, seeds=query.seeds) for query in queries]
            return await asyncio.gather(*(handle.wait() for handle in handles))

        results = asyncio.run(both())
        assert all(len(result.bindings) > 0 for result in results)
        client = resources.client
        origins = {origin_of(record.url) for record in client.log.records}
        peaks = {origin: peak_overlap(client.log.records, origin) for origin in origins}
        assert max(peaks.values()) == client.origin_slots, peaks
        assert all(client.in_flight(origin) == 0 for origin in origins)

    def test_an_execution_whose_origin_another_one_fills_still_finishes(self):
        """Every slot of the slow origin is the other execution's, and this
        one has nothing in flight to wake it: it waits in the client."""
        internet = two_origin_world(delay=0.05)
        fast = internet.app_for(FAST)
        for name, targets in (("first", range(6)), ("second", range(6, 9))):
            fast.put(f"/{name}", "".join(
                f"<#me> <{LINKS.value}> <{SLOW}/{i}> .\n" for i in targets
            ))
        client = HttpClient(internet, latency=NoLatency())
        engine = LinkTraversalEngine(Dereferencer(client), extractors=[FollowLinks()])

        async def both():
            first = asyncio.ensure_future(engine.query(QUERY, seeds=[f"{FAST}/first"]).gather())
            while client.in_flight(SLOW) < client.origin_slots:
                await asyncio.sleep(0.001)
            second = await asyncio.wait_for(
                engine.query(QUERY, seeds=[f"{FAST}/second"]).gather(), timeout=5
            )
            return await first, second

        first, second = asyncio.run(both())
        assert first.stats.documents_fetched == 7 and second.stats.documents_fetched == 4
        assert peak_overlap(client.log.records, SLOW) == client.origin_slots

    def test_an_engine_runs_again_on_a_new_event_loop(self, tiny_universe):
        """``run_sync`` is one ``asyncio.run`` per call; the client's slot
        table must not bind to the first loop that contended on it."""
        query = discover_query(tiny_universe, 2, 1)
        engine = tiny_universe.engine(
            latency=SeededJitterLatency(seed=9, min_rtt_seconds=0.002, max_rtt_seconds=0.008)
        )
        answers = [
            sorted(map(repr, engine.query(query.text, seeds=query.seeds).run_sync().bindings))
            for _ in range(3)
        ]
        assert answers[0] and answers[0] == answers[1] == answers[2]
