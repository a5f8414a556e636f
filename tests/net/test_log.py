"""Unit tests for the request log, and for the footer built beside it.

Every HTTP attempt the client makes is one log record and, when traced,
one ``attempt`` span with the same timestamps.  The waterfall footer
(``--stats``) is built from the trace, so these tests check that the
footer's numbers are the ones the log's records hold.
"""

import asyncio
from collections import Counter

import pytest

from repro.bench.waterfall import build_waterfall
from repro.net import FunctionApp, HttpClient, Internet, NoLatency, Response
from repro.net.latency import ConstantLatency
from repro.net.log import RequestLog
from repro.net.message import split_url
from repro.obs import Tracer


def fill(log: RequestLog):
    # seed at t0..t1; two children overlap; one grandchild.
    log.record("GET", "https://h/seed", 200, 0.0, 1.0, 100, parent_url=None)
    log.record("GET", "https://h/a", 200, 1.0, 2.5, 200, parent_url="https://h/seed")
    log.record("GET", "https://h/b", 404, 1.2, 2.0, 50, parent_url="https://h/seed")
    log.record("GET", "https://x/c", 200, 2.5, 3.0, 300, parent_url="https://h/a")
    return log


#: path -> (status, body size) on each of the two origins ``traced`` serves.
RESOURCES = {
    "https://h": {"/seed": (200, 100), "/a": (200, 200), "/b": (404, 50)},
    "https://x": {"/c": (200, 300)},
}


def traced():
    """The four exchanges of ``fill``, fetched for real by a traced client:
    the seed, then /a and /b side by side, then /c (found in /a).
    Returns the client's log and the waterfall built from the trace."""

    def serve(table):
        def handler(request):
            status, size = table[request.path]
            return Response(status, {"content-type": "text/turtle"}, b"x" * size)

        return FunctionApp(handler)

    internet = Internet()
    for origin, table in RESOURCES.items():
        internet.register(origin, serve(table))
    client = HttpClient(internet, latency=ConstantLatency(rtt_seconds=0.01))
    tracer = Tracer()

    async def crawl():
        await client.fetch("https://h/seed", tracer=tracer)
        await asyncio.gather(
            client.fetch("https://h/a", parent_url="https://h/seed", tracer=tracer),
            client.fetch("https://h/b", parent_url="https://h/seed", tracer=tracer),
        )
        await client.fetch("https://x/c", parent_url="https://h/a", tracer=tracer)

    asyncio.run(crawl())
    return client.log, build_waterfall(tracer)


def chain_depths(log: RequestLog) -> dict[str, int]:
    """Each URL's distance from a seed, following the log's parent URLs."""
    parents = {}
    for record in log.records:
        parents.setdefault(record.url, record.parent_url)

    def depth_of(url):
        parent = parents.get(url)
        return 0 if parent is None else depth_of(parent) + 1

    return {url: depth_of(url) for url in parents}


@pytest.fixture(scope="module")
def engine_run():
    """A small Discover query's log and the waterfall of its trace."""
    from repro.solidbench import SolidBenchConfig, build_universe, discover_query

    universe = build_universe(SolidBenchConfig(scale=0.005, seed=42))
    named = discover_query(universe, 8, 1)
    tracer = Tracer()
    engine = universe.engine(latency=NoLatency())
    engine.query(named.text, seeds=named.seeds, tracer=tracer).run_sync()
    return engine.client.log, build_waterfall(tracer)


class TestRequestLog:
    def test_sequences_are_monotonic(self):
        log = fill(RequestLog())
        assert [r.sequence for r in log.records] == [1, 2, 3, 4]

    def test_total_bytes(self):
        log, waterfall = traced()
        assert sum(r.response_size for r in log.records) == 650
        assert waterfall.total_bytes == 650

    def test_count_by_status(self):
        log, waterfall = traced()
        assert Counter(r.status for r in log.records) == {200: 3, 404: 1}
        assert Counter(row.status for row in waterfall.rows) == {200: 3, 404: 1}

    def test_origins(self):
        log, waterfall = traced()
        assert {split_url(r.url)[0] for r in log.records} == {"https://h", "https://x"}
        assert waterfall.origins == 2

    def test_dependency_depths(self, engine_run):
        # The footer's depth is the engine's link depth; it is the length
        # of the discovered-from chain the log records.
        log, waterfall = engine_run
        depths = chain_depths(log)
        assert {row.url: row.depth for row in waterfall.rows} == depths
        assert min(depths.values()) == 0

    def test_max_depth(self, engine_run):
        log, waterfall = engine_run
        assert waterfall.max_depth == max(chain_depths(log).values()) > 1

    def test_max_parallelism(self):
        # /a and /b are in flight together; log and trace share timestamps.
        log, waterfall = traced()
        assert waterfall.max_parallelism == 2
        t0 = log.records[0].started_at
        logged = sorted((r.started_at - t0, r.finished_at - t0) for r in log.records)
        drawn = sorted((row.start, row.end) for row in waterfall.rows)
        assert logged == pytest.approx(drawn)

    def test_clear(self):
        log = fill(RequestLog())
        log.clear()
        assert len(log) == 0
        assert log.record("GET", "u", 200, 0, 1, 0).sequence == 1
