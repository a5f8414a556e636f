"""Unit tests for client-side HTTP caching (the Fig. 4 disk-cache layer)."""

import asyncio
import time

from repro.net import (
    FunctionApp,
    HttpCache,
    HttpClient,
    Internet,
    NoLatency,
    Request,
    Response,
)
from repro.net.cache import CacheEntry


def run(coro):
    return asyncio.run(coro)


class CountingApp(FunctionApp):
    """Serves a fixed body with ETag support and counts real hits."""

    def __init__(
        self, body: bytes = b"data", max_age: str = "", cache_control: str = ""
    ) -> None:
        self.served = 0
        self.revalidated = 0
        app = self

        def handler(request: Request) -> Response:
            etag = '"v1"'
            if request.header("if-none-match") == etag:
                app.revalidated += 1
                return Response(304, {"etag": etag})
            app.served += 1
            headers = {"content-type": "text/turtle", "etag": etag}
            if cache_control:
                headers["cache-control"] = cache_control
            elif max_age:
                headers["cache-control"] = f"max-age={max_age}"
            return Response(200, headers, body)

        super().__init__(handler)


def make_client(app, cache):
    internet = Internet()
    internet.register("https://h", app)
    return HttpClient(internet, latency=NoLatency(), cache=cache)


class TestCacheEntry:
    def test_freshness_window(self):
        entry = CacheEntry(Response(200), etag="x", stored_at=time.monotonic(), max_age=60)
        assert entry.is_fresh()
        entry.max_age = 0
        assert not entry.is_fresh()

    def test_renew_restores_freshness(self):
        entry = CacheEntry(Response(200), etag="x", stored_at=0.0, max_age=1)
        assert not entry.is_fresh(now=100.0)
        entry.renew(now=100.0)
        assert entry.is_fresh(now=100.5)


class TestHttpCacheStore:
    def test_only_200_cached(self):
        cache = HttpCache()
        assert cache.store("https://h/x", Response(404)) is None
        assert cache.store("https://h/x", Response(200, {}, b"ok")) is not None
        assert len(cache) == 1

    def test_no_store_directive_respected(self):
        cache = HttpCache()
        response = Response(200, {"cache-control": "no-store"}, b"secret")
        assert cache.store("https://h/x", response) is None

    def test_max_age_parsed(self):
        cache = HttpCache(default_max_age=999)
        entry = cache.store("https://h/x", Response(200, {"cache-control": "max-age=5"}, b""))
        assert entry.max_age == 5

    def test_entry_bound_evicts_oldest(self):
        cache = HttpCache(max_entries=2)
        cache.store("https://h/1", Response(200, {}, b"a"))
        cache.store("https://h/2", Response(200, {}, b"b"))
        cache.store("https://h/3", Response(200, {}, b"c"))
        assert len(cache) == 2
        assert cache.lookup("https://h/1") is None


class TestClientIntegration:
    def test_fresh_hit_skips_network(self):
        app = CountingApp()
        cache = HttpCache(default_max_age=300)
        client = make_client(app, cache)
        first = run(client.fetch("https://h/doc"))
        second = run(client.fetch("https://h/doc"))
        assert first.body == second.body == b"data"
        assert app.served == 1  # second served locally
        assert cache.hits == 1
        assert client.log.records[1].from_cache

    def test_stale_entry_revalidates_with_304(self):
        app = CountingApp()
        cache = HttpCache(default_max_age=0)  # always stale
        client = make_client(app, cache)
        run(client.fetch("https://h/doc"))
        second = run(client.fetch("https://h/doc"))
        assert second.status == 200 and second.body == b"data"
        assert app.served == 1 and app.revalidated == 1
        assert cache.revalidations == 1
        assert client.log.records[1].from_cache

    def test_cacheless_client_unaffected(self):
        app = CountingApp()
        client = make_client(app, cache=None)
        run(client.fetch("https://h/doc"))
        run(client.fetch("https://h/doc"))
        assert app.served == 2

    def test_statistics(self):
        app = CountingApp()
        cache = HttpCache(default_max_age=300)
        client = make_client(app, cache)
        run(client.fetch("https://h/doc"))
        run(client.fetch("https://h/doc"))
        stats = cache.statistics()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["revalidations"] == 0
        assert stats["hit_rate"] == 0.5
        # The shared storage-tier discipline reports its own block.
        assert stats["storage"]["memory_entries"] == 1
        assert stats["storage"]["persistent"] is False

    def test_clear(self):
        cache = HttpCache()
        cache.store("https://h/x", Response(200, {}, b""))
        cache.hits = 3
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0


class TestNoCacheDirective:
    """``Cache-Control: no-cache`` — store, but revalidate on every reuse."""

    def test_no_cache_stored_but_never_fresh(self):
        cache = HttpCache(default_max_age=300)
        entry = cache.store(
            "https://h/x", Response(200, {"cache-control": "no-cache"}, b"x")
        )
        assert entry is not None and len(cache) == 1
        assert entry.max_age == 0.0
        assert not entry.is_fresh()

    def test_no_cache_overrides_max_age(self):
        cache = HttpCache(default_max_age=300)
        entry = cache.store(
            "https://h/x",
            Response(200, {"cache-control": "no-cache, max-age=600"}, b"x"),
        )
        assert entry is not None and entry.max_age == 0.0

    def test_no_store_still_wins(self):
        cache = HttpCache()
        response = Response(200, {"cache-control": "no-store, no-cache"}, b"x")
        assert cache.store("https://h/x", response) is None

    def test_every_reuse_revalidates(self):
        app = CountingApp(cache_control="no-cache")
        cache = HttpCache(default_max_age=300)
        client = make_client(app, cache)
        bodies = [run(client.fetch("https://h/doc")).body for _ in range(3)]
        assert bodies == [b"data"] * 3
        assert app.served == 1  # body transferred exactly once
        assert app.revalidated == 2  # every reuse hit the validator
        assert cache.hits == 0 and cache.revalidations == 2


class TestRenewalThroughTrace:
    """304 renewal observed via the tracer's attempt spans."""

    def _traced_client(self, app, cache):
        from repro.obs import TickClock, Tracer

        client = make_client(app, cache)
        tracer = Tracer(clock=TickClock(step=0.001))
        client.tracer = tracer
        return client, tracer

    def test_304_renewal_recorded_as_revalidated_attempt(self):
        from repro.obs import check_trace_invariants

        app = CountingApp(cache_control="no-cache")
        cache = HttpCache(default_max_age=300)
        client, tracer = self._traced_client(app, cache)
        run(client.fetch("https://h/doc"))
        stored_at_before = cache.lookup("https://h/doc").stored_at
        second = run(client.fetch("https://h/doc"))

        assert second.status == 200 and second.body == b"data"
        attempts = [s for s in tracer.spans if s.name == "attempt"]
        assert len(attempts) == 2
        first_attempt, reval_attempt = attempts
        assert not first_attempt.args.get("revalidated")
        assert not first_attempt.args.get("from_cache")
        # The conditional GET went to the network (a real attempt with
        # duration), came back 304, and was served from the cached body.
        assert reval_attempt.args["revalidated"] is True
        assert reval_attempt.args["from_cache"] is True
        assert reval_attempt.args["status"] == 200
        assert reval_attempt.end > reval_attempt.start
        # The 304 renewed the entry's clock.
        assert cache.lookup("https://h/doc").stored_at != stored_at_before
        assert check_trace_invariants(tracer) == []

    def test_fresh_hit_recorded_as_zero_duration_cache_attempt(self):
        app = CountingApp()
        cache = HttpCache(default_max_age=300)
        client, tracer = self._traced_client(app, cache)
        run(client.fetch("https://h/doc"))
        run(client.fetch("https://h/doc"))
        attempts = [s for s in tracer.spans if s.name == "attempt"]
        assert len(attempts) == 2
        hit = attempts[1]
        assert hit.args["from_cache"] is True
        assert not hit.args.get("revalidated")  # never touched the network
        assert hit.end == hit.start  # served instantaneously
        assert app.served == 1


class TestSolidServerEtags:
    def test_server_emits_etag_and_304(self, tiny_universe):
        cache = HttpCache(default_max_age=0)  # force revalidation
        client = HttpClient(tiny_universe.internet, latency=NoLatency(), cache=cache)
        url = tiny_universe.webid(0)
        first = run(client.fetch(url))
        assert first.header("etag")
        second = run(client.fetch(url))
        assert second.body == first.body
        assert cache.revalidations == 1

    def test_repeated_query_execution_hits_cache(self, tiny_universe):
        from repro.ltqp import Dereferencer, LinkTraversalEngine
        from repro.solidbench import discover_query

        cache = HttpCache(default_max_age=300)
        client = HttpClient(tiny_universe.internet, latency=NoLatency(), cache=cache)
        engine = LinkTraversalEngine(Dereferencer(client))
        query = discover_query(tiny_universe, 1, 1)

        first = engine.query(query.text, seeds=query.seeds).run_sync()
        hits_before = cache.hits
        second = engine.query(query.text, seeds=query.seeds).run_sync()
        assert set(first.bindings) == set(second.bindings)
        assert cache.hits > hits_before  # the rerun was answered from cache
