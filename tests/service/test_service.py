"""Tests for the long-lived QueryService and its shared resources."""

import asyncio

import pytest

from repro.ltqp.engine import EngineConfig, TraversalPolicy
from repro.net import HttpClient, Internet, NoLatency, StaticApp
from repro.service import (
    QueryService,
    ServiceHost,
    ServiceOverloadedError,
    SharedResources,
)
from repro.solidbench import discover_query


def make_service(universe, config=None, **kwargs):
    resources = SharedResources.for_universe(universe, latency=NoLatency(), config=config)
    return QueryService(resources, **kwargs)


def bindings_of(result):
    return sorted(repr(timed.binding) for timed in result.results)


class TestWarmRuns:
    def test_warm_run_identical_and_parse_free(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            cold = await service.run(named.text, seeds=named.seeds)
            parses_after_cold = service.resources.document_store.parses
            warm = await service.run(named.text, seeds=named.seeds)
            return cold, parses_after_cold, warm

        cold, parses_after_cold, warm = asyncio.run(scenario())
        # Byte-identical result multisets…
        assert bindings_of(cold) == bindings_of(warm)
        assert bindings_of(cold)
        # …with every document served from the parsed-document store:
        assert warm.stats.documents_from_store == warm.stats.documents_fetched
        assert cold.stats.documents_from_store == 0
        # zero re-parses on the warm run.
        assert service.resources.document_store.parses == parses_after_cold

    def test_caches_shared_across_distinct_queries(self, tiny_universe):
        service = make_service(tiny_universe)
        # Both Discover 1 and Discover 2 traverse the same person's pod,
        # so the second query reuses the first one's parses.
        first = discover_query(tiny_universe, 1, 5)
        second = discover_query(tiny_universe, 2, 5, person_index=first.person_index)

        async def scenario():
            await service.run(first.text, seeds=first.seeds)
            return await service.run(second.text, seeds=second.seeds)

        result = asyncio.run(scenario())
        assert result.stats.documents_from_store > 0


class TestAdmissionControl:
    def test_overload_rejected_with_503_semantics(self, tiny_universe):
        service = make_service(tiny_universe, max_concurrent=1, max_queued=1)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            first = service.submit(named.text, seeds=named.seeds)
            second = service.submit(named.text, seeds=named.seeds)
            with pytest.raises(ServiceOverloadedError):
                service.submit(named.text, seeds=named.seeds)
            assert service.rejected == 1
            await asyncio.gather(first.wait(), second.wait())
            # Capacity freed: submissions are accepted again.
            await service.run(named.text, seeds=named.seeds)

        asyncio.run(scenario())
        assert service.accepted == 3 and service.completed == 3

    def test_concurrent_queries_all_complete(self, tiny_universe):
        service = make_service(tiny_universe, max_concurrent=4)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            handles = [service.submit(named.text, seeds=named.seeds) for _ in range(6)]
            assert service.queued_count + service.active_count == 6
            return await asyncio.gather(*(h.wait() for h in handles))

        results = asyncio.run(scenario())
        expected = bindings_of(results[0])
        assert expected
        assert all(bindings_of(r) == expected for r in results)
        assert service.completed == 6


class TestCancellation:
    def test_cancel_running_query(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            handle = service.submit(named.text, seeds=named.seeds)
            await asyncio.sleep(0.005)
            await handle.cancel()
            return handle

        handle = asyncio.run(scenario())
        assert handle.status == "cancelled"
        assert service.cancelled == 1 and service.active_count == 0

    def test_cancel_queued_query_never_runs(self, tiny_universe):
        service = make_service(tiny_universe, max_concurrent=1, max_queued=2)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            first = service.submit(named.text, seeds=named.seeds)
            queued = service.submit(named.text, seeds=named.seeds)
            await asyncio.sleep(0)
            await queued.cancel()
            await first.wait()
            return queued

        queued = asyncio.run(scenario())
        assert queued.status == "cancelled"
        assert queued.execution is None  # never left the admission queue
        assert service.queued_count == 0

    def test_wait_after_cancel_is_safe(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            handle = service.submit(named.text, seeds=named.seeds)
            await asyncio.sleep(0.005)
            await handle.cancel()
            return await handle.wait()

        result = asyncio.run(scenario())
        assert result.stats is not None


class TestBudgetsAndRegistry:
    def test_per_query_document_budget(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            bounded = await service.run(named.text, seeds=named.seeds, max_documents=3)
            unbounded = await service.run(named.text, seeds=named.seeds)
            return bounded, unbounded

        bounded, unbounded = asyncio.run(scenario())
        assert bounded.stats.documents_fetched <= 3
        assert unbounded.stats.documents_fetched > bounded.stats.documents_fetched

    def test_service_default_budget(self, tiny_universe):
        service = make_service(
            tiny_universe, config=EngineConfig(traversal=TraversalPolicy(max_documents=2))
        )
        named = discover_query(tiny_universe, 1, 5)
        result = asyncio.run(service.run(named.text, seeds=named.seeds))
        assert result.stats.documents_fetched <= 2

    def test_registry_snapshots(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            handle = service.submit(named.text, seeds=named.seeds)
            await handle.wait()
            return handle

        handle = asyncio.run(scenario())
        assert service.get(handle.id) is handle
        snapshot = handle.snapshot()
        assert snapshot["id"] == handle.id
        assert snapshot["status"] == "done"
        assert snapshot["results"] > 0
        assert snapshot["documents_fetched"] > 0
        assert snapshot["error"] is None

    def test_failed_query_is_reported(self, tiny_universe):
        # Strict mode turns a parse failure into a query error; the
        # registry must report it rather than swallow it.
        resources = SharedResources.for_universe(
            tiny_universe, latency=NoLatency(), lenient=False
        )
        service = QueryService(resources)
        query = "SELECT ?o WHERE { <https://nowhere.invalid/x> <https://p/p> ?o }"

        async def scenario():
            handle = service.submit(query, seeds=["https://nowhere.invalid/x"])
            with pytest.raises(Exception):
                await handle.wait()
            return handle

        handle = asyncio.run(scenario())
        assert handle.status == "failed"
        assert service.failed == 1

    def test_statistics_and_gauges(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)
        asyncio.run(service.run(named.text, seeds=named.seeds))
        asyncio.run(service.run(named.text, seeds=named.seeds))
        stats = service.statistics()
        assert stats["completed"] == stats["accepted"] == 2
        assert (stats["active"], stats["queued"]) == (0, 0)
        assert stats["document_store"]["hits"] > 0
        assert stats["document_store"]["hit_rate"] > 0


class TestRegistryRetention:
    def test_finished_queries_age_out_but_their_shutdown_errors_do_not(
        self, tiny_universe
    ):
        """A long-lived service keeps in-flight handles plus a bounded
        window of finished ones — not every answer it ever gave."""
        import gc
        import weakref

        from repro.service.service import FINISHED_WINDOW

        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        def submit():
            # One warm document per query keeps 300 of them cheap.
            return service.submit(named.text, seeds=named.seeds, max_documents=1)

        async def scenario():
            early = submit()
            await early.wait()
            early.execution.stats.note_shutdown_error("traversal", RuntimeError("late"))
            tagged = f"{early.id}: traversal: RuntimeError: late"
            assert service.shutdown_errors() == [tagged]
            # ExecutionResult is slotted (no weakrefs); the execution that
            # owns it is what the registry pinned.
            probe = weakref.ref(early.execution)
            early_id = early.id
            del early
            for _ in range(FINISHED_WINDOW + 49):
                await submit().wait()
            straggler = submit()
            assert not straggler.done
            assert len(service.inflight()) == 1
            assert len(service.queries()) <= FINISHED_WINDOW + 1
            await straggler.wait()
            return probe, early_id, tagged

        probe, early_id, tagged = asyncio.run(scenario())
        gc.collect()
        assert probe() is None
        assert service.get(early_id) is None
        assert len(service.queries()) == FINISHED_WINDOW
        assert service.completed == FINISHED_WINDOW + 51
        # Nothing an operator must see left with the handle.
        assert service.shutdown_errors() == [tagged]
        assert service.statistics()["shutdown_errors"] == [tagged]


class TestInvalidation:
    def test_changed_document_is_reparsed(self):
        internet = Internet()
        app = StaticApp()
        app.put("/doc", '<https://h/doc#s> <https://h/p> "one" .')
        internet.register("https://h", app)
        resources = SharedResources(internet, latency=NoLatency())
        service = QueryService(resources)
        query = "SELECT ?o WHERE { <https://h/doc#s> <https://h/p> ?o }"

        async def run():
            return await service.run(query, seeds=["https://h/doc"])

        first = asyncio.run(run())
        assert [t.binding for t in first.results][0] is not None
        # The document changes upstream: new body → new validator → the
        # store drops its entry and the new content is parsed.
        app.put("/doc", '<https://h/doc#s> <https://h/p> "two" .')
        resources.http_cache.clear()
        second = asyncio.run(run())
        assert "two" in repr(second.results[0].binding)
        assert resources.document_store.invalidations == 1
        assert resources.document_store.parses == 2


class TestServiceHost:
    def test_blocking_facade_from_sync_code(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)
        with ServiceHost(service) as host:
            first = host.execute(named.text, seeds=named.seeds, timeout=60)
            second = host.execute(named.text, seeds=named.seeds, timeout=60)
            assert bindings_of(first) == bindings_of(second)
            assert host.statistics()["completed"] == 2
        # Restartable after stop().
        host = ServiceHost(service).start()
        try:
            assert host.execute(named.text, seeds=named.seeds, timeout=60).results
        finally:
            host.stop()


class TestEngineSharing:
    def test_service_does_not_reset_shared_breakers(self, tiny_universe):
        resources = SharedResources.for_universe(tiny_universe, latency=NoLatency())
        # Building a service must not install a fresh policy on the shared
        # client (which would reset circuit-breaker history).
        policy_before, breakers_before = resources.client.policy, resources.client.breakers
        QueryService(resources)
        assert resources.client.policy is policy_before
        assert resources.client.breakers is breakers_before


class TestNoBleedBetweenQueries:
    """A query's ``completeness()`` is about that query: retries the shared
    client spends on a neighbour's flaky pod are the neighbour's."""

    def _run(self, universe, persons):
        """Discover 1 for each of ``persons`` at once, over one service
        whose first person's pod answers every URL's first request 503."""
        from repro.net import ConstantLatency
        from repro.net.faults import FaultPlan, FaultRule

        flaky_pod = universe.pods[0].base_url
        universe.internet.install_fault_plan(
            FaultPlan([FaultRule(kind="status", url_pattern=flaky_pod, fail_attempts=1)])
        )
        try:
            resources = SharedResources.for_universe(
                universe, latency=ConstantLatency(rtt_seconds=0.001)
            )
            service = QueryService(resources, max_concurrent=len(persons))
            queries = [discover_query(universe, 1, 5, person_index=p) for p in persons]

            async def scenario():
                handles = [service.submit(q.text, seeds=q.seeds) for q in queries]
                return await asyncio.gather(*(h.wait() for h in handles))

            return asyncio.run(scenario())
        finally:
            universe.internet.install_fault_plan(None)

    def test_healthy_pod_query_reports_no_foreign_retries(self, tiny_universe):
        (alone,) = self._run(tiny_universe, [1])
        faulted, beside = self._run(tiny_universe, [0, 1])
        assert faulted.stats.http_retries > 0  # the fault did fire, next door
        assert alone.stats.completeness()["http_retries"] == 0
        assert beside.stats.completeness() == alone.stats.completeness()
        assert bindings_of(beside) == bindings_of(alone)


class TestShutdownErrorSurfacing:
    """Teardown exceptions must not fail queries — but they must not be
    silently swallowed either: they surface query-tagged in
    ``statistics()`` and in the ``/service/status`` document."""

    def test_query_shutdown_errors_surface_in_statistics(self, tiny_universe):
        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            handle = service.submit(named.text, seeds=named.seeds)
            await handle.wait()
            return handle

        handle = asyncio.run(scenario())
        assert service.statistics()["shutdown_errors"] == []
        handle.execution.stats.note_shutdown_error(
            "traversal", RuntimeError("cancel timed out")
        )
        errors = service.statistics()["shutdown_errors"]
        assert errors == [f"{handle.id}: traversal: RuntimeError: cancel timed out"]

    def test_subscription_shutdown_errors_surface_too(self, tiny_universe):
        from repro.service import ServiceSparqlApp
        from repro.net.message import Request

        service = make_service(tiny_universe)
        named = discover_query(tiny_universe, 1, 5)

        async def scenario():
            subscription = await service.subscribe(named.text, seeds=named.seeds)
            subscription.live.execution.stats.note_shutdown_error(
                "traversal", OSError("disk gone")
            )
            assert service.shutdown_errors() == [
                f"{subscription.id}: traversal: OSError: disk gone"
            ]
            # ...and through the status document (schema 2).
            app = ServiceSparqlApp(service)
            response = await app.handle(Request("GET", "http://svc/service/status"))
            import json

            document = json.loads(response.body)
            assert document["service"]["shutdown_errors"] == [
                f"{subscription.id}: traversal: OSError: disk gone"
            ]
            await subscription.close()

        asyncio.run(scenario())
