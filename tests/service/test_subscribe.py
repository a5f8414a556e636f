"""Standing queries on the QueryService: subscriptions end-to-end.

Covers the in-process service (`subscribe`/`apply_update`/change-listener
wiring), the HTTP long-poll transport (`/subscribe` + `/update`), and the
acceptance criterion that a sharded deployment publishes the *identical*
signed event stream for the same subscription and the same edit.
"""

import asyncio
import json
from urllib.parse import quote

import pytest

from repro.net import ConstantLatency, NoLatency
from repro.net.message import Request
from repro.rdf.namespaces import SNVOC
from repro.rdf.terms import NamedNode, term_to_ntriples
from repro.service import (
    QueryService,
    ServiceSparqlApp,
    ShardSpec,
    ShardedQueryService,
    SharedResources,
)
from repro.solidbench import SolidBenchConfig, build_universe

FOAF = "http://xmlns.com/foaf/0.1/"
CONFIG = SolidBenchConfig(scale=0.005, seed=7)


def make_service(universe, latency=None, **kwargs):
    resources = SharedResources.for_universe(universe, latency=latency or NoLatency())
    return QueryService(resources, **kwargs)


def name_query(pod) -> str:
    return f"SELECT ?name WHERE {{ <{pod.webid}> <{FOAF}name> ?name }}"


def rename_update(pod, new: str, old: str = "") -> str:
    old = old or pod.owner_name
    return (
        f'DELETE DATA {{ <{pod.webid}> <{FOAF}name> "{old}" }} ;\n'
        f'INSERT DATA {{ <{pod.webid}> <{FOAF}name> "{new}" }}'
    )


def event_key(event) -> tuple:
    """Process-independent identity of one signed event."""
    binding = tuple(
        sorted((var.value, term_to_ntriples(term)) for var, term in event.binding.items())
    )
    return (event.seq, event.delta, binding, event.url)


@pytest.fixture()
def universe():
    """Private per-test universe: these tests PATCH pod documents."""
    return build_universe(CONFIG)


#: A standing query that matches every pod's messages, seeded at one pod
#: whose traversal reaches no other: a write to another pod's message is
#: out of its scope, though its pattern would match.
SCOPE_CONFIG = SolidBenchConfig(scale=0.02, seed=42)
CONTENT_QUERY = f"SELECT ?m ?c WHERE {{ ?m <{SNVOC.content.value}> ?c }}"


def scope_scenario(universe):
    """``(seed WebID, foreign document and its insert, own document and its edit)``."""
    pods = {pod.base_url[-4:-1]: pod for pod in universe.pods.values()}
    own, other = pods["002"], pods["009"]
    foreign = other.base_url + "posts/2010-03-20"
    mine = own.base_url + next(p for p in own.document_paths() if p.startswith("posts/"))
    return (
        own.webid,
        foreign,
        f'INSERT DATA {{ <{foreign}#x> <{SNVOC.content.value}> "foreign" }}',
        mine,
        f'INSERT DATA {{ <{mine}#x> <{SNVOC.content.value}> "mine" }}',
    )


class TestServiceSubscribe:
    def test_subscribe_then_update_round_trip(self, universe):
        async def scenario():
            pod = next(iter(universe.pods.values()))
            service = make_service(universe)
            subscription = await service.subscribe(
                name_query(pod), seeds=[pod.profile_url]
            )
            queue = subscription.queue()
            initial = await asyncio.wait_for(queue.get(), 10)
            assert initial.delta == 1
            assert service.statistics()["subscriptions"] == 1

            report = await service.apply_update(
                pod.profile_url, rename_update(pod, "Renamed")
            )
            assert report["status"] == 200
            assert report["events"] == 2
            first = await asyncio.wait_for(queue.get(), 10)
            second = await asyncio.wait_for(queue.get(), 10)
            assert sorted([first.delta, second.delta]) == [-1, 1]
            assert {first.url, second.url} == {pod.profile_url}

            current = subscription.current_results()
            assert sum(current.values()) == 1
            (binding,) = current
            assert "Renamed" in repr(binding)

            await subscription.close()
            assert await asyncio.wait_for(queue.get(), 10) is None
            assert service.statistics()["subscriptions"] == 0

        asyncio.run(scenario())

    def test_direct_pod_write_surfaces_via_drain(self, universe):
        """A PATCH straight to the pod (not via apply_update) still reaches
        the subscription: the change listeners notify, drain refreshes."""

        async def scenario():
            pod = next(iter(universe.pods.values()))
            service = make_service(universe)
            subscription = await service.subscribe(
                name_query(pod), seeds=[pod.profile_url]
            )
            from urllib.parse import urlsplit

            parts = urlsplit(pod.profile_url)
            app = universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
            headers = {"content-type": "application/sparql-update"}
            headers.update(app.login_owner(parts.path))
            response = await universe.internet.dispatch(
                Request(
                    "PATCH",
                    pod.profile_url,
                    headers,
                    rename_update(pod, "Sideways").encode("utf-8"),
                )
            )
            assert response.status < 400
            assert subscription.live.pending == [pod.profile_url]
            events = await service.drain_subscriptions()
            assert sorted(e.delta for e in events) == [-1, 1]

        asyncio.run(scenario())

    def test_rejected_update_raises_and_changes_nothing(self, universe):
        async def scenario():
            pod = next(iter(universe.pods.values()))
            service = make_service(universe)
            subscription = await service.subscribe(
                name_query(pod), seeds=[pod.profile_url]
            )
            before = len(subscription.events)
            with pytest.raises(RuntimeError, match="update rejected"):
                await service.apply_update(pod.profile_url, "NOT SPARQL UPDATE")
            assert len(subscription.events) == before

        asyncio.run(scenario())

    def test_subscription_counts_against_admission(self, universe):
        from repro.service import ServiceOverloadedError

        async def scenario():
            pod = next(iter(universe.pods.values()))
            # A few documents at 20 ms each: the first is still traversing
            # when the second asks (without latency it is done in 5 ms).
            service = make_service(
                universe, ConstantLatency(rtt_seconds=0.02), max_concurrent=1, max_queued=0
            )
            first = asyncio.ensure_future(
                service.subscribe(name_query(pod), seeds=[pod.profile_url])
            )
            await asyncio.sleep(0.005)  # let the first start traversing
            with pytest.raises(ServiceOverloadedError):
                await service.subscribe(name_query(pod), seeds=[pod.profile_url])
            await (await first).close()

        asyncio.run(scenario())


class TestSubscribeProtocol:
    """The `/subscribe` + `/update` HTTP endpoints."""

    def open_subscription(self, app, pod):
        url = (
            f"http://svc/subscribe?query={quote(name_query(pod))}"
            f"&seeds={quote(pod.profile_url)}"
        )
        return asyncio.run(app.handle(Request("GET", url)))

    def test_open_poll_update_close(self, universe):
        async def scenario():
            pod = next(iter(universe.pods.values()))
            app = ServiceSparqlApp(make_service(universe))
            opened = await app.handle(
                Request(
                    "GET",
                    f"http://svc/subscribe?query={quote(name_query(pod))}"
                    f"&seeds={quote(pod.profile_url)}",
                )
            )
            assert opened.status == 200
            document = json.loads(opened.body)
            sub_id = document["subscription"]
            assert [e["delta"] for e in document["events"]] == [1]
            next_seq = document["next"]
            assert next_seq == 1

            updated = await app.handle(
                Request(
                    "POST",
                    f"http://svc/update?url={quote(pod.profile_url)}",
                    {"content-type": "application/sparql-update"},
                    rename_update(pod, "OverHttp").encode("utf-8"),
                )
            )
            assert updated.status == 200
            assert json.loads(updated.body)["events"] == 2

            polled = await app.handle(
                Request(
                    "GET",
                    f"http://svc/subscribe?id={sub_id}&after={next_seq - 1}",
                )
            )
            events = json.loads(polled.body)["events"]
            assert sorted(e["delta"] for e in events) == [-1, 1]
            for event in events:
                assert event["url"] == pod.profile_url
                assert "binding" in event

            closed = await app.handle(
                Request("GET", f"http://svc/subscribe?id={sub_id}&close=1")
            )
            assert json.loads(closed.body)["closed"] is True

        asyncio.run(scenario())

    def test_unknown_subscription_is_404(self, universe):
        app = ServiceSparqlApp(make_service(universe))
        response = asyncio.run(
            app.handle(Request("GET", "http://svc/subscribe?id=nope"))
        )
        assert response.status == 404

    def test_missing_query_is_400(self, universe):
        app = ServiceSparqlApp(make_service(universe))
        assert (
            asyncio.run(app.handle(Request("GET", "http://svc/subscribe"))).status
            == 400
        )

    def test_bad_query_is_400(self, universe):
        app = ServiceSparqlApp(make_service(universe))
        response = asyncio.run(
            app.handle(Request("GET", "http://svc/subscribe?query=NOT+SPARQL"))
        )
        assert response.status == 400

    def test_update_needs_url_and_body(self, universe):
        app = ServiceSparqlApp(make_service(universe))
        assert (
            asyncio.run(app.handle(Request("POST", "http://svc/update"))).status == 400
        )


class TestWritesReachOnlyTheQueriesThatReadThem:
    def test_a_write_outside_the_traversed_subweb_changes_nothing(self):
        """The same-pattern write to a pod the query never reached: no
        events, no named graph for it, and standing == a fresh run."""
        universe = build_universe(SCOPE_CONFIG)
        seed, foreign, insert, _, _ = scope_scenario(universe)

        async def scenario():
            service = make_service(universe)
            standing = await service.subscribe(CONTENT_QUERY, seeds=[seed])
            before = standing.current_results()
            report = await service.apply_update(foreign, insert)
            fresh = await service.run(CONTENT_QUERY, seeds=[seed])
            return standing, before, report, fresh

        standing, before, report, fresh = asyncio.run(scenario())
        assert report["events"] == 0
        assert standing.current_results() == before
        assert standing.current_results() == {b: 1 for b in fresh.bindings}
        assert len(fresh.bindings) == 77
        dataset = standing.live.execution.source.dataset
        assert not dataset.has_graph(NamedNode(foreign))
        assert not standing.live.pending


class TestShardedSubscribeParity:
    """Acceptance: sharded subscribe == unsharded subscribe, event for event."""

    def test_identical_event_streams(self, universe):
        async def unsharded_stream():
            pod = next(iter(universe.pods.values()))
            service = make_service(universe)
            subscription = await service.subscribe(
                name_query(pod), seeds=[pod.profile_url]
            )
            await service.apply_update(pod.profile_url, rename_update(pod, "Parity"))
            events = [event_key(e) for e in subscription.events]
            results = {
                tuple(term_to_ntriples(t) for t in b.values()): n
                for b, n in subscription.current_results().items()
            }
            await assert_close_unregisters(service, subscription)
            return events, results

        async def assert_close_unregisters(service, subscription):
            # Same in both modes: a closed subscription leaves the table.
            assert service.get_subscription(subscription.id) is subscription
            await subscription.close()
            assert subscription.closed
            assert service.statistics()["subscriptions"] == 0
            assert service.get_subscription(subscription.id) is None
            assert service.subscriptions() == []

        async def sharded_stream():
            # Workers rebuild the same deterministic universe from CONFIG.
            pod = next(iter(universe.pods.values()))
            service = ShardedQueryService(
                ShardSpec(config=CONFIG, latency=NoLatency()), workers=2
            )
            await service.start()
            try:
                subscription = await service.subscribe(
                    name_query(pod), seeds=[pod.profile_url]
                )
                report = await service.apply_update(
                    pod.profile_url, rename_update(pod, "Parity")
                )
                assert report["status"] == 200
                events = [event_key(e) for e in subscription.events]
                results = {
                    tuple(term_to_ntriples(t) for t in b.values()): n
                    for b, n in subscription.current_results().items()
                }
                stats = service.statistics()
                assert stats["subscriptions"] == 1
                await assert_close_unregisters(service, subscription)
                return events, results
            finally:
                await service.stop()

        expected_events, expected_results = asyncio.run(unsharded_stream())
        sharded_events, sharded_results = asyncio.run(sharded_stream())
        assert sharded_events == expected_events
        assert sharded_results == expected_results
        assert expected_events  # the comparison is not vacuous

    def test_writes_are_scoped_the_same_sharded_or_not(self):
        """Out-of-scope write: no events in either deployment; the in-scope
        edit after it: the identical event stream."""
        universe = build_universe(SCOPE_CONFIG)
        seed, foreign, insert, mine, edit = scope_scenario(universe)

        async def stream(service):
            subscription = await service.subscribe(CONTENT_QUERY, seeds=[seed])
            out_of_scope = await service.apply_update(foreign, insert)
            in_scope = await service.apply_update(mine, edit)
            events = [event_key(e) for e in subscription.events]
            await subscription.close()
            return out_of_scope["events"], in_scope["events"], events

        async def unsharded():
            return await stream(make_service(universe))

        async def sharded():
            service = ShardedQueryService(
                ShardSpec(config=SCOPE_CONFIG, latency=NoLatency()), workers=2
            )
            await service.start()
            try:
                return await stream(service)
            finally:
                await service.stop()

        expected = asyncio.run(unsharded())
        assert expected[:2] == (0, 1)
        assert asyncio.run(sharded()) == expected
