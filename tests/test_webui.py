"""Tests for the Web-based demonstration interface (paper Fig. 3, §4.1)."""

import asyncio
import json
import urllib.parse
import urllib.request
from urllib.parse import quote

import pytest

from repro.net.message import Request
from repro.solidbench import SolidBenchConfig, build_universe
from repro.webui import DemoApp, DemoServer, render_page

FOAF = "http://xmlns.com/foaf/0.1/"


@pytest.fixture(scope="module")
def demo(tiny_universe):
    server = DemoServer(universe=tiny_universe)
    server.start()
    yield server
    server.stop()


class TestRenderPage:
    def test_page_lists_37_preset_queries(self, tiny_universe):
        page = render_page(tiny_universe)
        assert page.count("<option") == 37
        assert "[SolidBench] Discover 1.5" in page
        assert "Execute query" in page

    def test_page_embeds_query_texts(self, tiny_universe):
        page = render_page(tiny_universe)
        assert "snvoc:hasCreator" in page
        assert "PRESETS" in page


class TestDemoServer:
    def test_serves_index_page(self, demo):
        with urllib.request.urlopen(demo.url, timeout=10) as response:
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert "Link Traversal" in body

    def test_execute_endpoint_streams_ndjson(self, demo):
        from repro.solidbench import discover_query

        query = discover_query(demo.universe, 1, 5)
        url = demo.url + "execute?query=" + urllib.parse.quote(query.text)
        with urllib.request.urlopen(url, timeout=60) as response:
            assert response.status == 200
            assert "ndjson" in response.headers["content-type"]
            lines = [l for l in response.read().decode("utf-8").splitlines() if l]
        assert lines
        for line in lines:
            assert json.loads(line)

    def test_execute_rejects_invalid_sparql(self, demo):
        url = demo.url + "execute?query=" + urllib.parse.quote("NOT SPARQL AT ALL {")
        try:
            urllib.request.urlopen(url, timeout=10)
        except urllib.error.HTTPError as error:
            assert error.code == 400
            payload = json.loads(error.read().decode("utf-8"))
            assert "error" in payload
        else:
            raise AssertionError("expected HTTP 400")

    def test_unknown_path_404(self, demo):
        try:
            urllib.request.urlopen(demo.url + "nope", timeout=10)
        except urllib.error.HTTPError as error:
            assert error.code == 404
        else:
            raise AssertionError("expected HTTP 404")

    def test_answers_subscribe_without_a_given_service(self, demo):
        """Given no service, the demo runs over the ``serve`` stack, so
        the live-query panel's ``/subscribe`` is answered."""
        pod = next(iter(demo.universe.pods.values()))
        query = f"SELECT ?name WHERE {{ <{pod.webid}> <{FOAF}name> ?name }}"
        url = f"{demo.url}subscribe?query={quote(query)}&seeds={quote(pod.profile_url)}"
        with urllib.request.urlopen(url, timeout=60) as response:
            opened = json.loads(response.read().decode("utf-8"))
        assert [event["delta"] for event in opened["events"]] == [1]
        close = f"{demo.url}subscribe?id={opened['subscription']}&close=1"
        with urllib.request.urlopen(close, timeout=10) as response:
            assert json.loads(response.read().decode("utf-8"))["closed"] is True


class TestServiceMode:
    """The demo server backed by a long-lived QueryService."""

    @pytest.fixture(scope="class")
    def service_demo(self, tiny_universe):
        from repro.net import NoLatency
        from repro.service import QueryService, ServiceHost, SharedResources

        resources = SharedResources.for_universe(tiny_universe, latency=NoLatency())
        host = ServiceHost(QueryService(resources)).start()
        server = DemoServer(universe=tiny_universe, service=host)
        server.start()
        yield server
        server.stop()
        host.stop()

    def test_execute_goes_through_service(self, service_demo):
        from repro.solidbench import discover_query

        query = discover_query(service_demo.universe, 1, 5)
        url = service_demo.url + "execute?query=" + urllib.parse.quote(query.text)
        with urllib.request.urlopen(url, timeout=60) as response:
            first = [l for l in response.read().decode("utf-8").splitlines() if l]
        with urllib.request.urlopen(url, timeout=60) as response:
            second = [l for l in response.read().decode("utf-8").splitlines() if l]
        assert sorted(first) == sorted(second)
        stats = service_demo.service_host.statistics()
        assert stats["completed"] == 2
        # The warm run was answered from the parsed-document store.
        assert stats["document_store"]["hits"] > 0

    def test_sparql_endpoint_over_real_http(self, service_demo):
        from repro.solidbench import discover_query

        query = discover_query(service_demo.universe, 1, 5)
        url = (
            service_demo.url
            + "sparql?query="
            + urllib.parse.quote(query.text)
            + "&seeds="
            + urllib.parse.quote(",".join(query.seeds))
        )
        with urllib.request.urlopen(url, timeout=60) as response:
            assert response.status == 200
            assert "sparql-results+json" in response.headers["content-type"]
            document = json.loads(response.read().decode("utf-8"))
        assert document["results"]["bindings"]

    def test_sparql_post_over_real_http(self, service_demo):
        from repro.solidbench import discover_query

        query = discover_query(service_demo.universe, 1, 5)
        request = urllib.request.Request(
            service_demo.url + "sparql",
            data=query.text.encode("utf-8"),
            headers={"content-type": "application/sparql-query"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            document = json.loads(response.read().decode("utf-8"))
        assert document["results"]["bindings"]

    def test_status_json_reports_service(self, service_demo):
        with urllib.request.urlopen(service_demo.url + "status.json", timeout=10) as r:
            document = json.loads(r.read().decode("utf-8"))
        assert document["schema"] == 2
        assert document["mode"] == "single"
        assert document["workers"] == {
            "total": 1,
            "ready": 1,
            "restarts": 0,
            "routing": None,
        }
        assert "document_store" in document["service"]
        assert "storage" in document["service"]
        assert document["shards"] == {}
        assert isinstance(document["queries"], list)


class StubService:
    """The service surface a :class:`ServiceHost` drives, doing nothing."""

    async def start(self):
        return self

    async def drain(self, timeout):
        return []

    async def stop(self):
        pass


@pytest.fixture()
def stub_host():
    """Start a ``ServiceHost`` over a stub service; stopped on teardown."""
    from repro.service import ServiceHost

    hosts = []

    def start(service):
        hosts.append(ServiceHost(service).start())
        return hosts[-1]

    yield start
    for host in hosts:
        host.stop()


class TestShardedMode:
    def test_trace_json_says_why_instead_of_serving_an_empty_trace(
        self, tiny_universe, stub_host
    ):
        """Sharded workers trace locally and ship no spans back, and the
        front-end's ``submit`` takes no ``tracer=``: the demo must neither
        pass one nor publish a never-written trace as if it were real.
        It decides from the ``mode`` the service reports."""
        from repro.service import ShardSpec, ShardedQueryService
        from repro.solidbench import discover_query

        query = discover_query(tiny_universe, 1, 5)
        unstarted = ShardedQueryService(ShardSpec(config=None), workers=1)
        with pytest.raises(TypeError, match="tracer"):
            unstarted.submit(query.text, tracer=object())

        class StubShardedService(StubService):
            def statistics(self):
                return unstarted.statistics()

            async def run(self, query, seeds=None):
                return await tiny_universe.fast_engine().query(query, seeds=seeds).gather()

        host = stub_host(StubShardedService())
        assert host.statistics()["mode"] == "sharded"
        with DemoServer(universe=tiny_universe, service=host) as server:
            url = server.url + "execute?query=" + urllib.parse.quote(query.text)
            with urllib.request.urlopen(url, timeout=60) as response:
                assert response.read().strip()
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(server.url + "trace.json", timeout=10)
        assert raised.value.code == 404
        reason = json.loads(raised.value.read().decode("utf-8"))["error"]
        assert reason == "tracing is worker-local in sharded mode"

    def test_status_json_is_the_fresh_service_status(self, tiny_universe, stub_host):
        """A sharded service's ``statistics()`` reads the shard blocks the
        last ``status()`` left; ``/status.json`` must poll like
        ``/service/status`` does, not read the stale copy."""

        class StaleStatisticsService(StubService):
            def statistics(self):
                return {"schema": 2, "mode": "sharded", "requests": 0, "shards": {}}

            async def status(self):
                return {"schema": 2, "mode": "sharded", "requests": 48, "shards": {"s0": {}}}

        app = DemoApp(tiny_universe, stub_host(StaleStatisticsService()))
        status_json = call(app, "GET", "/status.json")
        service_status = call(app, "GET", "/service/status")
        assert status_json.status == service_status.status == 200
        assert json.loads(status_json.body) == json.loads(service_status.body)
        assert json.loads(status_json.body)["requests"] == 48


def call(app, method, path, body=b"", headers=None):
    """One request to an app, in-process: no socket."""
    return asyncio.run(app.handle(Request(method, "http://demo.local" + path, headers or {}, body)))



class TestDemoApp:
    """Every route of the demo app, driven in-process."""

    @pytest.fixture(scope="class")
    def universe(self):
        """Private: the ``/update`` test PATCHes a pod document."""
        return build_universe(SolidBenchConfig(scale=0.005, seed=7))

    @pytest.fixture(scope="class")
    def host(self, universe):
        from repro.net import NoLatency
        from repro.service import QueryService, ServiceHost, SharedResources

        resources = SharedResources.for_universe(universe, latency=NoLatency())
        host = ServiceHost(QueryService(resources)).start()
        yield host
        host.stop()

    @pytest.fixture()
    def app(self, universe, host):
        return DemoApp(universe, host)

    def name_query(self, universe):
        pod = next(iter(universe.pods.values()))
        return pod, f"SELECT ?name WHERE {{ <{pod.webid}> <{FOAF}name> ?name }}"

    def test_page(self, app):
        response = call(app, "GET", "/")
        assert response.status == 200
        assert response.content_type == "text/html"
        assert "Link Traversal" in response.text

    def test_execute_then_trace(self, app, universe):
        assert call(app, "GET", "/trace.json").status == 404
        _, query = self.name_query(universe)
        response = call(app, "GET", "/execute?query=" + quote(query))
        assert response.status == 200
        assert response.content_type == "application/x-ndjson"
        rows = [json.loads(line) for line in response.text.splitlines()]
        assert rows and all("name" in row for row in rows)
        trace = call(app, "GET", "/trace.json")
        assert trace.status == 200
        events = json.loads(trace.body)["traceEvents"]
        assert any(event["name"] == "attempt" for event in events)

    def test_execute_rejects_invalid_sparql(self, app):
        response = call(app, "GET", "/execute?query=" + quote("NOT SPARQL {"))
        assert response.status == 400
        assert "error" in json.loads(response.body)

    def test_status_json_is_service_status(self, app):
        status_json = json.loads(call(app, "GET", "/status.json").body)
        service_status = json.loads(call(app, "GET", "/service/status").body)
        assert status_json["schema"] == service_status["schema"] == 2
        assert status_json["mode"] == service_status["mode"] == "single"
        assert status_json.keys() == service_status.keys()

    def test_sparql_get_and_post(self, app, universe):
        pod, query = self.name_query(universe)
        got = call(app, "GET", f"/sparql?query={quote(query)}&seeds={quote(pod.profile_url)}")
        posted = call(
            app, "POST", "/sparql", query.encode("utf-8"),
            {"content-type": "application/sparql-query"},
        )
        for response in (got, posted):
            assert response.status == 200
            assert json.loads(response.body)["results"]["bindings"]

    def test_subscribe_update_poll_close(self, app, universe):
        pod, query = self.name_query(universe)
        opened = call(
            app, "GET", f"/subscribe?query={quote(query)}&seeds={quote(pod.profile_url)}"
        )
        assert opened.status == 200
        document = json.loads(opened.body)
        sub_id, after = document["subscription"], document["next"] - 1
        update = (
            f'DELETE DATA {{ <{pod.webid}> <{FOAF}name> "{pod.owner_name}" }} ;\n'
            f'INSERT DATA {{ <{pod.webid}> <{FOAF}name> "Renamed" }}'
        )
        updated = call(
            app, "POST", f"/update?url={quote(pod.profile_url)}", update.encode("utf-8")
        )
        assert updated.status == 200
        polled = json.loads(call(app, "GET", f"/subscribe?id={sub_id}&after={after}").body)
        assert sorted(event["delta"] for event in polled["events"]) == [-1, 1]
        closed = call(app, "GET", f"/subscribe?id={sub_id}&close=1")
        assert json.loads(closed.body)["closed"] is True

    def test_unknown_path_404(self, app):
        assert call(app, "GET", "/nope").status == 404
