"""Tests for the Web-based demonstration interface (paper Fig. 3, §4.1)."""

import json
import urllib.parse
import urllib.request

import pytest

from repro.webui import DemoServer, render_page


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

    def test_one_shot_mode_status_json(self, demo):
        with urllib.request.urlopen(demo.url + "status.json", timeout=10) as r:
            document = json.loads(r.read().decode("utf-8"))
        assert document["schema"] == 2
        assert document["mode"] == "one-shot"
        assert document["service"] is None


class TestShardedMode:
    def test_trace_json_says_why_instead_of_serving_an_empty_trace(self, tiny_universe):
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

        class StubShardedHost:
            service = unstarted

            def statistics(self):
                return unstarted.statistics()

            def execute(self, query, seeds=None, timeout=None):
                return tiny_universe.fast_engine().query(query, seeds=seeds).run_sync()

        assert StubShardedHost().statistics()["mode"] == "sharded"
        with DemoServer(universe=tiny_universe, service=StubShardedHost()) as server:
            url = server.url + "execute?query=" + urllib.parse.quote(query.text)
            with urllib.request.urlopen(url, timeout=60) as response:
                assert response.read().strip()
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(server.url + "trace.json", timeout=10)
        assert raised.value.code == 404
        reason = json.loads(raised.value.read().decode("utf-8"))["error"]
        assert reason == "tracing is worker-local in sharded mode"
