"""Tests for the SPARQL-protocol front-end over the QueryService."""

import asyncio
import json
from urllib.parse import quote

import pytest

from repro.net import Internet, NoLatency, StaticApp
from repro.net.message import Request
from repro.service import QueryService, ServiceSparqlApp, SharedResources
from repro.solidbench import discover_query


@pytest.fixture()
def app(tiny_universe):
    resources = SharedResources.for_universe(tiny_universe, latency=NoLatency())
    return ServiceSparqlApp(QueryService(resources))


def ask(app, request):
    return asyncio.run(app.handle(request))


class TestProtocol:
    def test_get_with_seeds(self, app, tiny_universe):
        named = discover_query(tiny_universe, 1, 5)
        url = (
            f"http://svc/sparql?query={quote(named.text)}"
            f"&seeds={quote(','.join(named.seeds))}"
        )
        response = ask(app, Request("GET", url))
        assert response.status == 200
        assert response.header("content-type") == "application/sparql-results+json"
        document = json.loads(response.body)
        assert document["results"]["bindings"]
        assert set(document["head"]["vars"]) == set(
            v.value for v in named_query_variables(named)
        )

    def test_post_sparql_query_body(self, app, tiny_universe):
        named = discover_query(tiny_universe, 1, 5)
        response = ask(
            app,
            Request(
                "POST",
                "http://svc/sparql",
                {"content-type": "application/sparql-query"},
                named.text.encode("utf-8"),
            ),
        )
        assert response.status == 200
        assert json.loads(response.body)["results"]["bindings"]

    def test_ask_query(self):
        internet = Internet()
        static = StaticApp()
        static.put("/doc", '<https://h/doc#s> <https://h/p> "one" .')
        internet.register("https://h", static)
        service = QueryService(SharedResources(internet, latency=NoLatency()))
        app = ServiceSparqlApp(service)
        query = "ASK { <https://h/doc#s> <https://h/p> ?o }"
        url = f"http://svc/sparql?query={quote(query)}&seeds={quote('https://h/doc')}"
        response = ask(app, Request("GET", url))
        assert response.status == 200
        assert json.loads(response.body)["boolean"] is True

    def test_unparsable_query_is_400(self, app):
        response = ask(app, Request("GET", "http://svc/sparql?query=NOT+SPARQL"))
        assert response.status == 400

    def test_missing_query_is_400(self, app):
        assert ask(app, Request("GET", "http://svc/sparql")).status == 400

    def test_unknown_path_is_404(self, app):
        assert ask(app, Request("GET", "http://svc/elsewhere")).status == 404

    def test_construct_rejected(self, app):
        query = "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }"
        response = ask(app, Request("GET", f"http://svc/sparql?query={quote(query)}"))
        assert response.status == 400

    def test_overload_is_503_with_retry_after(self, tiny_universe):
        resources = SharedResources.for_universe(tiny_universe, latency=NoLatency())
        service = QueryService(resources, max_concurrent=1, max_queued=0)
        app = ServiceSparqlApp(service)
        named = discover_query(tiny_universe, 1, 5)
        url = f"http://svc/sparql?query={quote(named.text)}&seeds={quote(','.join(named.seeds))}"

        async def scenario():
            first = asyncio.ensure_future(app.handle(Request("GET", url)))
            await asyncio.sleep(0.005)
            second = await app.handle(Request("GET", url))
            return await first, second

        first, second = asyncio.run(scenario())
        assert first.status == 200
        assert second.status == 503
        assert second.header("retry-after") == "1"

    def test_status_endpoint_reports_registry(self, app, tiny_universe):
        named = discover_query(tiny_universe, 1, 5)
        url = (
            f"http://svc/sparql?query={quote(named.text)}"
            f"&seeds={quote(','.join(named.seeds))}"
        )
        ask(app, Request("GET", url))
        response = ask(app, Request("GET", "http://svc/service/status"))
        assert response.status == 200
        document = json.loads(response.body)
        assert document["schema"] == 2
        assert document["mode"] == "single"
        assert document["service"]["completed"] == 1
        # Every tier reports its storage block through the unified shape.
        assert "storage" in document["service"]["document_store"]
        assert "storage" in document["service"]["http_cache"]
        assert len(document["queries"]) == 1
        assert document["queries"][0]["status"] == "done"
        # What the query's growing source kept of what the crawl discovered.
        assert 0 < document["queries"][0]["triples_stored"] < document["queries"][0]["triples_discovered"]


def named_query_variables(named):
    from repro.sparql.parser import parse_query

    return parse_query(named.text).variables()
