"""Tests for the federated SPARQL baseline (endpoint app + engine)."""

import asyncio
import json
from urllib.parse import quote

import pytest

from repro.federation import (
    ENDPOINT_ORIGIN,
    FederatedQueryEngine,
    SparqlEndpointApp,
    attach_pod_endpoints,
)
from repro.net import HttpClient, Internet, NoLatency
from repro.rdf import Graph, Literal, NamedNode, Triple, Variable
from repro.bench.harness import oracle_bindings
from repro.solidbench import discover_query


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def endpoint_client():
    graph = Graph(
        [
            Triple(n("a"), n("p"), Literal("1")),
            Triple(n("a"), n("q"), n("b")),
            Triple(n("b"), n("p"), Literal("2")),
        ]
    )
    internet = Internet()
    app = SparqlEndpointApp(graph)
    internet.register("https://ep.example", app)
    return HttpClient(internet, latency=NoLatency()), app


class TestSparqlEndpointApp:
    def fetch_json(self, client, query):
        url = f"https://ep.example/sparql?query={quote(query)}"
        response = run(client.fetch(url))
        assert response.status == 200, response.text
        return json.loads(response.text)

    def test_select_returns_sparql_json(self, endpoint_client):
        client, _ = endpoint_client
        document = self.fetch_json(client, "SELECT ?o WHERE { <http://x/a> <http://x/p> ?o }")
        assert document["head"]["vars"] == ["o"]
        assert document["results"]["bindings"][0]["o"]["value"] == "1"

    def test_ask_boolean(self, endpoint_client):
        client, _ = endpoint_client
        assert self.fetch_json(client, "ASK { <http://x/a> ?p ?o }")["boolean"] is True
        assert self.fetch_json(client, "ASK { <http://x/z> ?p ?o }")["boolean"] is False

    def test_post_sparql_query_body(self, endpoint_client):
        client, _ = endpoint_client
        from repro.net.message import Request

        request = Request(
            "POST",
            "https://ep.example/sparql",
            headers={"content-type": "application/sparql-query"},
            body=b"ASK { ?s ?p ?o }",
        )
        response = run(client.internet.dispatch(request))
        assert json.loads(response.text)["boolean"] is True

    def test_malformed_query_400(self, endpoint_client):
        client, _ = endpoint_client
        url = f"https://ep.example/sparql?query={quote('NOT SPARQL {')}"
        assert run(client.fetch(url)).status == 400

    def test_missing_query_400(self, endpoint_client):
        client, _ = endpoint_client
        assert run(client.fetch("https://ep.example/sparql")).status == 400

    def test_query_counter(self, endpoint_client):
        client, app = endpoint_client
        self.fetch_json(client, "ASK { ?s ?p ?o }")
        self.fetch_json(client, "ASK { ?s ?p ?o }")
        assert app.queries_served == 2


class TestPodEndpoints:
    def test_every_pod_gets_an_endpoint(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        assert len(endpoints) == tiny_universe.person_count
        assert all(url.startswith(ENDPOINT_ORIGIN) for url in endpoints)

    def test_endpoint_serves_pod_data(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        client = tiny_universe.client(latency=NoLatency())
        webid = tiny_universe.webid(0)
        pod_id = tiny_universe.pod_of(0).base_url.rstrip("/").rsplit("/", 1)[-1]
        endpoint = next(url for url in endpoints if pod_id in url)
        query = f"ASK {{ <{webid}> ?p ?o }}"
        response = run(client.fetch(f"{endpoint}?query={quote(query)}"))
        assert json.loads(response.text)["boolean"] is True


class TestFederatedEngine:
    def test_matches_oracle_on_discover_query(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        engine = FederatedQueryEngine(tiny_universe.client(latency=NoLatency()), endpoints)
        query = discover_query(tiny_universe, 1, 1)
        results, stats = engine.execute_sync(query.text)
        assert set(results) == oracle_bindings(tiny_universe, query)
        assert stats.result_count == len(results)

    def test_source_selection_probes_every_endpoint(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        engine = FederatedQueryEngine(tiny_universe.client(latency=NoLatency()), endpoints)
        query = discover_query(tiny_universe, 4, 1)
        _, stats = engine.execute_sync(query.text)
        pattern_count = query.text.count(";") + 1  # crude but stable here
        assert stats.ask_probes == stats.endpoints * pattern_count

    def test_batching_reduces_requests(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        query = discover_query(tiny_universe, 2, 1)
        batched = FederatedQueryEngine(
            tiny_universe.client(latency=NoLatency()), endpoints, batch_size=20
        )
        unbatched = FederatedQueryEngine(
            tiny_universe.client(latency=NoLatency()), endpoints, batch_size=1
        )
        results_batched, stats_batched = batched.execute_sync(query.text)
        results_unbatched, stats_unbatched = unbatched.execute_sync(query.text)
        assert set(results_batched) == set(results_unbatched)
        assert stats_batched.pattern_requests < stats_unbatched.pattern_requests

    def test_unsupported_query_shape_rejected(self, tiny_universe):
        endpoints = attach_pod_endpoints(tiny_universe)
        engine = FederatedQueryEngine(tiny_universe.client(latency=NoLatency()), endpoints)
        with pytest.raises(ValueError):
            engine.execute_sync("SELECT ?a WHERE { { ?a ?p 1 } UNION { ?a ?p 2 } }")


def test_the_program_does_not_depend_on_its_baseline():
    """``federation/`` is what E14 compares against: it may build on the
    program (the protocol plumbing lives in ``repro.service.protocol``),
    never the other way round."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        if path.parent.name == "federation":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            module = getattr(node, "module", None) if isinstance(node, ast.ImportFrom) else None
            if module and "federation" in module:
                importers.append(str(path.relative_to(root)))
    assert importers == []
