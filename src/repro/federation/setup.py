"""Wiring pods into a federation: one SPARQL endpoint per pod."""

from __future__ import annotations

from ..net.message import Request, Response
from ..net.router import App
from ..rdf.dataset import Graph
from ..solidbench.universe import SolidBenchUniverse
from .endpoint import SparqlEndpointApp

__all__ = ["EndpointDirectory", "attach_pod_endpoints"]

ENDPOINT_ORIGIN = "https://endpoints.example"


class EndpointDirectory(App):
    """Routes ``/pods/<id>/sparql`` paths to per-pod endpoint apps."""

    def __init__(self) -> None:
        self._endpoints: dict[str, SparqlEndpointApp] = {}

    def add(self, path: str, endpoint: SparqlEndpointApp) -> None:
        self._endpoints[path] = endpoint

    async def handle(self, request: Request) -> Response:
        from urllib.parse import urlsplit

        path = urlsplit(request.url).path  # request.path keeps the query string
        endpoint = self._endpoints.get(path)
        if endpoint is None:
            return Response.not_found(request.url)
        return await endpoint.handle(request)


def attach_pod_endpoints(universe: SolidBenchUniverse) -> list[str]:
    """Expose every pod as a SPARQL endpoint on the universe's internet.

    Each pod's full document contents become one endpoint at
    ``https://endpoints.example/pods/<id>/sparql`` — the "sources known
    prior to query execution" setup federated engines require.  Returns
    the endpoint URLs.
    """
    directory = EndpointDirectory()
    urls: list[str] = []
    for pod in universe.pods.values():
        graph = Graph()
        for document in pod.documents():
            graph.update(document.triples)
        pod_id = pod.base_url.rstrip("/").rsplit("/", 1)[-1]
        path = f"/pods/{pod_id}/sparql"
        endpoint = SparqlEndpointApp(graph, path=path)
        directory.add(path, endpoint)
        urls.append(ENDPOINT_ORIGIN + path)
    universe.internet.register(ENDPOINT_ORIGIN, directory)
    return urls
