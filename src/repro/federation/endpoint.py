"""A SPARQL endpoint app over the simulated Web.

The paper's §1 contrasts LTQP with *federated SPARQL processing* [8,9,10],
which assumes every source exposes a SPARQL endpoint and that all sources
are known up front.  To reproduce that comparison we need the substrate
the federation literature assumes: this module turns any dataset (e.g. a
pod's documents) into a ``GET /sparql?query=...`` endpoint speaking the
SPARQL JSON results format.

The protocol plumbing (query extraction from GET/POST, parse errors as
400s) is the program's own :class:`~repro.service.protocol.SparqlProtocolApp`,
which serves the same protocol by live link traversal; this baseline
answers it from a fixed dataset instead.
"""

from __future__ import annotations

from typing import Union

from ..net.message import Request, Response
from ..rdf.dataset import Dataset, Graph
from ..service.protocol import SparqlProtocolApp
from ..sparql.algebra import Query
from ..sparql.eval import SnapshotEvaluator

__all__ = ["SparqlEndpointApp"]


class SparqlEndpointApp(SparqlProtocolApp):
    """Answers SPARQL queries over a fixed dataset at ``/sparql``."""

    def __init__(self, data: Union[Graph, Dataset], path: str = "/sparql") -> None:
        super().__init__(path)
        self._data = data

    async def answer(self, query: Query, request: Request) -> Response:
        evaluator = SnapshotEvaluator(self._data)
        if query.form == "SELECT":
            return self.select_response(query.variables(), list(evaluator.select(query)))
        if query.form == "ASK":
            return self.ask_response(evaluator.ask(query))
        return Response(400, {"content-type": "text/plain"}, b"only SELECT/ASK supported")
