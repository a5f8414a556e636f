"""SPARQL-protocol front-end backed by the link-traversal QueryService.

:class:`SparqlProtocolApp` is the protocol plumbing (request → parsed
query → ``answer``); :class:`ServiceSparqlApp` answers by *traversal*:
each request becomes a query submitted to a shared
:class:`~repro.service.QueryService`, so repeat and concurrent requests
benefit from the service's HTTP cache and parsed-document store.  (The
federation baseline answers the same protocol from a fixed dataset.)

Protocol extensions beyond the plumbing:

* ``GET /sparql?query=...&seeds=url1,url2`` — optional comma-separated
  seed URLs (without them the engine falls back to IRIs in the query);
* admission rejections surface as ``503`` with a ``retry-after`` hint;
* ``GET /service/status`` — the versioned schema-2 status document
  (:mod:`repro.service.status`): service counters, per-tier cache and
  storage statistics, worker pool summary, query registry;
* ``GET /subscribe?query=...`` — open a *standing* query: the response
  carries a subscription id plus the initial signed events; poll
  ``/subscribe?id=...&after=SEQ`` (long-poll via ``&wait=SECONDS``) for
  subsequent result changes, ``&close=1`` to end the stream;
* ``POST /update?url=...`` — apply a SPARQL Update to one pod document
  (owner-authenticated on the simulated server); standing queries are
  drained before the response, so their events are ready to poll.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import parse_qs, unquote_plus, urlsplit

from ..net.message import Request, Response
from ..net.router import App
from ..sparql.algebra import Query
from ..sparql.parser import SparqlParseError, parse_query
from ..sparql.results import results_to_sparql_json
from .service import QueryService, ServiceOverloadedError
from .wire import encode_term

__all__ = ["SparqlProtocolApp", "ServiceSparqlApp"]


class SparqlProtocolApp(App):
    """SPARQL-protocol plumbing: request → parsed query → ``answer``.

    Subclasses implement :meth:`answer`; everything protocol-shaped —
    extracting the query text from ``GET ?query=`` or a POST body
    (``application/sparql-query`` or form-encoded), 400s for missing or
    unparsable queries, 405 for other methods — is handled here.
    """

    def __init__(self, path: str = "/sparql") -> None:
        self._path = path
        self.queries_served = 0

    @property
    def path(self) -> str:
        return self._path

    async def handle(self, request: Request) -> Response:
        parts = urlsplit(request.url)
        if parts.path != self._path:
            return await self.handle_other(request)
        if request.method == "GET":
            query_text = parse_qs(parts.query).get("query", [""])[0]
        elif request.method == "POST":
            content_type = request.header("content-type").split(";")[0].strip()
            body = request.body.decode("utf-8")
            if content_type == "application/sparql-query":
                query_text = body
            else:  # application/x-www-form-urlencoded
                query_text = parse_qs(body).get("query", [""])[0]
        else:
            return Response(405, {"content-type": "text/plain"}, b"Method not allowed")
        query_text = unquote_plus(query_text) if "%" in query_text else query_text
        if not query_text:
            return Response(400, {"content-type": "text/plain"}, b"missing query parameter")
        try:
            query = parse_query(query_text)
        except SparqlParseError as error:
            return Response(400, {"content-type": "text/plain"}, str(error).encode("utf-8"))
        self.queries_served += 1
        return await self.answer(query, request)

    async def handle_other(self, request: Request) -> Response:
        """Any path other than the endpoint's; 404 unless overridden."""
        return Response.not_found(request.url)

    async def answer(self, query: Query, request: Request) -> Response:
        raise NotImplementedError

    @staticmethod
    def select_response(variables, bindings) -> Response:
        body = results_to_sparql_json(variables, bindings)
        return Response(
            200, {"content-type": "application/sparql-results+json"}, body.encode("utf-8")
        )

    @staticmethod
    def ask_response(answer: bool) -> Response:
        document = json.dumps({"head": {}, "boolean": answer})
        return Response(
            200, {"content-type": "application/sparql-results+json"}, document.encode("utf-8")
        )


def _event_json(event) -> dict:
    """One signed result change as a JSON-friendly object."""
    return {
        "seq": event.seq,
        "delta": event.delta,
        "url": event.url,
        "binding": {
            variable.value: encode_term(term)
            for variable, term in sorted(
                event.binding.items(), key=lambda item: item[0].value
            )
        },
    }


def json_response(document: dict, status: int = 200) -> Response:
    body = json.dumps(document).encode("utf-8")
    return Response(status, {"content-type": "application/json"}, body)


class ServiceSparqlApp(SparqlProtocolApp):
    """``/sparql`` over live link traversal, with a ``/service/status`` view."""

    def __init__(self, service: QueryService, path: str = "/sparql") -> None:
        super().__init__(path)
        self._service = service
        #: Every route besides the endpoint's; subclasses add their own.
        self._routes = {
            "/service/status": self._handle_status,
            "/subscribe": self._handle_subscribe,
            "/update": self._handle_update,
        }

    @property
    def service(self) -> QueryService:
        return self._service

    async def handle_other(self, request: Request) -> Response:
        route = self._routes.get(urlsplit(request.url).path)
        if route is None:
            return Response.not_found(request.url)
        return await route(request)

    async def _handle_status(self, request: Request) -> Response:
        # A sharded front-end polls every worker first, so the document
        # aggregates *current* shard gauges.
        return json_response(await self._service.status())

    # -- standing queries over HTTP -------------------------------------

    async def _handle_subscribe(self, request: Request) -> Response:
        """Open, poll, or close a standing query (long-poll transport).

        ``?query=...[&seeds=...]`` opens one and returns its id plus the
        initial events; ``?id=...&after=SEQ[&wait=S]`` returns events
        with ``seq > SEQ``, blocking up to ``S`` seconds for new ones;
        ``?id=...&close=1`` ends the subscription.
        """
        params = parse_qs(urlsplit(request.url).query)
        sub_id = params.get("id", [""])[0]
        if not sub_id:
            query_text = params.get("query", [""])[0]
            if not query_text:
                return Response(
                    400, {"content-type": "text/plain"}, b"missing query or id"
                )
            seeds_param = params.get("seeds", [""])[0]
            seeds = [seed for seed in seeds_param.split(",") if seed] or None
            try:
                subscription = await self._service.subscribe(query_text, seeds=seeds)
            except ServiceOverloadedError as error:
                return Response(
                    503,
                    {"content-type": "text/plain", "retry-after": "1"},
                    str(error).encode("utf-8"),
                )
            except Exception as error:  # noqa: BLE001 — a bad query is a 400
                return Response(
                    400, {"content-type": "text/plain"}, str(error).encode("utf-8")
                )
            events = list(subscription.events)
            return json_response(
                {
                    "subscription": subscription.id,
                    "events": [_event_json(event) for event in events],
                    "next": events[-1].seq + 1 if events else 0,
                }
            )
        subscription = self._service.get_subscription(sub_id)
        if subscription is None:
            return Response(404, {"content-type": "text/plain"}, b"unknown subscription")
        if params.get("close", [""])[0]:
            await subscription.close()
            return json_response({"subscription": sub_id, "closed": True})
        after = int(params.get("after", ["-1"])[0])
        wait = float(params.get("wait", ["0"])[0])

        async def fresh_events() -> list:
            # Drain here so writes applied directly to a pod (not via
            # /update) surface without an extra poke.
            await self._service.drain_subscriptions()
            return [event for event in subscription.events if event.seq > after]

        events = await fresh_events()
        deadline = time.monotonic() + wait
        while not events and not subscription.closed and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
            events = await fresh_events()
        return json_response(
            {
                "subscription": sub_id,
                "events": [_event_json(event) for event in events],
                "next": events[-1].seq + 1 if events else after + 1,
                "closed": subscription.closed,
            }
        )

    async def _handle_update(self, request: Request) -> Response:
        """Apply a SPARQL Update to one pod document via the service."""
        params = parse_qs(urlsplit(request.url).query)
        url = params.get("url", [""])[0]
        update = request.body.decode("utf-8") if request.body else ""
        if not url or not update:
            return Response(
                400, {"content-type": "text/plain"}, b"need url param and update body"
            )
        try:
            report = await self._service.apply_update(url, update)
        except RuntimeError as error:
            return Response(409, {"content-type": "text/plain"}, str(error).encode("utf-8"))
        return json_response(report)

    async def answer(self, query: Query, request: Request) -> Response:
        if query.form not in ("SELECT", "ASK"):
            return Response(400, {"content-type": "text/plain"}, b"only SELECT/ASK supported")
        params = parse_qs(urlsplit(request.url).query)
        seeds_param = params.get("seeds", [""])[0]
        seeds = [seed for seed in seeds_param.split(",") if seed] or None
        try:
            handle = self._service.submit(query, seeds=seeds)
        except ServiceOverloadedError as error:
            return Response(
                503,
                {"content-type": "text/plain", "retry-after": "1"},
                str(error).encode("utf-8"),
            )
        try:
            result = await handle.wait()
        except ServiceOverloadedError as error:
            # Sharded deployments detect overload inside the worker, so
            # it can surface at wait time rather than submit time.
            return Response(
                503,
                {"content-type": "text/plain", "retry-after": "1"},
                str(error).encode("utf-8"),
            )
        except Exception as error:  # noqa: BLE001 — a failed query is a 500
            return Response(500, {"content-type": "text/plain"}, str(error).encode("utf-8"))
        if query.form == "ASK":
            # The engine represents ASK as zero-or-one empty binding.
            return self.ask_response(bool(result.results))
        return self.select_response(query.variables(), result.bindings)
