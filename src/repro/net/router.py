"""The simulated Web: origins, apps, and routing.

An :class:`App` is anything that can answer a :class:`Request`.  The
:class:`Internet` maps origins (``https://host[:port]``) to apps; the
client resolves URLs through it.  This is the seam that lets the whole
Solid environment run in-process — or behind real sockets via
:mod:`repro.net.realserver` — without the engine knowing the difference.
"""

from __future__ import annotations

import inspect
from typing import Awaitable, Callable, Optional, Union

from .faults import FaultPlan
from .message import Request, Response

__all__ = ["App", "Internet", "StaticApp", "FunctionApp"]

HandlerResult = Union[Response, Awaitable[Response]]
Handler = Callable[[Request], HandlerResult]


class App:
    """Base class for simulated HTTP applications."""

    async def handle(self, request: Request) -> Response:
        raise NotImplementedError


class FunctionApp(App):
    """Wrap a plain (sync or async) function as an app."""

    def __init__(self, handler: Handler) -> None:
        self._handler = handler

    async def handle(self, request: Request) -> Response:
        result = self._handler(request)
        if inspect.isawaitable(result):
            return await result
        return result


class StaticApp(App):
    """Serves a fixed path→(content-type, body) mapping. Handy in tests."""

    def __init__(self) -> None:
        self._resources: dict[str, tuple[str, bytes]] = {}

    def put(self, path: str, body: Union[str, bytes], content_type: str = "text/turtle") -> None:
        data = body.encode("utf-8") if isinstance(body, str) else body
        self._resources[path] = (content_type, data)

    async def handle(self, request: Request) -> Response:
        entry = self._resources.get(request.path)
        if entry is None:
            return Response.not_found(request.url)
        content_type, body = entry
        if request.method == "HEAD":
            return Response(200, {"content-type": content_type}, b"")
        if request.method != "GET":
            return Response(405, {"content-type": "text/plain"}, b"Method not allowed")
        return Response(200, {"content-type": content_type}, body)


class Internet:
    """Registry of simulated origins.

    ``register`` binds an app to an origin.
    """

    def __init__(self) -> None:
        self._origins: dict[str, App] = {}
        self._fault_plan: Optional["FaultPlan"] = None

    def register(self, origin: str, app: App) -> None:
        self._origins[origin.rstrip("/")] = app

    def unregister(self, origin: str) -> None:
        """Remove an origin (subsequent requests behave like NXDOMAIN).

        Lets tests deploy and retract hostile origins around a single
        universe without rebuilding it."""
        self._origins.pop(origin.rstrip("/"), None)

    def install_fault_plan(self, plan: Optional["FaultPlan"]) -> None:
        """Install (or, with ``None``, remove) a fault-injection plan.

        Faults intercept *before* origin routing, like real network
        failures: even requests to registered, healthy apps can drop,
        stall, or bounce according to the plan.
        """
        self._fault_plan = plan

    @property
    def fault_plan(self) -> Optional["FaultPlan"]:
        return self._fault_plan

    def app_for(self, origin: str) -> Optional[App]:
        return self._origins.get(origin.rstrip("/"))

    def origins(self) -> list[str]:
        return sorted(self._origins)

    async def dispatch(self, request: Request) -> Response:
        """Route a request to its origin's app.

        An unknown origin behaves like an unresolvable
        host: the client surfaces it as a connection error (status 0),
        marked ``x-error: unknown-origin`` so retry logic can treat it as
        permanent (NXDOMAIN) rather than a transient drop.
        """
        if self._fault_plan is not None:
            return await self._fault_plan.apply(request, lambda: self._route(request))
        return await self._route(request)

    async def _route(self, request: Request) -> Response:
        app = self.app_for(request.origin)
        if app is None:
            return Response(0, {"x-error": "unknown-origin"}, b"")
        return await app.handle(request)
