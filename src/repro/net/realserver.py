"""Serve an :class:`~repro.net.router.App` over real sockets.

The in-process transport is the default (fast, deterministic), but the demo
paper's system talks real HTTP; this bridge is the one place the project
speaks it.  Every request becomes one :class:`Request` for the app and its
:class:`Response` is written back once.  The demo web UI puts its app here;
a whole simulated :class:`~repro.net.router.Internet` gets a URL rewrite in
front of ``Internet.dispatch`` instead, so all registered origins multiplex
onto one local port — the original origin is reconstructed from the URL
path prefix ``/origin/<scheme>/<host>/...``, or is the only origin when
just one is registered.
"""

from __future__ import annotations

import asyncio
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Union

from .message import Request, Response
from .router import App, Internet

__all__ = ["RealHttpServer"]


class _OriginRewrite(App):
    """A whole :class:`Internet` as one app: local paths → simulated URLs."""

    def __init__(self, internet: Internet) -> None:
        self._internet = internet

    async def handle(self, request: Request) -> Response:
        path = request.path
        parts = path.split("/")
        origins = self._internet.origins()
        # ['', 'origin', scheme, host, ...path]
        if len(parts) >= 4 and parts[1] == "origin":
            url = f"{parts[2]}://{parts[3]}/{'/'.join(parts[4:])}"
        elif len(origins) == 1:
            url = origins[0] + path
        else:
            return Response(
                400, {"content-type": "text/plain"}, b"expected /origin/<scheme>/<host>/<path>"
            )
        return await self._internet.dispatch(
            Request(request.method, url, request.headers, request.body)
        )


class RealHttpServer:
    """A threaded stdlib HTTP server fronting an :class:`App` (or a whole
    :class:`Internet`).

    Use as a context manager::

        with RealHttpServer(internet) as server:
            url = server.url_for("https://pod.example/profile/card")
            # fetch it with any real HTTP client
    """

    def __init__(
        self, app: Union[App, Internet], host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._app = _OriginRewrite(app) if isinstance(app, Internet) else app
        self._host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def url_for(self, simulated_url: str) -> str:
        """Map a simulated URL to a URL served by this real server."""
        scheme, rest = simulated_url.split("://", 1)
        host, _, path = rest.partition("/")
        return f"{self.base_url}/origin/{scheme}/{host}/{path}"

    def start(self) -> "RealHttpServer":
        bridge = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args) -> None:  # silence
                pass

            def __getattr__(self, name: str):
                # Any method: ``do_GET``, ``do_POST``, ``do_PATCH``... is one
                # exchange with the app, which answers 405 where it must.
                if name.startswith("do_"):
                    return self._exchange
                raise AttributeError(name)

            def _exchange(self) -> None:
                length = int(self.headers.get("content-length") or 0)
                request = Request(
                    self.command,
                    bridge.base_url + self.path,
                    dict(self.headers.items()),
                    self.rfile.read(length) if length else b"",
                )
                try:
                    response = asyncio.run(bridge._app.handle(request))
                except Exception as error:  # noqa: BLE001 — a failed handler is a 500
                    response = Response(
                        500, {"content-type": "text/plain"}, str(error).encode("utf-8")
                    )
                # Status 0 is the simulation's unreachable origin.
                self.send_response(response.status or 502)
                for name, value in response.headers.items():
                    if name != "content-length":
                        self.send_header(name, value)
                self.send_header("content-length", str(len(response.body)))
                self.end_headers()
                if self.command != "HEAD":
                    self.wfile.write(response.body)

        self._server = ThreadingHTTPServer((self._host, self._requested_port), _Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "RealHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
