"""Run a QueryService on a dedicated event-loop thread.

The :class:`~repro.service.QueryService` is asyncio-native; the socket
bridge (:class:`~repro.net.RealHttpServer`) answers on threads.  This
host owns a background event loop so synchronous callers (HTTP handler
threads — the demo app moves each request onto :attr:`loop` — and the
CLI) can submit queries into one long-lived service::

    host = ServiceHost(service).start()
    result = host.execute("SELECT ...", seeds=[...])   # from any thread
    host.statistics()
    host.stop()

All executions funnel into the *same* loop, so the service's admission
control and shared caches behave exactly as they do in-process.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable, Optional

from ..ltqp.engine import ExecutionResult

__all__ = ["ServiceHost"]


class ServiceHost:
    """Thread-owning wrapper exposing a blocking façade over a service."""

    def __init__(self, service) -> None:
        # Either service: both answer the one surface, whose async
        # start/drain/stop the host runs on its loop.
        self._service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def service(self):
        return self._service

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("service host is not running")
        return self._loop

    def start(self, timeout: Optional[float] = None) -> "ServiceHost":
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="query-service", daemon=True)
        self._thread.start()
        self._started.wait()
        # The sharded front-end spawns its workers here, on its own loop.
        asyncio.run_coroutine_threadsafe(
            self._service.start(), self._loop
        ).result(timeout)
        return self

    def execute(
        self,
        query: str,
        seeds: Optional[Iterable[str]] = None,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> ExecutionResult:
        """Submit-and-wait from any thread (blocking)."""
        future = asyncio.run_coroutine_threadsafe(
            self._service.run(query, seeds=seeds, **kwargs), self.loop
        )
        return future.result(timeout)

    def statistics(self) -> dict:
        return self._service.statistics()

    def stop(
        self, drain_timeout: float = 5.0, join_timeout: float = 10.0
    ) -> list[dict]:
        """Drain, stop the service, and join the loop thread.

        Returns the snapshots of queries *still in flight* at the drain
        deadline — they are about to be torn down with the loop, and
        silently swallowing them hides exactly the shutdowns an operator
        needs to see.  Raises :class:`RuntimeError` if the loop thread
        refuses to die within ``join_timeout``.
        """
        pending: list[dict] = []
        if self._loop is not None and self._thread is not None:
            try:
                pending = asyncio.run_coroutine_threadsafe(
                    self._service.drain(drain_timeout), self._loop
                ).result(drain_timeout + 10.0)
            except Exception:  # noqa: BLE001 — drain is best-effort
                pass
            if pending:
                # Surfaced — now shut them down properly instead of
                # letting loop teardown garbage-collect live traversals.
                try:
                    asyncio.run_coroutine_threadsafe(
                        self._cancel_inflight(), self._loop
                    ).result(10.0)
                except Exception:  # noqa: BLE001 — keep tearing down
                    pass
            # The service shuts down on the loop before it stops: workers
            # exit (sharded), the storage backend is released (in-process).
            try:
                asyncio.run_coroutine_threadsafe(
                    self._service.stop(), self._loop
                ).result(30.0)
            except Exception:  # noqa: BLE001 — keep tearing down
                pass
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"service loop thread still alive after {join_timeout}s; "
                    f"{len(pending)} queries were pending at drain"
                )
            self._thread = None
        if self._loop is not None:
            self._loop.close()
            self._loop = None
        self._started.clear()
        return pending

    async def _cancel_inflight(self) -> None:
        handles = [h for h in self._service.inflight() if not h.done]
        await asyncio.gather(
            *(handle.cancel() for handle in handles), return_exceptions=True
        )

    def __enter__(self) -> "ServiceHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
