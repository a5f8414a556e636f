"""Async HTTP client over the simulated :class:`~repro.net.router.Internet`.

Reproduces the client-side behaviours that shape the paper's resource
waterfalls: a browser-like per-origin concurrency cap, simulated latency
(see :mod:`repro.net.latency`), and full request logging with parent-URL
provenance (see :mod:`repro.net.log`).  Errors never raise by default —
the LTQP engine runs ``--lenient`` against the open Web, so failures are
represented as status-0 responses the caller can skip.

On top of that sits the resilience layer (see :mod:`repro.net.resilience`):
per-attempt timeouts, retries with seeded exponential backoff,
``Retry-After`` honouring, and a per-origin circuit breaker — all
governed by the :class:`~repro.net.resilience.NetworkPolicy` passed in
(or its defaults).  Every attempt is logged individually, so waterfalls
show retries as separate bars.

One client serves many concurrent query executions, so it holds no
observer of any of them: the tracer and the
:class:`~repro.net.resilience.ResilienceStats` a caller wants its fetches
counted into travel with each :meth:`HttpClient.fetch` call.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .cache import HttpCache
from .latency import LatencyModel, SeededJitterLatency
from .log import RequestLog
from .message import Request, Response, split_url
from .resilience import (
    MAX_RETRY_AFTER,
    BreakerRegistry,
    CircuitBreaker,
    NetworkPolicy,
    ResilienceStats,
    _is_breaker_failure,
    _is_retryable,
)
from .router import Internet

__all__ = ["HttpClient", "FetchError"]


class FetchError(RuntimeError):
    """Raised by :meth:`HttpClient.fetch` in strict mode on network failure."""

    def __init__(self, url: str, message: str) -> None:
        super().__init__(f"{message}: {url}")
        self.url = url


def _error_text(response: Response) -> str:
    if response.status != 0:
        return ""
    marker = response.header("x-error")
    if marker == "unknown-origin":
        return "connection failed (unknown origin)"
    if marker == "timeout":
        return "request timed out"
    if marker == "body-too-large":
        return "response body too large"
    if marker == "circuit-open":
        return "circuit breaker open"
    if response.header("x-fault"):
        return f"connection failed (injected {response.header('x-fault')})"
    return "connection failed"


class _OriginSlots:
    """The per-origin connection cap: at most ``cap`` requests of one
    origin hold a slot at once, and the rest wait in arrival order.

    Bound to no event loop — a waiter is a future of whichever loop is
    running when it queues — so one client serves successive
    ``asyncio.run`` calls."""

    __slots__ = ("cap", "_held", "_waiting")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._held: dict[str, int] = {}
        self._waiting: dict[str, deque] = {}

    def in_flight(self, origin: str) -> int:
        """Requests of ``origin`` holding a slot or waiting for one."""
        return self._held.get(origin, 0) + len(self._waiting.get(origin, ()))

    async def acquire(self, origin: str) -> None:
        held = self._held.get(origin, 0)
        if held < self.cap and origin not in self._waiting:
            self._held[origin] = held + 1
            return
        waiter = asyncio.get_running_loop().create_future()
        queue = self._waiting.setdefault(origin, deque())
        queue.append(waiter)
        try:
            await waiter  # the releasing request hands its slot over
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                self.release(origin)  # handed over just as this request was cancelled
            elif waiter in queue:
                queue.remove(waiter)
                if not queue and self._waiting.get(origin) is queue:
                    del self._waiting[origin]
            raise

    def release(self, origin: str) -> None:
        queue = self._waiting.get(origin)
        while queue:
            waiter = queue.popleft()
            if not queue:
                del self._waiting[origin]
            if not waiter.done() and not waiter.get_loop().is_closed():
                waiter.set_result(None)
                return
        held = self._held[origin] - 1
        if held:
            self._held[origin] = held
        else:
            del self._held[origin]


@dataclass(slots=True)
class _Call:
    """One ``fetch`` call's record: what is asked, on whose behalf, and who
    is watching.  Every seam of the fetch works on it, so it is the one
    place an attempt is written down (:meth:`note_attempt`) and the one place an
    event is counted (:meth:`count`)."""

    log: RequestLog
    method: str
    url: str
    origin: str
    parent_url: Optional[str]
    tracer: object
    #: The books events are counted into: the client's own, then the
    #: caller's when it passed one.  The last is whose retries the retry
    #: budget is judged against.
    counted: tuple[ResilienceStats, ...]
    clock: Callable[[], float]
    #: The ``fetch`` span attempts and back-offs nest under (traced calls).
    span: object = None
    #: The current attempt: its number and its time window.
    attempt: int = 1
    started: float = 0.0
    finished: float = 0.0

    def count(self, stat: str) -> None:
        """One more ``stat`` in every book."""
        for stats in self.counted:
            setattr(stats, stat, getattr(stats, stat) + 1)

    def transition(self, old: str, new: str) -> None:
        """Count the breaker trip this call caused, if it caused one."""
        if new != old and new == CircuitBreaker.OPEN:
            for stats in self.counted:
                stats.trips_by_origin[self.origin] = stats.trips_by_origin.get(self.origin, 0) + 1

    def note_attempt(self, response: Response, error: str = "", **flags: bool) -> None:
        """Write the current attempt down: one log record and, when traced,
        one ``attempt`` span with identical timestamps, so log and trace
        reconcile exactly.  ``flags`` say what kind of attempt it was
        (``from_cache`` / ``revalidated`` / ``retried``)."""
        self.log.record(
            method=self.method,
            url=self.url,
            status=response.status,
            started_at=self.started,
            finished_at=self.finished,
            response_size=len(response.body),
            parent_url=self.parent_url,
            error=error,
            from_cache=flags.get("from_cache", False),
            attempt=self.attempt,
        )
        if self.tracer is not None:
            self.tracer.add(
                "attempt",
                self.started,
                self.finished,
                parent=self.span,
                url=self.url,
                status=response.status,
                attempt=self.attempt,
                **flags,
                error=error,
                size=len(response.body),
            )


class HttpClient:
    """Asynchronous client with logging, latency, limits, and retries."""

    def __init__(
        self,
        internet: Internet,
        latency: Optional[LatencyModel] = None,
        max_connections_per_origin: int = 6,
        latency_scale: float = 1.0,
        log: Optional[RequestLog] = None,
        cache: Optional[HttpCache] = None,
        policy: Optional[NetworkPolicy] = None,
    ) -> None:
        self.internet = internet
        self._latency = latency if latency is not None else SeededJitterLatency()
        self._latency_scale = latency_scale
        self._slots = _OriginSlots(max_connections_per_origin)
        self.log = log if log is not None else RequestLog()
        self.cache = cache
        #: The one home of the network policy: given here, run by every
        #: fetch, read (never re-installed) by the layers above.
        self.policy = policy if policy is not None else NetworkPolicy()
        self.breakers = BreakerRegistry(self.policy.breaker)
        self.resilience = ResilienceStats()
        #: Fallback tracer (see :mod:`repro.obs`) for callers that own the
        #: client outright and assign it by hand.  A client shared by
        #: concurrent executions holds none: each ``fetch`` is handed its
        #: caller's ``tracer=``, which overrides this.
        self.tracer = None

    @property
    def origin_slots(self) -> int:
        """The per-origin connection cap (a browser's ~6)."""
        return self._slots.cap

    def in_flight(self, origin: str) -> int:
        """Requests to ``origin`` on the wire or waiting for a slot — over
        every caller sharing this client."""
        return self._slots.in_flight(origin)

    async def fetch(
        self,
        url: str,
        method: str = "GET",
        headers: Optional[dict[str, str]] = None,
        parent_url: Optional[str] = None,
        strict: bool = False,
        trace_parent=None,
        revalidate: bool = False,
        tracer=None,
        resilience: Optional[ResilienceStats] = None,
    ) -> Response:
        """Fetch a URL through the simulated Web.

        ``parent_url`` records which document's links led here (waterfall
        provenance).  In lenient mode (default) transport errors come back
        as status-0 responses; with ``strict=True`` they raise
        :class:`FetchError`.  Transient failures are retried according to
        the client's :class:`~repro.net.resilience.NetworkPolicy`; each
        attempt is logged separately.

        ``revalidate=True`` skips the cache's freshness fast-path and
        always issues a conditional request (``If-None-Match`` when an
        ETag is cached): the live-refresh path, where a still-fresh cached
        copy is exactly what must be re-checked against the origin.

        Observers travel with the call: ``tracer`` (falling back to the
        attribute of the same name) and ``resilience``,
        a :class:`~repro.net.resilience.ResilienceStats` counted alongside
        the client's own.  With a tracer, the call records a ``fetch``
        span (nested under ``trace_parent``) with one ``attempt`` child
        per logged request record — identical timestamps, so log and
        trace reconcile exactly — plus ``backoff`` children for retry
        sleeps; all timestamps then come from the tracer's clock.
        """
        origin, _, clean_url = split_url(url)
        if tracer is None:
            tracer = self.tracer
        call = _Call(
            log=self.log,
            method=method,
            url=clean_url,
            origin=origin,
            parent_url=parent_url,
            tracer=tracer,
            counted=(self.resilience,) if resilience is None else (self.resilience, resilience),
            clock=tracer.clock if tracer is not None else time.monotonic,
        )
        if tracer is not None:
            call.span = tracer.begin(
                "fetch", parent=trace_parent, url=clean_url, parent_url=parent_url or ""
            )
        try:
            # -- cache consultation (the browser "(disk cache)" of Fig. 4) ----
            cache = self.cache if method == "GET" else None
            entry = cache.lookup(clean_url) if cache is not None else None
            if entry is not None and not revalidate and entry.is_fresh():
                cache.hits += 1
                call.started = call.finished = call.clock()
                call.note_attempt(entry.response, from_cache=True)
                return entry.response

            request_headers = {"accept": "text/turtle, application/n-triples;q=0.8"}
            if headers:
                request_headers.update(headers)
            if entry is not None and entry.etag:
                request_headers["if-none-match"] = entry.etag

            response = await self._exchange(
                call, Request(method=method, url=clean_url, headers=request_headers)
            )

            revalidated = False
            if cache is not None:
                if response.status == 304 and entry is not None:
                    # Revalidated: renew and answer with the cached body.
                    entry.renew(now=call.clock())
                    cache.revalidations += 1
                    response = entry.response
                    revalidated = True
                elif response.status == 200:
                    cache.misses += 1
                    cache.store(clean_url, response)

            error_text = _error_text(response)
            call.note_attempt(response, error_text, from_cache=revalidated, revalidated=revalidated)
            if strict and (response.status == 0 or response.status >= 400):
                raise FetchError(clean_url, error_text or f"HTTP {response.status}")
            return response
        finally:
            if tracer is not None:
                tracer.end(call.span)

    async def _exchange(self, call: _Call, request: Request) -> Response:
        """Attempt ``request`` until an answer need not, or may not, be
        retried.  Each attempt that is retried is written down and backed
        off from here; the final one is left stamped on ``call`` for
        :meth:`fetch` to write down once the cache has seen it."""
        retry = self.policy.retry
        breaker = self.breakers.for_origin(call.origin)
        call.started = call.finished = call.clock()
        # The breaker judges the *final* outcome of the last real attempt —
        # a request that recovers via retries proves the origin is alive,
        # so transient flakiness never trips it; only requests that stay
        # failed after the retry loop (or with retries off) count.
        last_real_response: Optional[Response] = None
        while True:
            phase = breaker.phase
            allowed = breaker.allow()
            call.transition(phase, breaker.phase)
            if not allowed:
                # Fast-fail: the origin tripped its breaker; don't queue
                # behind it, and don't retry — the dereferencer may
                # re-queue the link for after the recovery window.
                call.count("breaker_fast_fails")
                call.started = call.finished = call.clock()
                response = Response(0, {"x-error": "circuit-open"}, b"")
                break
            response = last_real_response = await self._attempt(call, request)
            if not _is_retryable(response) or call.attempt >= retry.max_attempts:
                break
            # A caller that keeps its own books spends its own budget: one
            # query's retries never deny a neighbour its first.
            if retry.budget and call.counted[-1].retries >= retry.budget:
                call.count("budget_exhausted")
                break
            call.note_attempt(response, _error_text(response) or f"HTTP {response.status}", retried=True)
            call.count("retries")
            await self._back_off(call, response)
            call.attempt += 1

        if last_real_response is not None:
            # Fast-failed requests (no real attempt) carry no health signal.
            phase = breaker.phase
            if _is_breaker_failure(last_real_response):
                breaker.record_failure()
            else:
                breaker.record_success()
            call.transition(phase, breaker.phase)
        return response

    async def _attempt(self, call: _Call, request: Request) -> Response:
        """One request on the wire — a connection slot, the timeout, the
        body cap, the transfer time — with its window stamped on ``call``."""
        call.count("attempts")
        await self._slots.acquire(call.origin)
        try:
            call.started = call.clock()
            timeout = self.policy.request_timeout
            try:
                # asyncio.timeout (3.11+) instead of wait_for: it adds no
                # extra task or scheduling point, so an in-process app that
                # answers without awaiting keeps the exact pre-timeout
                # interleaving.  ``None`` (timeouts off) arms nothing.
                async with asyncio.timeout(timeout if timeout and timeout > 0 else None):
                    response = await self.internet.dispatch(request)
            except asyncio.TimeoutError:
                call.count("timeouts")
                response = Response(0, {"x-error": "timeout"}, b"")
            except Exception as error:  # a buggy app is a 500, not a crash
                response = Response(500, {"content-type": "text/plain"}, str(error).encode())
            transferred = len(response.body)
            cap = self.policy.max_response_bytes
            if cap and transferred > cap:
                # Abort the transfer *at* the cap: the oversized tail is
                # never read, so latency is paid for at most ``cap`` bytes
                # and no downstream layer ever holds the full body.
                # Permanent — see ``PERMANENT_ERROR_MARKERS``.
                call.count("body_cap_aborts")
                response = Response(
                    0, {"x-error": "body-too-large", "x-refused-bytes": str(transferred)}, b""
                )
                transferred = cap
            delay = self._latency.latency_for(call.url, transferred)
            if delay > 0 and self._latency_scale > 0:
                await asyncio.sleep(delay * self._latency_scale)
            call.finished = call.clock()
        finally:
            self._slots.release(call.origin)
        return response

    async def _back_off(self, call: _Call, response: Response) -> None:
        """Sleep out the gap before the next attempt: the seeded schedule,
        or the server's ``Retry-After`` when that asks for longer."""
        retry = self.policy.retry
        backoff = retry.backoff_delay(call.url, call.attempt - 1)
        retry_after = response.header("retry-after")
        if retry_after:
            try:
                backoff = max(backoff, min(float(retry_after), MAX_RETRY_AFTER))
                call.count("retry_after_waits")
            except ValueError:
                pass
        if backoff > 0:
            backoff_started = call.clock() if call.tracer is not None else 0.0
            await asyncio.sleep(backoff * self._latency_scale)
            if call.tracer is not None:
                call.tracer.add(
                    "backoff", backoff_started, call.clock(), parent=call.span, attempt=call.attempt
                )

    async def get_text(self, url: str, strict: bool = True) -> str:
        """Convenience GET returning the body text."""
        response = await self.fetch(url, strict=strict)
        return response.text
