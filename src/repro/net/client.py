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
observer of any of them: the tracer, the metrics registry and the
:class:`~repro.net.resilience.ResilienceStats` a caller wants its fetches
counted into travel with each :meth:`HttpClient.fetch` call.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from .cache import HttpCache
from .latency import LatencyModel, SeededJitterLatency
from .log import RequestLog
from .message import Request, Response, split_url
from .resilience import (
    BreakerRegistry,
    CircuitBreaker,
    NetworkPolicy,
    PERMANENT_ERROR_MARKERS,
    RETRYABLE_STATUSES,
    ResilienceStats,
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


def _is_retryable(response: Response) -> bool:
    """Transient failure worth another attempt?  Transport drops, request
    timeouts, throttling, and 5xx are; NXDOMAIN and client errors are not."""
    if response.status not in RETRYABLE_STATUSES:
        return False
    return response.header("x-error") not in PERMANENT_ERROR_MARKERS


def _is_breaker_failure(response: Response) -> bool:
    """Does this response count against the origin's circuit breaker?

    Only origin-health signals do: transport drops, timeouts, 408/429,
    and 5xx.  A 404/403 is a *healthy* origin answering correctly, and an
    unknown origin has no server whose health is worth tracking.
    """
    if response.status == 0:
        return response.header("x-error") not in PERMANENT_ERROR_MARKERS
    return response.status in (408, 429) or response.status >= 500


def _note_transition(origin: str, old: str, new: str, metrics, counted) -> None:
    """Report the breaker transition one call caused to that call's observers."""
    if new == CircuitBreaker.OPEN:
        for stats in counted:
            stats.trips_by_origin[origin] = stats.trips_by_origin.get(origin, 0) + 1
    if metrics is not None:
        metrics.counter(f"breaker.transitions.{old}->{new}").inc()
        metrics.counter(f"breaker.transitions[{origin}]").inc()


class HttpClient:
    """Asynchronous client with logging, latency, limits, and retries."""

    def __init__(
        self,
        internet: Internet,
        latency: Optional[LatencyModel] = None,
        max_connections_per_origin: int = 6,
        latency_scale: float = 1.0,
        log: Optional[RequestLog] = None,
        default_headers: Optional[dict[str, str]] = None,
        cache: Optional[HttpCache] = None,
        policy: Optional[NetworkPolicy] = None,
    ) -> None:
        self._internet = internet
        self._latency = latency if latency is not None else SeededJitterLatency()
        self._latency_scale = latency_scale
        self._max_per_origin = max_connections_per_origin
        self._semaphores: dict[str, asyncio.Semaphore] = {}
        self._log = log if log is not None else RequestLog()
        self._default_headers = dict(default_headers or {})
        self._cache = cache
        self._explicit_policy = policy is not None
        self._policy = policy if policy is not None else NetworkPolicy()
        self._breakers = BreakerRegistry(self._policy.breaker)
        self._resilience = ResilienceStats()
        #: Fallback observers (see :mod:`repro.obs`) for callers that own
        #: the client outright and assign them by hand.  A client shared
        #: by concurrent executions holds none: each ``fetch`` is handed
        #: its caller's ``tracer=`` / ``metrics=``, which override these.
        self.tracer = None
        self.metrics = None

    @property
    def cache(self) -> Optional[HttpCache]:
        return self._cache

    @property
    def log(self) -> RequestLog:
        return self._log

    @property
    def internet(self) -> Internet:
        return self._internet

    @property
    def policy(self) -> NetworkPolicy:
        return self._policy

    @property
    def has_explicit_policy(self) -> bool:
        """Was this client constructed with its own :class:`NetworkPolicy`?

        If not, an engine adopting the client installs its own policy."""
        return self._explicit_policy

    def apply_policy(self, policy: NetworkPolicy) -> None:
        """Install ``policy``, resetting per-origin breakers to match."""
        self._policy = policy
        self._breakers = BreakerRegistry(policy.breaker)

    @property
    def resilience(self) -> ResilienceStats:
        return self._resilience

    @property
    def breakers(self) -> BreakerRegistry:
        return self._breakers

    def _semaphore_for(self, origin: str) -> asyncio.Semaphore:
        if origin not in self._semaphores:
            self._semaphores[origin] = asyncio.Semaphore(self._max_per_origin)
        return self._semaphores[origin]

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
        metrics=None,
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

        Observers travel with the call: ``tracer`` / ``metrics`` (each
        falling back to the attribute of the same name) and ``resilience``,
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
        if metrics is None:
            metrics = self.metrics
        counted = (self._resilience,) if resilience is None else (self._resilience, resilience)
        clock = tracer.clock if tracer is not None else time.monotonic
        fetch_span = (
            tracer.begin(
                "fetch", parent=trace_parent, url=clean_url, parent_url=parent_url or ""
            )
            if tracer is not None
            else None
        )
        try:
            request_headers = dict(self._default_headers)
            request_headers.setdefault("accept", "text/turtle, application/n-triples;q=0.8")
            if headers:
                request_headers.update(headers)

            # -- cache consultation (the browser "(disk cache)" of Fig. 4) ----
            cache_entry = None
            if self._cache is not None and method == "GET":
                cache_entry = self._cache.lookup(clean_url)
                if cache_entry is not None and not revalidate and cache_entry.is_fresh():
                    self._cache.hits += 1
                    if metrics is not None:
                        metrics.counter("cache.hits").inc()
                    now = clock()
                    self._log.record(
                        method=method,
                        url=clean_url,
                        status=cache_entry.response.status,
                        started_at=now,
                        finished_at=now,
                        response_size=len(cache_entry.response.body),
                        parent_url=parent_url,
                        from_cache=True,
                    )
                    if tracer is not None:
                        tracer.add(
                            "attempt",
                            now,
                            now,
                            parent=fetch_span,
                            url=clean_url,
                            status=cache_entry.response.status,
                            attempt=1,
                            from_cache=True,
                            error="",
                            size=len(cache_entry.response.body),
                        )
                    return cache_entry.response
                if cache_entry is not None and cache_entry.etag:
                    request_headers["if-none-match"] = cache_entry.etag

            request = Request(method=method, url=clean_url, headers=request_headers)

            retry = self._policy.retry
            max_attempts = max(1, retry.max_attempts)
            breaker = self._breakers.for_origin(origin)
            attempt = 0
            started = finished = clock()
            # The breaker judges the *final* outcome of the last real attempt —
            # a request that recovers via retries proves the origin is alive,
            # so transient flakiness never trips it; only requests that stay
            # failed after the retry loop (or with retries off) count.
            last_real_response: Optional[Response] = None
            while True:
                attempt += 1
                phase = breaker.phase
                allowed = breaker.allow()
                if breaker.phase != phase:
                    _note_transition(origin, phase, breaker.phase, metrics, counted)
                if not allowed:
                    # Fast-fail: the origin tripped its breaker; don't queue
                    # behind it, and don't retry — the dereferencer may
                    # re-queue the link for after the recovery window.
                    for stats in counted:
                        stats.breaker_fast_fails += 1
                    if metrics is not None:
                        metrics.counter("breaker.fast_fails").inc()
                    started = finished = clock()
                    response = Response(0, {"x-error": "circuit-open"}, b"")
                    break
                for stats in counted:
                    stats.attempts += 1
                if metrics is not None:
                    metrics.counter("http.attempts").inc()
                semaphore = self._semaphore_for(origin)
                async with semaphore:
                    started = clock()
                    try:
                        timeout = self._policy.request_timeout
                        if timeout and timeout > 0:
                            # asyncio.timeout (3.11+) instead of wait_for: it
                            # adds no extra task or scheduling point, so an
                            # in-process app that answers without awaiting
                            # keeps the exact pre-timeout interleaving.
                            async with asyncio.timeout(timeout):
                                response = await self._internet.dispatch(request)
                        else:
                            response = await self._internet.dispatch(request)
                    except asyncio.TimeoutError:
                        for stats in counted:
                            stats.timeouts += 1
                        if metrics is not None:
                            metrics.counter("http.timeouts").inc()
                        response = Response(0, {"x-error": "timeout"}, b"")
                    except Exception as error:  # a buggy app is a 500, not a crash
                        response = Response(500, {"content-type": "text/plain"}, str(error).encode())
                    cap = self._policy.max_response_bytes
                    if cap and len(response.body) > cap:
                        # Abort the transfer *at* the cap: the oversized tail
                        # is never read, so latency is paid for at most
                        # ``cap`` bytes and no downstream layer ever holds
                        # the full body.  Permanent — see
                        # ``PERMANENT_ERROR_MARKERS``.
                        for stats in counted:
                            stats.body_cap_aborts += 1
                        if metrics is not None:
                            metrics.counter("http.body_cap_aborts").inc()
                        response = Response(
                            0,
                            {
                                "x-error": "body-too-large",
                                "x-refused-bytes": str(len(response.body)),
                            },
                            b"",
                        )
                        delay = self._latency.latency_for(clean_url, cap)
                    else:
                        delay = self._latency.latency_for(clean_url, len(response.body))
                    if delay > 0 and self._latency_scale > 0:
                        await asyncio.sleep(delay * self._latency_scale)
                    finished = clock()
                last_real_response = response
                if metrics is not None:
                    metrics.histogram("fetch.latency_s").observe(finished - started)

                if not _is_retryable(response) or attempt >= max_attempts:
                    break
                if retry.budget and self._resilience.retries >= retry.budget:
                    for stats in counted:
                        stats.budget_exhausted += 1
                    break

                # -- log the failed attempt, back off, go again ------------
                self._log.record(
                    method=method,
                    url=clean_url,
                    status=response.status,
                    started_at=started,
                    finished_at=finished,
                    response_size=len(response.body),
                    parent_url=parent_url,
                    error=_error_text(response) or f"HTTP {response.status}",
                    attempt=attempt,
                )
                if tracer is not None:
                    tracer.add(
                        "attempt",
                        started,
                        finished,
                        parent=fetch_span,
                        url=clean_url,
                        status=response.status,
                        attempt=attempt,
                        retried=True,
                        error=_error_text(response) or f"HTTP {response.status}",
                        size=len(response.body),
                    )
                for stats in counted:
                    stats.retries += 1
                if metrics is not None:
                    metrics.counter("http.retries").inc()
                backoff = retry.backoff_delay(clean_url, attempt - 1)
                retry_after = response.header("retry-after")
                if retry.respect_retry_after and retry_after:
                    try:
                        backoff = max(backoff, min(float(retry_after), retry.max_retry_after))
                        for stats in counted:
                            stats.retry_after_waits += 1
                    except ValueError:
                        pass
                if backoff > 0:
                    if tracer is not None:
                        backoff_started = clock()
                        await asyncio.sleep(backoff * self._latency_scale)
                        tracer.add(
                            "backoff",
                            backoff_started,
                            clock(),
                            parent=fetch_span,
                            attempt=attempt,
                        )
                    else:
                        await asyncio.sleep(backoff * self._latency_scale)

            if last_real_response is not None:
                # Fast-failed requests (no real attempt) carry no health signal.
                phase = breaker.phase
                if _is_breaker_failure(last_real_response):
                    breaker.record_failure()
                else:
                    breaker.record_success()
                if breaker.phase != phase:
                    _note_transition(origin, phase, breaker.phase, metrics, counted)

            served_from_cache = False
            revalidated = False
            if self._cache is not None and method == "GET":
                if response.status == 304 and cache_entry is not None:
                    # Revalidated: renew and answer with the cached body.
                    cache_entry.renew(now=clock())
                    self._cache.revalidations += 1
                    if metrics is not None:
                        metrics.counter("cache.revalidations").inc()
                    response = cache_entry.response
                    served_from_cache = True
                    revalidated = True
                elif response.status == 200:
                    self._cache.misses += 1
                    self._cache.store(clean_url, response)

            error_text = _error_text(response)
            self._log.record(
                method=method,
                url=clean_url,
                status=response.status,
                started_at=started,
                finished_at=finished,
                response_size=len(response.body),
                parent_url=parent_url,
                error=error_text,
                from_cache=served_from_cache,
                attempt=attempt,
            )
            if tracer is not None:
                tracer.add(
                    "attempt",
                    started,
                    finished,
                    parent=fetch_span,
                    url=clean_url,
                    status=response.status,
                    attempt=attempt,
                    from_cache=served_from_cache,
                    revalidated=revalidated,
                    error=error_text,
                    size=len(response.body),
                )
            if strict and (response.status == 0 or response.status >= 400):
                raise FetchError(clean_url, f"HTTP {response.status}" if response.status else error_text)
            return response
        finally:
            if fetch_span is not None:
                tracer.end(fetch_span)

    async def get_text(self, url: str, strict: bool = True) -> str:
        """Convenience GET returning the body text."""
        response = await self.fetch(url, strict=strict)
        return response.text
