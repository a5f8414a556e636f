"""Client-side resilience: retry policies, backoff, circuit breakers.

The paper's engine runs ``--lenient`` against the open Web, where flaky
pods are the norm, not the exception.  This module holds the policy
objects the :class:`~repro.net.client.HttpClient` consults to survive
them:

* :class:`RetryPolicy` — how many attempts a request gets, the
  exponential-backoff schedule between them (with *seeded* jitter so
  every run is reproducible), and a global retry budget;
* :class:`BreakerPolicy` / :class:`CircuitBreaker` — the classic
  closed → open → half-open state machine, one breaker per origin, so a
  dead pod is fast-failed instead of hammered while healthy pods keep
  being queried;
* :class:`NetworkPolicy` — the umbrella dataclass a client is
  constructed with (timeouts, retry, breaker, link re-queue knobs);
* :class:`ResilienceStats` — counters the completeness report in
  :class:`~repro.ltqp.stats.ExecutionStats` is built from.

Everything is deterministic: backoff jitter derives from
``(seed, url, attempt)`` exactly like the latency model's per-URL jitter,
so a seeded fault plan plus a seeded retry policy replays identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .latency import seeded_uniform

__all__ = [
    "RETRYABLE_STATUSES",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerRegistry",
    "NetworkPolicy",
    "ResilienceStats",
]

#: HTTP statuses worth retrying: transport failure (0), request timeout,
#: throttling, and server-side errors.  4xx client errors and 404s are
#: permanent — retrying them would only re-ask a correct question.
RETRYABLE_STATUSES = frozenset({0, 408, 429, 500, 502, 503, 504})

#: ``x-error`` marker values that make a status-0 response *permanent*
#: (an unresolvable host is NXDOMAIN, not a transient blip; a response
#: body over the read cap will be over it on every retry too).
PERMANENT_ERROR_MARKERS = frozenset({"unknown-origin", "body-too-large"})


def _is_retryable(response) -> bool:
    """Transient failure worth another attempt?  Transport drops, request
    timeouts, throttling, and 5xx are; NXDOMAIN and client errors are not."""
    if response.status not in RETRYABLE_STATUSES:
        return False
    return response.header("x-error") not in PERMANENT_ERROR_MARKERS


def _is_breaker_failure(response) -> bool:
    """Does this response count against the origin's circuit breaker?

    Only origin-health signals do: transport drops, timeouts, 408/429,
    and 5xx.  A 404/403 is a *healthy* origin answering correctly, and an
    unknown origin has no server whose health is worth tracking.
    """
    if response.status == 0:
        return response.header("x-error") not in PERMANENT_ERROR_MARKERS
    return response.status in (408, 429) or response.status >= 500


#: A server-sent ``Retry-After`` is honoured up to this many (simulated)
#: seconds.
MAX_RETRY_AFTER = 1.0


@dataclass(slots=True)
class RetryPolicy:
    """Retry/backoff knobs for one client.

    ``max_attempts`` counts the first try: ``1`` disables retries.  The
    backoff before retry *i* (0-based) is
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a seeded
    jitter factor in ``[1 - jitter, 1]`` — deterministic per
    ``(seed, url, i)``.  ``budget`` caps the total retries of whoever keeps
    the books — the execution whose :class:`ResilienceStats` travels with
    the fetch, or the client itself for callers that pass none — so a
    widely-broken Web cannot stall a traversal indefinitely and one
    query's retries never spend another's (``0`` disables the cap).
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 42
    budget: int = 1024

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def backoff_delay(self, url: str, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` of ``url``."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if self.jitter <= 0:
            return raw
        factor = seeded_uniform(self.seed, f"backoff/{url}/{retry_index}", 1.0 - self.jitter, 1.0)
        return raw * factor

    def schedule(self, url: str) -> list[float]:
        """The full deterministic backoff schedule for ``url``."""
        return [self.backoff_delay(url, i) for i in range(max(0, self.max_attempts - 1))]

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        return cls(max_attempts=1)


@dataclass(slots=True)
class BreakerPolicy:
    """Thresholds for the per-origin circuit breakers.

    ``failure_threshold`` consecutive failures open the breaker;
    ``recovery_seconds`` later it half-opens and admits
    ``half_open_probes`` trial requests — one success recloses it, one
    failure re-opens it.  ``failure_threshold <= 0`` disables breaking.
    """

    failure_threshold: int = 5
    recovery_seconds: float = 0.25
    half_open_probes: int = 1

    @property
    def enabled(self) -> bool:
        return self.failure_threshold > 0


class CircuitBreaker:
    """Closed → open → half-open state machine guarding one origin."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        #: The state as last recorded.  Unlike :attr:`state`, reading it
        #: never moves an expired open breaker to half-open, so a caller can
        #: compare it around a call to see the transition that call caused.
        self.phase = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.trips = 0  # closed→open transitions

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self.phase

    def _maybe_half_open(self) -> None:
        if (
            self.phase == self.OPEN
            and self._clock() - self._opened_at >= self._policy.recovery_seconds
        ):
            self.phase = self.HALF_OPEN
            self._probes_in_flight = 0

    def allow(self) -> bool:
        """May a request be sent to this origin right now?

        In half-open state each ``allow`` admits a probe; callers must
        report its outcome via ``record_success``/``record_failure``.
        """
        if not self._policy.enabled:
            return True
        self._maybe_half_open()
        if self.phase == self.CLOSED:
            return True
        if self.phase == self.HALF_OPEN:
            if self._probes_in_flight < self._policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False
        return False

    def record_success(self) -> None:
        if self.phase == self.HALF_OPEN:
            self.phase = self.CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0

    def record_failure(self) -> None:
        if not self._policy.enabled:
            return
        if self.phase == self.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self.phase == self.CLOSED and self._consecutive_failures >= self._policy.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.phase = self.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self.trips += 1


class BreakerRegistry:
    """One :class:`CircuitBreaker` per origin, created on demand."""

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}

    def for_origin(self, origin: str) -> CircuitBreaker:
        breaker = self._breakers.get(origin)
        if breaker is None:
            breaker = self._breakers[origin] = CircuitBreaker(self._policy, clock=self._clock)
        return breaker

    def trips_by_origin(self) -> dict[str, int]:
        return {origin: b.trips for origin, b in self._breakers.items() if b.trips}

    @property
    def trips_total(self) -> int:
        return sum(b.trips for b in self._breakers.values())


@dataclass(slots=True)
class NetworkPolicy:
    """Everything the network layer needs to know about fault handling.

    Its one home is the :class:`~repro.net.client.HttpClient` it is
    given to at construction (``client.policy``); the stack builders
    accept it as the ``network`` half of an
    :class:`~repro.ltqp.engine.EngineConfig` and hand it there.
    """

    #: Per-attempt timeout in simulated seconds (0 disables).
    request_timeout: float = 5.0
    #: Hard cap on a response body, enforced *while the body is read*:
    #: a transfer that exceeds it is aborted and surfaces as a status-0
    #: response marked ``x-error: body-too-large`` (permanent — the body
    #: will be over the cap on every retry).  An unbounded-document
    #: attack therefore costs at most ``max_response_bytes`` of memory
    #: and transfer per document.  ``0`` disables the cap.
    max_response_bytes: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: How many times the *dereferencer* may re-queue a link whose fetch
    #: failed retryably even after client-level retries (e.g. a tripped
    #: breaker that later recovers).
    max_link_requeues: int = 2

    @classmethod
    def no_retry(cls) -> "NetworkPolicy":
        """Retries, breaking, and re-queueing all off — the old behaviour."""
        return cls(
            retry=RetryPolicy.disabled(),
            breaker=BreakerPolicy(failure_threshold=0),
            max_link_requeues=0,
        )


@dataclass(slots=True)
class ResilienceStats:
    """What the resilience layer had to do: retries, timeouts, trips.

    The client keeps one for its lifetime; an execution that wants its
    own share hands another to each ``HttpClient.fetch`` call, and every
    event is counted into both — that per-execution instance is what the
    completeness report (``ExecutionStats.completeness``) is built from.
    """

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    retry_after_waits: int = 0
    breaker_fast_fails: int = 0
    budget_exhausted: int = 0
    #: Transfers aborted mid-read because the body exceeded
    #: :attr:`NetworkPolicy.max_response_bytes`.
    body_cap_aborts: int = 0
    #: Origin → breaker trips (→ open transitions) these calls caused.
    trips_by_origin: dict[str, int] = field(default_factory=dict)
