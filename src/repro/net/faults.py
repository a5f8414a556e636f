"""Deterministic network-fault injection for the simulated Web.

A :class:`FaultPlan` installs on the :class:`~repro.net.router.Internet`
(``internet.install_fault_plan(plan)``) and intercepts every dispatched
request before it reaches the origin's app.  Each :class:`FaultRule`
matches requests (by origin, URL substring, or request count) and injects
one fault kind:

* ``drop``    — the connection dies: a status-0 response;
* ``status``  — an HTTP error (429/503/…), optionally with ``Retry-After``;
* ``delay``   — the response arrives late (extra simulated seconds);
* ``trickle`` — a pathologically slow response (a large delay, modelling
  a server that drips bytes);
* ``flap``    — the origin oscillates dead/alive in windows of
  ``flap_period`` requests (down for the first ``flap_down`` of each).

Everything is seeded: whether a given URL is faulted is a pure function
of ``(seed, rule, url)``, and *transient* rules (``fail_attempts = N``)
fault only the first N attempts for that URL, then let it through — so a
retrying client deterministically recovers, and every failure scenario in
tests and benchmarks replays exactly.

Injected responses carry an ``x-fault`` header so logs, waterfalls, and
assertions can tell injected faults from genuine application errors.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional

from .message import Request, Response

__all__ = ["FaultRule", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("drop", "status", "delay", "trickle", "flap")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One matching + injection rule of a :class:`FaultPlan`."""

    kind: str = "status"
    #: Match only this origin (``https://host[:port]``); ``None`` = any.
    origin: Optional[str] = None
    #: Match URLs containing this substring; ``None`` = any.
    url_pattern: Optional[str] = None
    #: Fraction of matching URLs that are faulted (seeded draw per URL).
    rate: float = 1.0
    #: Fault only the first N attempts per URL (transient); 0 = every one.
    fail_attempts: int = 0
    #: For ``kind="status"``: the injected HTTP status code.
    status: int = 503
    #: ``Retry-After`` value (simulated seconds) on injected statuses; 0 = omit.
    retry_after: float = 0.0
    #: Extra simulated delay for ``delay``/``trickle`` (seconds).
    delay_seconds: float = 0.05
    #: For ``kind="trickle"``: when > 0, the delay also scales with the
    #: response size — ``delay_seconds + len(body) / drip_bytes_per_second``
    #: — modelling a server that drips bytes at a fixed rate, so bigger
    #: documents stall longer.  The sleep happens inside the dispatch the
    #: client wraps in its per-attempt timeout, which is exactly the
    #: defense: a trickling origin costs at most ``request_timeout`` per
    #: attempt.
    drip_bytes_per_second: float = 0.0
    #: For ``kind="flap"``: window length and down-fraction, in requests.
    flap_period: int = 8
    flap_down: int = 4

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})")

    def matches(self, request: Request) -> bool:
        if self.origin is not None and request.origin != self.origin.rstrip("/"):
            return False
        if self.url_pattern is not None and self.url_pattern not in request.url:
            return False
        return True


class FaultPlan:
    """A seeded, reproducible set of fault rules plus injection counters."""

    def __init__(self, rules: Optional[list[FaultRule]] = None, seed: int = 42) -> None:
        self._rules = list(rules or [])
        self._seed = seed
        #: Per-URL attempt counter (how often each URL has been requested).
        self._attempts: dict[str, int] = {}
        #: Per-origin request counter (drives ``flap`` windows).
        self._origin_requests: dict[str, int] = {}
        self.injected_by_kind: dict[str, int] = {}
        self.injected_by_origin: dict[str, int] = {}

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def transient(
        cls,
        rate: float,
        seed: int = 42,
        fail_attempts: int = 1,
        kind: str = "status",
        status: int = 503,
        retry_after: float = 0.0,
    ) -> "FaultPlan":
        """Fault a seeded ``rate`` fraction of URLs for their first
        ``fail_attempts`` attempts, then recover — the scenario the
        fault-tolerance property test replays: with client retries
        ``>= fail_attempts`` the query's answer must be unchanged."""
        return cls(
            [
                FaultRule(
                    kind=kind,
                    rate=rate,
                    fail_attempts=fail_attempts,
                    status=status,
                    retry_after=retry_after,
                )
            ],
            seed=seed,
        )

    @classmethod
    def origin_outage(cls, origin: str, seed: int = 42, kind: str = "drop") -> "FaultPlan":
        """A completely dead origin (every request faulted, forever)."""
        return cls([FaultRule(kind=kind, origin=origin)], seed=seed)

    # ------------------------------------------------------------------

    @property
    def rules(self) -> list[FaultRule]:
        return list(self._rules)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def total_injected(self) -> int:
        return sum(self.injected_by_kind.values())

    def is_faulted_url(self, rule_index: int, url: str) -> bool:
        """The seeded per-URL draw for one rule (pure, no counters)."""
        rule = self._rules[rule_index]
        if rule.rate >= 1.0:
            return True
        if rule.rate <= 0.0:
            return False
        return random.Random(f"{self._seed}/{rule_index}/{url}").random() < rule.rate

    def _decide(self, request: Request) -> Optional[FaultRule]:
        """Which rule (if any) fires for this request — counts one attempt."""
        url = request.url
        attempt = self._attempts.get(url, 0) + 1
        self._attempts[url] = attempt
        origin_count = self._origin_requests.get(request.origin, 0) + 1
        self._origin_requests[request.origin] = origin_count
        for index, rule in enumerate(self._rules):
            if not rule.matches(request):
                continue
            if rule.kind == "flap":
                period = max(1, rule.flap_period)
                if (origin_count - 1) % period >= rule.flap_down:
                    continue  # currently in the "up" part of the window
            elif not self.is_faulted_url(index, url):
                continue
            if rule.fail_attempts and attempt > rule.fail_attempts:
                continue  # transient fault already passed for this URL
            return rule
        return None

    def _record(self, rule: FaultRule, request: Request) -> None:
        self.injected_by_kind[rule.kind] = self.injected_by_kind.get(rule.kind, 0) + 1
        self.injected_by_origin[request.origin] = (
            self.injected_by_origin.get(request.origin, 0) + 1
        )

    async def apply(
        self, request: Request, forward: Callable[[], Awaitable[Response]]
    ) -> Response:
        """Intercept one request: inject a fault or forward it untouched."""
        rule = self._decide(request)
        if rule is None:
            return await forward()
        self._record(rule, request)
        if rule.kind in ("drop", "flap"):
            return Response(0, {"x-fault": rule.kind}, b"")
        if rule.kind == "status":
            headers = {"content-type": "text/plain", "x-fault": "status"}
            if rule.retry_after > 0:
                headers["retry-after"] = f"{rule.retry_after:g}"
            return Response(rule.status, headers, b"injected fault")
        # delay / trickle: the response is intact but late.
        if rule.kind == "trickle" and rule.drip_bytes_per_second > 0:
            response = await forward()
            await asyncio.sleep(
                rule.delay_seconds + len(response.body) / rule.drip_bytes_per_second
            )
            return response
        await asyncio.sleep(rule.delay_seconds)
        return await forward()
