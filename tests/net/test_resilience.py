"""Unit tests for the resilience layer: backoff, breakers, client retries."""

import asyncio

from repro.net import FunctionApp, HttpClient, Internet, NoLatency, Response, StaticApp
from repro.net.faults import FaultPlan, FaultRule
from repro.net.resilience import (
    BreakerPolicy,
    BreakerRegistry,
    CircuitBreaker,
    NetworkPolicy,
    RetryPolicy,
)

ORIGIN = "https://pods.example"


def run(coro):
    return asyncio.run(coro)


def fast_retry(**overrides) -> RetryPolicy:
    """A retry policy whose backoff sleeps are negligible in tests."""
    defaults = dict(max_attempts=4, base_delay=0.0001, max_delay=0.001)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestBackoffDeterminism:
    def test_same_url_same_delays(self):
        policy = RetryPolicy(seed=9)
        url = f"{ORIGIN}/doc"
        first = [policy.backoff_delay(url, i) for i in range(3)]
        second = [policy.backoff_delay(url, i) for i in range(3)]
        assert first == second

    def test_delays_grow_exponentially_modulo_jitter(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=10.0, jitter=0.0)
        delays = [policy.backoff_delay("u", i) for i in range(4)]
        assert delays == [0.01, 0.02, 0.04, 0.08]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=1.0, max_delay=1.0, jitter=0.5)
        for i in range(20):
            delay = policy.backoff_delay(f"u{i}", 0)
            assert 0.005 <= delay <= 0.01

    def test_max_delay_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0)
        assert policy.backoff_delay("u", 5) == 2.0

    def test_schedule_lists_all_retry_gaps(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        assert len(policy.schedule("u")) == 3

    def test_disabled_policy_never_retries(self):
        assert not RetryPolicy.disabled().enabled
        assert RetryPolicy.disabled().max_attempts == 1


class TestCircuitBreaker:
    def make(self, **kwargs):
        self.now = 0.0
        policy = BreakerPolicy(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_seconds=kwargs.pop("recovery_seconds", 10.0),
            half_open_probes=kwargs.pop("half_open_probes", 1),
        )
        return CircuitBreaker(policy, clock=lambda: self.now)

    def test_starts_closed_and_allows(self):
        breaker = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = self.make(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_opens_after_recovery_window(self):
        breaker = self.make(recovery_seconds=10.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        self.now = 11.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_admits_limited_probes(self):
        breaker = self.make(half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        self.now = 11.0
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # second concurrent probe rejected

    def test_half_open_success_closes(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.now = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.now = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_disabled_breaker_never_opens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=0))
        for _ in range(50):
            breaker.record_failure()
        assert breaker.allow()


class TestBreakerRegistry:
    def test_one_breaker_per_origin(self):
        registry = BreakerRegistry(BreakerPolicy(failure_threshold=1))
        a = registry.for_origin("https://a.example")
        b = registry.for_origin("https://b.example")
        assert a is not b
        assert registry.for_origin("https://a.example") is a

    def test_trips_by_origin(self):
        registry = BreakerRegistry(BreakerPolicy(failure_threshold=1))
        registry.for_origin("https://a.example").record_failure()
        assert registry.trips_by_origin() == {"https://a.example": 1}
        assert registry.trips_total == 1


class TestClientRetries:
    def flaky_internet(self, failures=1, status=503, headers=None):
        """An origin that fails the first ``failures`` requests per URL."""
        counts: dict[str, int] = {}

        def handler(request):
            counts[request.url] = counts.get(request.url, 0) + 1
            if counts[request.url] <= failures:
                return Response(status, dict(headers or {"content-type": "text/plain"}), b"boom")
            return Response.ok_turtle("<http://x/a> <http://x/p> <http://x/b> .")

        internet = Internet()
        internet.register(ORIGIN, FunctionApp(handler))
        return internet

    def test_retry_recovers_transient_503(self):
        client = HttpClient(
            self.flaky_internet(failures=2),
            latency=NoLatency(),
            policy=NetworkPolicy(retry=fast_retry()),
        )
        response = run(client.fetch(f"{ORIGIN}/doc"))
        assert response.status == 200
        assert client.resilience.retries == 2
        # Every attempt is in the log: two failures plus the success.
        assert len(client.log) == 3
        assert sum(1 for record in client.log.records if record.is_retry) == 2

    def test_no_retry_policy_preserves_single_attempt(self):
        client = HttpClient(
            self.flaky_internet(failures=1),
            latency=NoLatency(),
            policy=NetworkPolicy.no_retry(),
        )
        response = run(client.fetch(f"{ORIGIN}/doc"))
        assert response.status == 503
        assert client.resilience.retries == 0
        assert len(client.log) == 1

    def test_404_not_retried(self):
        internet = Internet()
        internet.register(ORIGIN, StaticApp())
        client = HttpClient(
            internet, latency=NoLatency(), policy=NetworkPolicy(retry=fast_retry())
        )
        assert run(client.fetch(f"{ORIGIN}/missing")).status == 404
        assert client.resilience.retries == 0

    def test_unknown_origin_not_retried(self):
        client = HttpClient(
            Internet(), latency=NoLatency(), policy=NetworkPolicy(retry=fast_retry())
        )
        response = run(client.fetch("https://unknown.example/x"))
        assert response.status == 0
        assert response.header("x-error") == "unknown-origin"
        assert client.resilience.retries == 0

    def test_retry_after_header_honoured(self):
        client = HttpClient(
            self.flaky_internet(
                failures=1,
                status=429,
                headers={"content-type": "text/plain", "retry-after": "0.001"},
            ),
            latency=NoLatency(),
            policy=NetworkPolicy(retry=fast_retry()),
        )
        response = run(client.fetch(f"{ORIGIN}/doc"))
        assert response.status == 200
        assert client.resilience.retry_after_waits == 1

    def test_timeout_produces_marker_and_counts(self):
        async def slow(request):
            await asyncio.sleep(0.2)
            return Response.ok_turtle("")

        internet = Internet()
        internet.register(ORIGIN, FunctionApp(slow))
        client = HttpClient(
            internet,
            latency=NoLatency(),
            policy=NetworkPolicy(
                request_timeout=0.01, retry=fast_retry(max_attempts=2)
            ),
        )
        response = run(client.fetch(f"{ORIGIN}/slow"))
        assert response.status == 0
        assert response.header("x-error") == "timeout"
        assert client.resilience.timeouts == 2  # both attempts timed out

    def test_breaker_fast_fails_when_origin_down(self):
        internet = Internet()
        internet.install_fault_plan(FaultPlan([FaultRule(kind="drop", origin=ORIGIN)]))
        internet.register(ORIGIN, StaticApp())
        client = HttpClient(
            internet,
            latency=NoLatency(),
            policy=NetworkPolicy(
                retry=RetryPolicy.disabled(),
                breaker=BreakerPolicy(failure_threshold=2, recovery_seconds=60.0),
            ),
        )
        # Observers travel with the call: the second caller's fetch is the
        # one that trips the breaker, so the trip is in *its* books only.
        from repro.net.resilience import ResilienceStats

        callers = [ResilienceStats(), ResilienceStats()]
        for i, stats in enumerate(callers):
            run(client.fetch(f"{ORIGIN}/doc{i}", resilience=stats))
        response = run(client.fetch(f"{ORIGIN}/doc9"))
        assert response.header("x-error") == "circuit-open"
        assert client.resilience.breaker_fast_fails == 1
        assert client.resilience.trips_by_origin == {ORIGIN: 1}
        assert [stats.trips_by_origin for stats in callers] == [{}, {ORIGIN: 1}]
        assert [stats.attempts for stats in callers] == [1, 1]
        assert client.tracer is None

    def test_retry_budget_bounds_total_retries(self):
        client = HttpClient(
            self.flaky_internet(failures=10),
            latency=NoLatency(),
            policy=NetworkPolicy(retry=fast_retry(max_attempts=10, budget=2)),
        )
        run(client.fetch(f"{ORIGIN}/doc"))
        assert client.resilience.retries == 2
        assert client.resilience.budget_exhausted == 1

    def test_retry_budget_is_spent_from_the_callers_own_books(self):
        """Two callers share one client: the first spends its whole budget
        on a dead document, the second still gets its retries."""
        from repro.net.resilience import ResilienceStats

        calls = {"/flaky": 0}

        def handler(request):
            if request.url.endswith("/dead"):
                return Response(503, {"content-type": "text/plain"}, b"boom")
            calls["/flaky"] += 1
            if calls["/flaky"] == 1:
                return Response(503, {"content-type": "text/plain"}, b"boom")
            return Response.ok_turtle("<http://x/a> <http://x/p> <http://x/b> .")

        internet = Internet()
        internet.register(ORIGIN, FunctionApp(handler))
        client = HttpClient(
            internet,
            latency=NoLatency(),
            policy=NetworkPolicy(
                retry=fast_retry(max_attempts=10, budget=2),
                breaker=BreakerPolicy(failure_threshold=0),
            ),
        )
        first, second = ResilienceStats(), ResilienceStats()
        assert run(client.fetch(f"{ORIGIN}/dead", resilience=first)).status == 503
        assert (first.retries, first.budget_exhausted) == (2, 1)
        assert run(client.fetch(f"{ORIGIN}/flaky", resilience=second)).status == 200
        assert (second.retries, second.budget_exhausted) == (1, 0)
        # The client's own books still count everything it ever did.
        assert (client.resilience.retries, client.resilience.budget_exhausted) == (3, 1)
