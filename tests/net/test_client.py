"""Unit tests for the simulated HTTP client."""

import asyncio

import pytest

from repro.net import (
    ConstantLatency,
    FetchError,
    FunctionApp,
    HttpClient,
    Internet,
    NoLatency,
    Request,
    Response,
    StaticApp,
)


def make_internet():
    internet = Internet()
    app = StaticApp()
    app.put("/doc", "<http://x/a> <http://x/p> <http://x/b> .")
    internet.register("https://pods.example", app)
    return internet


def run(coro):
    return asyncio.run(coro)


class TestFetch:
    def test_successful_get(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        response = run(client.fetch("https://pods.example/doc"))
        assert response.status == 200
        assert "<http://x/a>" in response.text

    def test_fragment_is_stripped_before_dispatch(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        response = run(client.fetch("https://pods.example/doc#me"))
        assert response.status == 200

    def test_unknown_path_is_404(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        assert run(client.fetch("https://pods.example/missing")).status == 404

    def test_unknown_origin_is_status_zero(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        response = run(client.fetch("https://unknown.example/x"))
        assert response.status == 0

    def test_strict_mode_raises(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        with pytest.raises(FetchError):
            run(client.fetch("https://pods.example/missing", strict=True))

    def test_crashing_app_becomes_500(self):
        internet = Internet()

        def boom(request: Request) -> Response:
            raise RuntimeError("kaboom")

        internet.register("https://bad.example", FunctionApp(boom))
        client = HttpClient(internet, latency=NoLatency())
        assert run(client.fetch("https://bad.example/x")).status == 500

    def test_default_accept_header_sent(self):
        captured = {}

        def echo(request: Request) -> Response:
            captured["accept"] = request.header("accept")
            return Response(200, {"content-type": "text/plain"}, b"")

        internet = Internet()
        internet.register("https://echo.example", FunctionApp(echo))
        client = HttpClient(internet, latency=NoLatency())
        run(client.fetch("https://echo.example/"))
        assert "text/turtle" in captured["accept"]


class TestLogging:
    def test_every_request_logged_with_parent(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        run(client.fetch("https://pods.example/doc", parent_url="https://pods.example/root"))
        records = client.log.records
        assert len(records) == 1
        assert records[0].parent_url == "https://pods.example/root"
        assert records[0].status == 200
        assert records[0].response_size > 0

    def test_failures_logged_with_error(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        run(client.fetch("https://unknown.example/x"))
        record = client.log.records[0]
        assert record.status == 0 and record.error

    def test_retried_fetch_reads_the_clock_in_a_pinned_order(self):
        """Retry → ``Retry-After`` back-off → success under a tick clock:
        every record, attempt span and back-off span, with its timestamps.
        The clock is read once per ``fetch`` span edge, once entering the
        retry loop, twice per attempt and twice per back-off — tick goldens
        depend on that order, so the seams of ``fetch`` may not move one."""
        from repro.net.resilience import NetworkPolicy, RetryPolicy
        from repro.obs import TickClock, Tracer

        served = []

        def handler(request):
            served.append(request.url)
            if len(served) == 1:
                return Response(429, {"content-type": "text/plain", "retry-after": "0.002"}, b"slow down")
            return Response.ok_turtle("<http://x/a> <http://x/p> <http://x/b> .")

        internet = Internet()
        internet.register("https://pods.example", FunctionApp(handler))
        client = HttpClient(
            internet,
            latency=NoLatency(),
            policy=NetworkPolicy(retry=RetryPolicy(base_delay=0.0001, max_delay=0.001)),
        )
        tracer = Tracer(clock=TickClock(step=1.0))
        url, parent = "https://pods.example/doc", "https://pods.example/root"
        response = run(client.fetch(url, parent_url=parent, tracer=tracer))

        assert response.status == 200 and len(served) == 2
        assert client.resilience.retry_after_waits == 1
        size = len(response.body)
        assert [
            (r.status, r.attempt, r.started_at, r.finished_at, r.response_size, r.error, r.parent_url)
            for r in client.log.records
        ] == [
            (429, 1, 3.0, 4.0, len(b"slow down"), "HTTP 429", parent),
            (200, 2, 7.0, 8.0, size, "", parent),
        ]
        fetch_span = tracer.roots[0]
        assert (fetch_span.name, fetch_span.start, fetch_span.end) == ("fetch", 1.0, 9.0)
        assert fetch_span.args == {"url": url, "parent_url": parent}
        assert [(s.name, s.start, s.end, s.args) for s in fetch_span.children] == [
            (
                "attempt",
                3.0,
                4.0,
                {"url": url, "status": 429, "attempt": 1, "retried": True, "error": "HTTP 429", "size": 9},
            ),
            ("backoff", 5.0, 6.0, {"attempt": 1}),
            (
                "attempt",
                7.0,
                8.0,
                {
                    "url": url,
                    "status": 200,
                    "attempt": 2,
                    "from_cache": False,
                    "revalidated": False,
                    "error": "",
                    "size": size,
                },
            ),
        ]
        assert len(tracer.spans) == 4


class TestLatencyAndConcurrency:
    def test_latency_model_delays_requests(self):
        client = HttpClient(
            make_internet(), latency=ConstantLatency(rtt_seconds=0.01), latency_scale=1.0
        )
        run(client.fetch("https://pods.example/doc"))
        record = client.log.records[0]
        assert record.duration >= 0.009

    def test_latency_scale_zero_disables_sleep(self):
        client = HttpClient(
            make_internet(), latency=ConstantLatency(rtt_seconds=10.0), latency_scale=0.0
        )
        run(client.fetch("https://pods.example/doc"))  # returns immediately

    def test_per_origin_connection_cap(self):
        active = {"now": 0, "peak": 0}

        async def slow(request: Request) -> Response:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
            await asyncio.sleep(0.01)
            active["now"] -= 1
            return Response(200, {"content-type": "text/plain"}, b"x")

        internet = Internet()
        internet.register("https://slow.example", FunctionApp(slow))
        client = HttpClient(internet, latency=NoLatency(), max_connections_per_origin=2)

        async def many():
            await asyncio.gather(
                *[client.fetch(f"https://slow.example/{i}") for i in range(8)]
            )

        run(many())
        assert active["peak"] <= 2

    def test_the_connection_cap_outlives_an_event_loop(self):
        """Each ``asyncio.run`` is a new loop; the slot table belongs to none
        (an ``asyncio.Semaphore`` binds to the first loop contending on it)."""
        active = {"now": 0, "peak": 0}

        async def slow(request: Request) -> Response:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
            await asyncio.sleep(0.002)
            active["now"] -= 1
            return Response(200, {"content-type": "text/plain"}, b"x")

        internet = Internet()
        internet.register("https://slow.example", FunctionApp(slow))
        client = HttpClient(internet, latency=NoLatency(), max_connections_per_origin=2)

        async def many():
            responses = await asyncio.gather(
                *[client.fetch(f"https://slow.example/{i}") for i in range(6)]
            )
            return [response.status for response in responses]

        for _ in range(3):
            assert run(many()) == [200] * 6
        assert active["peak"] == 2
        assert client.in_flight("https://slow.example") == 0

    def test_in_flight_counts_holders_and_waiters_and_a_cancelled_waiter_leaves(self):
        async def scenario():
            opened = asyncio.Event()

            async def held(request: Request) -> Response:
                await opened.wait()
                return Response(200, {"content-type": "text/plain"}, b"x")

            internet = Internet()
            internet.register("https://held.example", FunctionApp(held))
            client = HttpClient(internet, latency=NoLatency(), max_connections_per_origin=2)
            assert client.origin_slots == 2
            tasks = [
                asyncio.create_task(client.fetch(f"https://held.example/{i}")) for i in range(4)
            ]
            await asyncio.sleep(0)
            assert client.in_flight("https://held.example") == 4  # two on the wire, two waiting
            tasks[3].cancel()
            await asyncio.sleep(0)
            assert client.in_flight("https://held.example") == 3
            opened.set()
            statuses = [response.status for response in await asyncio.gather(*tasks[:3])]
            return statuses, client.in_flight("https://held.example")

        assert run(scenario()) == ([200, 200, 200], 0)

    def test_get_text_convenience(self):
        client = HttpClient(make_internet(), latency=NoLatency())
        assert "<http://x/a>" in run(client.get_text("https://pods.example/doc"))
