"""Property test: concurrency through the service is unobservable.

For *any* mix of Discover queries and any under-budget transient fault
plan, running them concurrently through one :class:`QueryService` —
sharing one client, HTTP cache, and parsed-document store — must yield,
per query, exactly the result multiset of a serial fault-free run.
Faults stay masked by retries, and no shared state leaks between
concurrent executions — not into each other's answers, and not into each
other's books either: a traced query's span tree holds its own fetches
and nobody else's, the shared client is left holding no observer, and
every retry the client made is in exactly one query's statistics.
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ltqp import EngineConfig, NetworkPolicy
from repro.net import NoLatency
from repro.net.faults import FaultPlan, FaultRule
from repro.net.resilience import RetryPolicy
from repro.obs import Tracer
from repro.service import QueryService, SharedResources
from repro.solidbench import discover_query

_SERIAL_BASELINES: dict[tuple[int, int], tuple[list[str], int]] = {}


def _network() -> NetworkPolicy:
    return NetworkPolicy(
        retry=RetryPolicy(max_attempts=4, base_delay=0.0001, max_delay=0.001)
    )


def serial_baseline(universe, template: int) -> tuple[list[str], int]:
    """A query's solo, fault-free run: its sorted bindings and request count."""
    key = (id(universe), template)
    if key not in _SERIAL_BASELINES:
        named = discover_query(universe, template, 5)
        engine = universe.fast_engine(config=EngineConfig(network=_network()))
        execution = engine.query(named.text, seeds=named.seeds).run_sync()
        _SERIAL_BASELINES[key] = (
            sorted(repr(b) for b in execution.bindings),
            len(engine.client.log.records),
        )
    return _SERIAL_BASELINES[key]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    templates=st.lists(st.sampled_from([1, 2, 4, 5]), min_size=2, max_size=5),
    rate=st.floats(min_value=0.0, max_value=0.4),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_concurrent_service_matches_serial_runs(
    tiny_universe, templates, rate, fault_seed
):
    # A *fresh* plan per run: FaultPlan is stateful (it counts attempts).
    plan = (
        FaultPlan.transient(rate=rate, seed=fault_seed, fail_attempts=2)
        if rate > 0
        else None
    )
    tiny_universe.internet.install_fault_plan(plan)
    try:
        resources = SharedResources.for_universe(
            tiny_universe, latency=NoLatency(), config=EngineConfig(network=_network())
        )
        service = QueryService(resources, max_concurrent=len(templates))
        queries = [discover_query(tiny_universe, t, 5) for t in templates]
        tracer = Tracer()  # the first query is traced, its neighbours are not

        async def scenario():
            handles = [
                service.submit(
                    named.text, seeds=named.seeds, tracer=None if index else tracer
                )
                for index, named in enumerate(queries)
            ]
            return await asyncio.gather(*(h.wait() for h in handles))

        results = asyncio.run(scenario())
    finally:
        tiny_universe.internet.install_fault_plan(None)

    for template, result in zip(templates, results):
        got = sorted(repr(timed.binding) for timed in result.results)
        assert got == serial_baseline(tiny_universe, template)[0], (
            f"concurrent Discover {template} diverged from its serial run"
        )
    assert service.completed == len(templates)

    # No bleed through the shared client: the traced query's fetch spans
    # are its own (each under one of its dereferences, as many as it makes
    # when run alone — masked faults add attempts, not fetches) ...
    by_id = {span.span_id: span for span in tracer.spans}
    fetches = [span for span in tracer.spans if span.name == "fetch"]
    assert all(
        span.parent_id in by_id and by_id[span.parent_id].name == "dereference"
        for span in fetches
    ), "a neighbour's fetch landed in the traced query's span tree"
    assert len(fetches) == serial_baseline(tiny_universe, templates[0])[1]
    # ... the client is left holding nobody's observers ...
    assert resources.client.tracer is None
    # ... and each retry, timeout and fast-fail belongs to exactly one query.
    lifetime = resources.client.resilience
    assert sum(r.stats.http_retries for r in results) == lifetime.retries
    assert sum(r.stats.http_timeouts for r in results) == lifetime.timeouts
    assert sum(r.stats.breaker_fast_fails for r in results) == lifetime.breaker_fast_fails


def test_a_neighbours_retries_never_spend_this_querys_budget(tiny_universe):
    """The retry budget is per query, like every other book: with every
    document failing its first attempt, a query needs one retry per
    request — and gets them, however many its neighbour on the same
    client has already spent."""
    queries = [discover_query(tiny_universe, 1, 5, person_index=i) for i in (0, 1)]
    solo = []
    for named in queries:
        engine = tiny_universe.fast_engine(config=EngineConfig(network=_network()))
        execution = engine.query(named.text, seeds=named.seeds).run_sync()
        solo.append(
            (sorted(repr(b) for b in execution.bindings), len(engine.client.log.records))
        )
    # Enough for either query alone, not for both out of one pot.
    budget = max(requests for _, requests in solo)
    network = _network()
    network.retry.budget = budget
    network.max_link_requeues = 0

    tiny_universe.internet.install_fault_plan(
        FaultPlan([FaultRule(kind="status", fail_attempts=1)])
    )
    try:
        resources = SharedResources.for_universe(
            tiny_universe, latency=NoLatency(), config=EngineConfig(network=network)
        )
        service = QueryService(resources)

        async def back_to_back():
            return [await service.run(named.text, seeds=named.seeds) for named in queries]

        results = asyncio.run(back_to_back())
    finally:
        tiny_universe.internet.install_fault_plan(None)

    for result, (bindings, _) in zip(results, solo):
        assert sorted(repr(timed.binding) for timed in result.results) == bindings
        assert 0 < result.stats.http_retries <= budget
    # Together they spent more than one budget, and nobody was denied.
    lifetime = resources.client.resilience
    assert lifetime.retries == sum(r.stats.http_retries for r in results) > budget
    assert lifetime.budget_exhausted == 0
