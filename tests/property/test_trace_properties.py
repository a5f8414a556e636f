"""Property tests: the span tree is a faithful account of execution.

For *any* seeded transient fault plan, a traced Discover run must
produce a trace that (a) is structurally well-formed — unique ids,
closed spans, child intervals nested inside parents, sibling starts
monotone; (b) reconciles 1:1 with the request log — every
``RequestRecord`` has exactly one matching ``attempt`` span and vice
versa; (c) agrees with :class:`ExecutionStats` on every derived count;
and (d) is deterministic — the same seed yields the identical tree.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ltqp import EngineConfig, NetworkPolicy
from repro.net.faults import FaultPlan
from repro.net.resilience import RetryPolicy
from repro.obs import (
    Tracer,
    check_trace_invariants,
    match_requests_to_attempts,
    span_tree_signature,
    trace_execution_stats,
)
from repro.solidbench import discover_query


def _engine_config(deterministic: bool = False) -> EngineConfig:
    # Zero back-off puts no timer on the loop, so the event sequence — and
    # with it the span tree — is a pure function of the fault plan.
    delays = (0.0, 0.0) if deterministic else (0.0001, 0.001)
    retry = RetryPolicy(max_attempts=4, base_delay=delays[0], max_delay=delays[1])
    return EngineConfig(network=NetworkPolicy(retry=retry))


def traced_run(universe, plan, deterministic: bool = False):
    """One traced Discover 1.5 execution under ``plan``; fault plan removed after."""
    universe.internet.install_fault_plan(plan)
    try:
        query = discover_query(universe, 1, 5)
        engine = universe.fast_engine(config=_engine_config(deterministic))
        tracer = Tracer()
        execution = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()
        return execution, tracer, engine.client.log
    finally:
        universe.internet.install_fault_plan(None)


def _plan(rate, fault_seed, fail_attempts, status):
    return FaultPlan.transient(
        rate=rate, seed=fault_seed, fail_attempts=fail_attempts, status=status
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rate=st.floats(min_value=0.0, max_value=0.5),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    fail_attempts=st.integers(min_value=1, max_value=3),
    status=st.sampled_from([429, 500, 503]),
)
def test_trace_well_formed_under_faults(
    tiny_universe, rate, fault_seed, fail_attempts, status
):
    _, tracer, _ = traced_run(
        tiny_universe, _plan(rate, fault_seed, fail_attempts, status)
    )
    assert check_trace_invariants(tracer) == []


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rate=st.floats(min_value=0.0, max_value=0.5),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    fail_attempts=st.integers(min_value=1, max_value=3),
    status=st.sampled_from([429, 500, 503]),
)
def test_every_request_record_has_exactly_one_attempt_span(
    tiny_universe, rate, fault_seed, fail_attempts, status
):
    _, tracer, log = traced_run(
        tiny_universe, _plan(rate, fault_seed, fail_attempts, status)
    )
    assert len(log.records) > 0
    assert match_requests_to_attempts(log, tracer) == []


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rate=st.floats(min_value=0.0, max_value=0.5),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    fail_attempts=st.integers(min_value=1, max_value=3),
    status=st.sampled_from([429, 500, 503]),
)
def test_stats_reconcile_with_trace_under_faults(
    tiny_universe, rate, fault_seed, fail_attempts, status
):
    execution, tracer, _ = traced_run(
        tiny_universe, _plan(rate, fault_seed, fail_attempts, status)
    )
    stats = execution.stats
    derived = trace_execution_stats(tracer)
    assert derived["documents_fetched"] == stats.documents_fetched
    assert derived["http_retries"] == stats.http_retries
    assert derived["time_to_first_result"] == stats.time_to_first_result


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fault_seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_gives_identical_span_tree(tiny_universe, fault_seed):
    # A FaultPlan tracks per-URL attempt streaks, so each run needs a
    # fresh plan built from the same seed.
    def plan():
        return FaultPlan.transient(rate=0.2, seed=fault_seed, fail_attempts=2)

    first_exec, first_trace, _ = traced_run(tiny_universe, plan(), deterministic=True)
    second_exec, second_trace, _ = traced_run(tiny_universe, plan(), deterministic=True)
    assert len(first_exec) == len(second_exec)
    assert span_tree_signature(first_trace) == span_tree_signature(second_trace)
