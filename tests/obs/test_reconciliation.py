"""Trace/stats/log reconciliation on real engine executions.

The trace is only trustworthy if it agrees with every other account of
the same run: the engine's :class:`ExecutionStats` and the client's
:class:`RequestLog` must derive the same numbers.  These tests run
Discover queries (clean and under injected faults) and cross-check all
three books.
"""

import pytest

from repro.ltqp import EngineConfig, NetworkPolicy
from repro.net.faults import FaultPlan
from repro.net.resilience import BreakerPolicy, RetryPolicy
from repro.obs import (
    Tracer,
    check_trace_invariants,
    match_requests_to_attempts,
    trace_execution_stats,
)
from repro.solidbench import discover_query


def traced_discover(universe, template=1, variant=5, plan=None, network=None):
    universe.internet.install_fault_plan(plan)
    try:
        query = discover_query(universe, template, variant)
        config = EngineConfig(network=network) if network is not None else None
        engine = universe.fast_engine(config=config)
        tracer = Tracer()
        execution = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()
        return execution, tracer, engine.client.log
    finally:
        universe.internet.install_fault_plan(None)


def fast_retry() -> NetworkPolicy:
    return NetworkPolicy(
        retry=RetryPolicy(max_attempts=4, base_delay=0.0001, max_delay=0.001)
    )


def assert_books_agree(execution, tracer, log):
    stats = execution.stats
    derived = trace_execution_stats(tracer)

    assert check_trace_invariants(tracer) == []
    assert match_requests_to_attempts(log, tracer) == []

    assert derived["documents_fetched"] == stats.documents_fetched
    # Every ok ``dereference`` span says how many of its quads the plan reads.
    assert derived["triples_stored"] == stats.triples_stored <= stats.triples_discovered
    assert derived["documents_retried"] == stats.documents_retried
    assert derived["documents_abandoned"] == stats.documents_abandoned
    assert derived["documents_refused"] == stats.documents_refused
    # Depth suppression and the links a document / time bound left are
    # attribution-only (no refused dereference span); every other kind
    # must reconcile count-for-count with the trace.
    engine_kinds = {
        kind: count
        for kind, count in stats.refusals_by_kind.items()
        if kind not in ("depth", "max-documents", "max-duration")
    }
    assert derived["refusals_by_kind"] == engine_kinds
    assert derived["http_retries"] == stats.http_retries
    assert derived["http_timeouts"] == stats.http_timeouts
    assert derived["breaker_fast_fails"] == stats.breaker_fast_fails
    assert derived["time_to_first_result"] == stats.time_to_first_result
    # Every log record past a request's first attempt follows one retry
    # the execution counted.
    assert sum(1 for record in log.records if record.attempt > 1) == stats.http_retries
    assert stats.result_count == len(execution.results)


class TestCleanRun:
    def test_all_books_agree(self, tiny_universe):
        execution, tracer, log = traced_discover(tiny_universe)
        assert len(execution) > 0
        assert_books_agree(execution, tracer, log)

    def test_first_result_marker_matches_stats_exactly(self, tiny_universe):
        execution, tracer, _ = traced_discover(tiny_universe)
        markers = [s for s in tracer.spans if s.name == "first-result"]
        assert len(markers) == 1
        query_span = next(s for s in tracer.spans if s.name == "query")
        derived_ttfr = markers[0].start - query_span.start
        assert derived_ttfr == execution.stats.time_to_first_result

    def test_one_dereference_span_per_fetched_document(self, tiny_universe):
        execution, tracer, _ = traced_discover(tiny_universe)
        ok_derefs = [
            s
            for s in tracer.spans
            if s.name == "dereference" and s.args.get("outcome") == "ok"
        ]
        assert len(ok_derefs) == execution.stats.documents_fetched

    def test_http_attempt_metric_matches_log(self, tiny_universe):
        """The ``--stats`` latency percentiles are read from the waterfall's
        network rows: one per log record that touched the network, with the
        record's own duration."""
        from repro.bench.waterfall import build_waterfall

        _, tracer, log = traced_discover(tiny_universe)
        network_records = [r for r in log.records if not r.from_cache]
        assert build_waterfall(tracer).network_latencies() == sorted(
            r.finished_at - r.started_at for r in network_records
        )


class TestFaultedRun:
    def test_books_agree_under_transient_faults(self, tiny_universe):
        plan = FaultPlan.transient(rate=0.3, seed=13, fail_attempts=2)
        execution, tracer, log = traced_discover(
            tiny_universe, plan=plan, network=fast_retry()
        )
        assert execution.stats.http_retries > 0  # faults actually fired
        assert_books_agree(execution, tracer, log)

    def test_retry_attempts_carry_backoff_spans(self, tiny_universe):
        plan = FaultPlan.transient(rate=0.3, seed=13, fail_attempts=2)
        execution, tracer, _ = traced_discover(
            tiny_universe, plan=plan, network=fast_retry()
        )
        backoffs = [s for s in tracer.spans if s.name == "backoff"]
        assert len(backoffs) == execution.stats.http_retries
        for span in backoffs:
            assert span.end >= span.start

    def test_answer_unchanged_but_trace_differs(self, tiny_universe):
        clean_exec, clean_trace, _ = traced_discover(
            tiny_universe, network=fast_retry()
        )
        plan = FaultPlan.transient(rate=0.3, seed=13, fail_attempts=2)
        faulted_exec, faulted_trace, _ = traced_discover(
            tiny_universe, plan=plan, network=fast_retry()
        )
        assert sorted(map(repr, clean_exec.bindings)) == sorted(
            map(repr, faulted_exec.bindings)
        )
        clean_attempts = sum(1 for s in clean_trace.spans if s.name == "attempt")
        faulted_attempts = sum(1 for s in faulted_trace.spans if s.name == "attempt")
        assert faulted_attempts > clean_attempts


class TestRefusedRun:
    """Budget refusals must keep all three books in agreement.

    A link-trap origin is lured into an origin-budgeted traversal: every
    refusal the engine counts must appear in the trace as a dereference
    span with ``outcome="refused"`` and the budget kind, and
    :func:`trace_execution_stats` must re-derive the same counters.
    """

    def _refused_run(self, universe):
        from repro.ltqp import TraversalPolicy
        from repro.solidbench.adversary import AdversaryPlan, deploy_adversary

        deployment = deploy_adversary(
            universe.internet,
            AdversaryPlan(seed=7, kinds=("link-trap",), origin_prefix="adv-rec"),
        )
        try:
            query = discover_query(universe, 1, 5)
            config = EngineConfig(
                network=NetworkPolicy(
                    retry=RetryPolicy.disabled(),
                    breaker=BreakerPolicy(failure_threshold=0),
                    max_link_requeues=0,
                ),
                traversal=TraversalPolicy(max_origin_derefs=128, queue_policy="fair"),
            )
            engine = universe.fast_engine(config=config)
            tracer = Tracer()
            execution = engine.query(
                query.text,
                seeds=list(query.seeds) + list(deployment.lures),
                tracer=tracer,
            ).run_sync()
            return execution, tracer, engine.client.log
        finally:
            deployment.uninstall()

    def test_books_agree_under_refusals(self, tiny_universe):
        execution, tracer, log = self._refused_run(tiny_universe)
        stats = execution.stats
        assert stats.documents_refused > 0  # the budget actually fired
        assert stats.refusals_by_kind.get("origin-derefs", 0) > 0
        assert_books_agree(execution, tracer, log)

    def test_every_refusal_leaves_an_attributed_span(self, tiny_universe):
        execution, tracer, _ = self._refused_run(tiny_universe)
        refused_spans = [
            s
            for s in tracer.spans
            if s.name == "dereference" and s.args.get("outcome") == "refused"
        ]
        assert len(refused_spans) == execution.stats.documents_refused
        for span in refused_spans:
            assert span.args.get("refused") in (
                "origin-derefs",
                "origin-bytes",
                "doc-bytes",
                "parse-bytes",
            )

    def test_refusals_are_not_failures_in_any_book(self, tiny_universe):
        execution, tracer, _ = self._refused_run(tiny_universe)
        derived = trace_execution_stats(tracer)
        # Refusals never double-count as failures: both books agree on
        # the (benign, pre-existing) failure count, and no failed span
        # is on the adversary's origin — every hostile-origin denial is
        # a refusal, not a failure.
        assert derived["documents_failed"] == execution.stats.documents_failed
        failed_spans = [
            s
            for s in tracer.spans
            if s.name == "dereference"
            and s.args.get("outcome") not in ("ok", "refused")
        ]
        assert not [s for s in failed_spans if "adv-rec" in s.args.get("url", "")]


class TestLiveRun:
    """Live-maintenance spans must reconcile with the LiveQuery's state.

    A standing query leaves its own books: ``refresh`` spans (outcome
    changed/unchanged/failed with diff sizes) and ``apply-batch`` spans
    (signed maintenance batches).  :func:`trace_execution_stats` derives
    counters from them that must agree with the LiveQuery's event history
    and failure record — and the trace must stay well-formed even though
    maintenance happens after the query span closed.
    """

    def _traced_live(self):
        import asyncio

        from repro.ltqp.live import LiveQuery
        from repro.net.message import Request
        from repro.solidbench import SolidBenchConfig, build_universe

        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        pod = next(iter(universe.pods.values()))
        foaf = "http://xmlns.com/foaf/0.1/"
        query = f"SELECT ?name WHERE {{ <{pod.webid}> <{foaf}name> ?name }}"
        tracer = Tracer()
        engine = universe.fast_engine()
        live = LiveQuery(engine, query, seeds=[pod.profile_url], tracer=tracer)

        async def scenario():
            from urllib.parse import urlsplit

            await live.start()
            await live.refresh(pod.profile_url)  # unchanged: 304, no events
            parts = urlsplit(pod.profile_url)
            app = universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
            headers = {"content-type": "application/sparql-update"}
            headers.update(app.login_owner(parts.path))
            update = (
                f'DELETE DATA {{ <{pod.webid}> <{foaf}name> "{pod.owner_name}" }} ;\n'
                f'INSERT DATA {{ <{pod.webid}> <{foaf}name> "Reconciled" }}'
            )
            response = await universe.internet.dispatch(
                Request("PATCH", pod.profile_url, headers, update.encode("utf-8"))
            )
            assert response.status == 200
            await live.refresh(pod.profile_url)  # changed: -1/+1 events
            await live.refresh("ftp://nowhere.invalid/doc")  # failed

        asyncio.run(scenario())
        return live, tracer

    def test_live_counters_reconcile_with_event_history(self):
        live, tracer = self._traced_live()
        derived = trace_execution_stats(tracer)

        assert derived["refreshes"] == 3
        assert derived["refreshes_unchanged"] == 1
        assert derived["refreshes_changed"] == 1
        assert derived["refreshes_failed"] == len(live.failed_refreshes) == 1
        # One rename is exactly one retraction plus one addition.
        assert derived["diff_added"] == 1
        assert derived["diff_removed"] == 1
        # Every maintenance change the pipeline published is an event in
        # the history (initial results are not maintenance changes).
        initial = sum(1 for e in live.events if e.url == "")
        assert derived["maintenance_changes"] == len(live.events) - initial == 2
        assert derived["apply_batches"] >= 1
        assert derived["retraction_batches"] >= 1

    def test_live_trace_stays_well_formed_past_quiescence(self):
        _, tracer = self._traced_live()
        assert check_trace_invariants(tracer) == []
        # apply-batch spans nest under their refresh, never the closed
        # query span.
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.name == "apply-batch":
                assert by_id[span.parent_id].name == "refresh"

    def test_a_refresh_that_follows_a_new_link_reconciles(self):
        """The link a refresh newly extracts is dereferenced on the
        execution's one path: its ``dereference`` span nests under the
        ``refresh`` span and both books count the same documents."""
        import asyncio

        from repro.ltqp.live import LiveQuery
        from repro.net.message import Request
        from repro.solidbench import SolidBenchConfig, build_universe

        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        pod, other = universe.pod_of(0), universe.pod_of(1)
        mood = "https://vocab.example/mood"
        doc = other.base_url + "notes/mood"
        tracer = Tracer()

        async def write(method, url, body, content_type):
            server = universe.server
            headers = {"content-type": content_type, **server.login_owner(url[len(server.origin):])}
            response = await universe.internet.dispatch(
                Request(method, url, headers, body.encode("utf-8"))
            )
            assert response.status < 300

        async def scenario():
            await write("PUT", doc, f'<{doc}#it> <{mood}> "linked" .', "text/turtle")
            live = LiveQuery(
                universe.fast_engine(),
                f"SELECT ?s ?o WHERE {{ ?s <{mood}> ?o }}",
                seeds=[pod.profile_url],
                tracer=tracer,
            )
            await live.start()
            await write(
                "PATCH", pod.profile_url,
                f"INSERT DATA {{ <{pod.webid}> <{mood}> <{doc}> }}", "application/sparql-update",
            )
            assert len(await live.refresh(pod.profile_url)) == 2
            return live

        live = asyncio.run(scenario())
        assert check_trace_invariants(tracer) == []
        (refresh,) = [span for span in tracer.spans if span.name == "refresh"]
        assert refresh.args["outcome"] == "changed"
        followed = [
            span for span in tracer.spans
            if span.name == "dereference" and span.args.get("url") == doc
        ]
        assert [span.args["outcome"] for span in followed] == ["ok"]
        assert followed[0].parent_id == refresh.span_id
        stats, derived = live.execution.stats, trace_execution_stats(tracer)
        assert derived["documents_fetched"] == stats.documents_fetched
        assert derived["triples_stored"] == stats.triples_stored
        assert derived["documents_failed"] == stats.documents_failed
