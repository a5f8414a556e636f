"""End-to-end integration tests: the full demo scenario in miniature.

These tests execute Discover queries through the complete stack —
SolidBench pods → Solid server → simulated HTTP → LTQP engine — and
compare against the ground-truth oracle (the same query over the union of
all generated documents).  LTQP completeness is relative to the reachable
subweb; for the Discover suite over SolidBench's link structure, the
reachable answer equals the full answer, which is exactly what the paper's
demo relies on.
"""

import pytest

from repro.bench.harness import run_query, run_suite
from repro.ltqp import EngineConfig, LinkTraversalEngine
from repro.net import NoLatency, RequestLog
from repro.solidbench.queries import discover_query, discover_suite


class TestDiscoverTemplatesComplete:
    @pytest.mark.parametrize("template", range(1, 9))
    def test_template_matches_oracle(self, tiny_universe, template):
        query = discover_query(tiny_universe, template, 1)
        report = run_query(tiny_universe, query)
        assert report.complete is True, f"{query.name}: {report.result_count} vs {report.oracle_count}"

    def test_all_templates_return_results(self, tiny_universe):
        for template in range(1, 9):
            query = discover_query(tiny_universe, template, 1)
            report = run_query(tiny_universe, query, check_oracle=False)
            assert report.result_count > 0, query.name


class TestSuiteRun:
    def test_whole_suite_runs_without_errors(self, tiny_universe):
        # E7's assertion at test scale: all 37 default queries execute.
        reports = run_suite(tiny_universe, discover_suite(tiny_universe), check_oracle=False)
        assert len(reports) == 37
        assert all(r.result_count >= 0 for r in reports)
        assert sum(r.result_count for r in reports) > 0


class TestStreamingBehaviour:
    def test_results_arrive_before_traversal_finishes(self, tiny_universe):
        query = discover_query(tiny_universe, 2, 1)
        report = run_query(tiny_universe, query, check_oracle=False)
        assert report.streaming
        # First result strictly earlier than the last request completion.
        assert report.time_to_first_result < report.total_time

    def test_waterfall_shows_dependency_chain(self, tiny_universe):
        # Fig. 4's shape: card → pod root → containers → dated files.
        query = discover_query(tiny_universe, 1, 1)
        report = run_query(tiny_universe, query, check_oracle=False)
        assert report.waterfall.max_depth >= 3

    def test_multi_pod_query_touches_more_documents(self, tiny_universe):
        single = run_query(tiny_universe, discover_query(tiny_universe, 1, 1), check_oracle=False)
        multi = run_query(tiny_universe, discover_query(tiny_universe, 8, 1), check_oracle=False)
        assert multi.documents_fetched > single.documents_fetched


class TestAuthenticatedQuerying:
    def test_private_documents_require_login(self, tiny_universe):
        universe = tiny_universe
        person = 0
        pod = universe.pod_of(person)
        acl = universe.server.acl_for(pod)
        # Make this pod's posts private (owner-only).
        acl.restrict("posts/")
        try:
            query = discover_query(universe, 1, 1, person_index=person)

            anonymous = run_query(universe, query, check_oracle=False)
            session = universe.idp.login(universe.webid(person))
            authed = run_query(
                universe, query, check_oracle=False, auth_headers=session.headers
            )
            assert anonymous.result_count == 0
            assert authed.result_count > 0
        finally:
            # Restore public access for other tests (session-scoped fixture).
            from repro.solid.acl import AclRule

            acl._rules.pop("posts/", None)

    def test_failed_documents_counted(self, tiny_universe):
        universe = tiny_universe
        pod = universe.pod_of(1)
        acl = universe.server.acl_for(pod)
        acl.restrict("comments/")
        try:
            query = discover_query(universe, 2, 1, person_index=1)
            report = run_query(universe, query, check_oracle=False)
            assert report.documents_failed > 0
        finally:
            acl._rules.pop("comments/", None)


class TestFailureInjection:
    def test_missing_pod_degrades_gracefully(self, tiny_universe):
        engine = tiny_universe.fast_engine()
        query = discover_query(tiny_universe, 1, 1)
        seeds = ["https://solidbench.example/pods/99999999999999999999/profile/card"]
        result = engine.query(query.text, seeds=seeds).run_sync()
        assert len(result) == 0
        assert result.stats.documents_failed == 1

    def test_unknown_origin_seed(self, tiny_universe):
        engine = tiny_universe.fast_engine()
        query = discover_query(tiny_universe, 1, 1)
        result = engine.query(query.text, seeds=["https://dead.example/card"]).run_sync()
        assert len(result) == 0


class TestLatencyRealism:
    def test_jittered_latency_creates_parallelism(self, tiny_universe):
        # With real per-request latency, the engine overlaps fetches — the
        # parallel bars visible in the paper's Fig. 4/5 waterfalls.
        from repro.net import SeededJitterLatency

        query = discover_query(tiny_universe, 1, 1)
        report = run_query(
            tiny_universe,
            query,
            latency=SeededJitterLatency(seed=3, min_rtt_seconds=0.002, max_rtt_seconds=0.01),
            check_oracle=False,
        )
        assert report.waterfall.max_parallelism >= 2
