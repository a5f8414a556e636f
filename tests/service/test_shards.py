"""End-to-end tests for the sharded multi-process QueryService.

These spawn real worker processes (small universe: scale 0.005) and
check the properties the sharded deployment promises: identical result
multisets vs. the in-process service, warm-shard routing stability,
crash restart, graceful drain with warm document-store handoff, and
front-end admission control.
"""

import asyncio
import time

import pytest

from repro.ltqp.engine import EngineConfig, TraversalPolicy
from repro.ltqp.guided import SubwebRule, SubwebSpecification
from repro.service import (
    QueryService,
    ServiceHost,
    ServiceOverloadedError,
    ShardedQueryService,
    SharedResources,
    build_status,
)
from repro.net import NoLatency
from repro.solidbench import build_universe, discover_query

from .conftest import CONFIG, make_spec, run_on


def multiset(result):
    return sorted(repr(timed.binding) for timed in result.results)


def submit_on(host, named):
    """The finished handle of one query — where ``shard`` is read."""

    async def scenario():
        handle = host.service.submit(named.text, seeds=list(named.seeds))
        await handle.wait()
        return handle

    return run_on(host, scenario())


@pytest.fixture(scope="module")
def universe():
    return build_universe(CONFIG)


@pytest.fixture(scope="module")
def reference_service(universe):
    return QueryService(SharedResources.for_universe(universe, latency=NoLatency()))


class TestShardedExecution:
    def test_matches_unsharded_results(self, sharded_host, universe, reference_service):
        named = discover_query(universe, 1, 1)
        sharded = sharded_host.execute(named.text, seeds=list(named.seeds))
        expected = asyncio.run(
            reference_service.run(named.text, seeds=named.seeds)
        )
        assert multiset(sharded) == multiset(expected)
        assert multiset(sharded)

    def test_warm_repeat_stays_on_shard_and_skips_parses(self, sharded_host, universe):
        named = discover_query(universe, 2, 1)
        cold = submit_on(sharded_host, named)
        warm = submit_on(sharded_host, named)
        assert warm.shard == cold.shard and warm.shard in ("shard-0", "shard-1")
        assert multiset(warm.result) == multiset(cold.result)
        # Every document served from the shard's parsed-document store.
        # (The cold run may already hit entries warmed by earlier tests
        # on this shared fixture — that cross-query reuse is the point.)
        stats = warm.result.stats
        assert stats.documents_from_store == stats.documents_fetched

    def test_status_aggregates_shard_gauges(self, sharded_host):
        service = sharded_host.service
        status = run_on(sharded_host, service.status())
        assert status["schema"] == 2 and status["mode"] == "sharded"
        assert status["workers"]["total"] == 2
        assert status["workers"]["ready"] == 2
        assert set(status["shards"]) == {"shard-0", "shard-1"}
        # Front-end counters agree with what the workers report, and the
        # cache gauges are the per-shard sums.
        per_shard = [block["statistics"] for block in status["shards"].values()]
        assert status["service"]["completed"] >= 1
        assert status["service"]["completed"] == sum(s["completed"] for s in per_shard)
        documents = status["service"]["document_store"]["documents"]
        assert documents > 0
        assert documents == sum(s["document_store"]["documents"] for s in per_shard)

    def test_health_check(self, sharded_host):
        health = run_on(sharded_host, sharded_host.service.health_check())
        assert health == {"shard-0": True, "shard-1": True}

    def test_submit_accepts_parsed_query(self, sharded_host, universe):
        from repro.sparql.parser import parse_query

        named = discover_query(universe, 1, 1)
        parsed = parse_query(named.text)
        result = sharded_host.execute(parsed, seeds=list(named.seeds))
        assert multiset(result)


class TestOneSurfaceShapes:
    """Where the two services' shapes had drifted apart (all ride the
    shared pool; the in-process side is ``reference_service``)."""

    def test_snapshot_and_status_key_sets_match_in_process(
        self, sharded_host, universe, reference_service
    ):
        named = discover_query(universe, 1, 1)
        remote = submit_on(sharded_host, named)

        async def local_run():
            handle = reference_service.submit(named.text, seeds=named.seeds)
            await handle.wait()
            return handle, await reference_service.status()

        local, single = asyncio.run(local_run())
        sharded = run_on(sharded_host, sharded_host.service.status())

        assert set(remote.snapshot()) == set(local.snapshot())
        assert {"shard", "started_at"} <= set(remote.snapshot())
        assert local.snapshot()["shard"] is None and local.snapshot()["started_at"]
        assert remote.snapshot()["shard"] == remote.shard
        assert remote.snapshot()["started_at"] is None

        assert single["schema"] == sharded["schema"] == 2
        assert (single["mode"], sharded["mode"]) == ("single", "sharded")
        assert set(single) == set(sharded)
        assert set(single["service"]) == set(sharded["service"])
        assert set(single["workers"]) == set(sharded["workers"])
        assert set(single["queries"][0]) == set(sharded["queries"][0])
        assert single["workers"] == {
            "total": 1, "ready": 1, "restarts": 0, "routing": None,
        }
        assert single["shards"] == {}
        # The synchronous projection is the same document.
        assert set(build_status(sharded_host.service)) == set(sharded)

    def test_sharded_stats_are_the_real_execution_stats(
        self, sharded_host, universe, reference_service
    ):
        from repro.ltqp.stats import ExecutionStats

        named = discover_query(universe, 1, 1)
        remote = sharded_host.execute(named.text, seeds=list(named.seeds)).stats
        local = asyncio.run(reference_service.run(named.text, seeds=named.seeds)).stats
        assert isinstance(remote, ExecutionStats)
        assert remote.queue_samples == []  # the one field left behind
        assert remote.first_result_at is not None
        assert remote.time_to_first_result is not None
        assert local.time_to_first_result is not None
        assert remote.links_by_extractor == local.links_by_extractor
        assert remote.links_by_extractor
        assert remote.documents_retried == local.documents_retried
        assert remote.replans == local.replans
        assert remote.completeness() == local.completeness()


class TestSummedStatistics:
    """The front-end's totals over its shards' last reports (no process spawned)."""

    @staticmethod
    def report(hits, misses):
        block = {"hits": hits, "misses": misses, "hit_rate": round(hits / (hits + misses), 4)}
        return {"statistics": {"http_cache": dict(block), "document_store": dict(block)}}

    def test_hit_rates_are_recomputed_from_summed_hits_and_misses(self):
        service = ShardedQueryService(make_spec(), workers=2)
        first, second = service._workers.values()
        first.last_status = self.report(hits=9, misses=1)  # 0.9
        second.last_status = self.report(hits=24, misses=6)  # 0.8
        statistics = service.statistics()
        for book in ("http_cache", "document_store"):
            assert statistics[book]["hits"] == 33
            assert statistics[book]["misses"] == 7
            assert statistics[book]["hit_rate"] == round(33 / 40, 4)

    def test_no_lookups_is_a_zero_hit_rate(self):
        service = ShardedQueryService(make_spec(), workers=2)
        empty = {"hits": 0, "misses": 0, "hit_rate": 0.0}
        for worker in service._workers.values():
            worker.last_status = {"statistics": {"document_store": dict(empty)}}
        assert service.statistics()["document_store"]["hit_rate"] == 0.0


class TestHardenedShards:
    """Traversal-hardening budgets cross the process boundary intact."""

    def test_spec_budget_fields_survive_pickling_and_worker_derivation(self):
        import pickle

        engine = EngineConfig(
            traversal=TraversalPolicy(
                max_depth=3,
                max_origin_derefs=5,
                max_parse_bytes=1024,
                subweb=SubwebSpecification(
                    rules=(SubwebRule(match="https://solidbench.example/**"),)
                ),
            )
        )
        engine.network.max_response_bytes = 1024
        spec = make_spec(engine=engine, store_path="/tmp/shard-store")
        assert pickle.loads(pickle.dumps(spec)) == spec
        derived = pickle.loads(pickle.dumps(spec.for_worker("shard-0")))
        assert derived.engine == engine
        assert derived.engine.traversal.max_origin_derefs == 5
        assert derived.engine.network.max_response_bytes == 1024

    def test_stats_summary_ships_refusal_attribution(self):
        # What crosses the pipe is the real ExecutionStats, pickled.
        import pickle

        from repro.ltqp.stats import ExecutionStats

        stats = ExecutionStats(started_at=1.0, finished_at=2.0)
        stats.documents_fetched = 4
        stats.note_refusal("origin-derefs", "https://adv-trap.example")
        stats.note_refusal("doc-bytes", "https://adv-huge.example")
        shipped = pickle.loads(pickle.dumps(stats))
        assert isinstance(shipped, ExecutionStats) and shipped == stats
        report = shipped.completeness()
        assert not report["complete"]
        assert report["documents_refused"] == 2
        assert report["refusals_by_kind"] == {"doc-bytes": 1, "origin-derefs": 1}
        assert report["refusals_by_origin"] == {
            "https://adv-huge.example": 1,
            "https://adv-trap.example": 1,
        }
        assert report["documents_attempted"] == 6

    def test_budgeted_worker_reports_refusals_end_to_end(self, universe):
        # Every benign pod shares one origin, so a tight per-origin budget
        # forces refusals on an ordinary run — exercising the whole path:
        # spec.engine → worker QueryService → execution → stats → pipe → front-end.
        engine = EngineConfig(traversal=TraversalPolicy(max_origin_derefs=6))
        host = ServiceHost(
            ShardedQueryService(make_spec(engine=engine), workers=1)
        ).start()
        try:
            named = discover_query(universe, 1, 1)
            result = host.execute(named.text, seeds=list(named.seeds))
            report = result.stats.completeness()
            assert not report["complete"]
            assert report["documents_refused"] > 0
            assert report["refusals_by_kind"].get("origin-derefs", 0) > 0
            assert set(report["refusals_by_origin"]) == {CONFIG.host}
        finally:
            host.stop()


class TestOriginAffinity:
    def test_same_pod_queries_share_a_shard(self):
        host = ServiceHost(
            ShardedQueryService(make_spec(), workers=2, routing="origin")
        ).start()
        try:
            universe = build_universe(CONFIG)
            first = discover_query(universe, 1, 1)
            second = discover_query(universe, 2, 1, person_index=first.person_index)
            assert first.seeds[0] == second.seeds[0]
            a = submit_on(host, first)
            b = submit_on(host, second)
            assert a.shard == b.shard
            # The second query re-uses the first one's parses: per-origin
            # affinity means zero cross-shard re-parsing of the pod.
            assert b.result.stats.documents_from_store > 0
        finally:
            host.stop()


class TestLifecycle:
    def test_crash_restart_and_graceful_warm_handoff(self):
        host = ServiceHost(ShardedQueryService(make_spec(), workers=2)).start()
        try:
            service = host.service
            universe = build_universe(CONFIG)
            named = discover_query(universe, 1, 1)
            handle = submit_on(host, named)
            cold, shard = handle.result, handle.shard
            worker = service.workers[shard]

            # Hard crash: the process dies, the shard leaves the ring,
            # a replacement spawns and rejoins.
            generation = worker.generation
            worker.process.kill()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if worker.generation > generation and worker.state == "ready":
                    break
                time.sleep(0.1)
            assert worker.state == "ready"
            assert service.statistics()["workers"]["restarts"] >= 1

            # The replacement is cold — same results, re-fetched.
            after_crash = host.execute(named.text, seeds=list(named.seeds))
            assert multiset(after_crash) == multiset(cold)
            assert after_crash.stats.documents_from_store == 0

            # Graceful restart hands the document store over: the next
            # repeat parses nothing.
            report = run_on(
                host, service.restart_worker(shard, warm=True), timeout=120
            )
            assert report["documents"] > 0
            warm = host.execute(named.text, seeds=list(named.seeds))
            assert multiset(warm) == multiset(cold)
            assert warm.stats.documents_from_store == warm.stats.documents_fetched
        finally:
            host.stop()

    def test_persistent_spec_derives_per_worker_paths(self, tmp_path):
        import os

        spec = make_spec(store_path=str(tmp_path))
        derived = spec.for_worker("shard-3")
        assert derived.store_path == os.path.join(str(tmp_path), "shard-3.sqlite")
        assert derived.persistent and spec.persistent
        # Without a store path the spec is shared untouched.
        plain = make_spec()
        assert plain.for_worker("shard-0") is plain
        assert not plain.persistent

    def test_file_handoff_on_graceful_restart(self, tmp_path):
        import os

        spec = make_spec(store_path=str(tmp_path))
        host = ServiceHost(ShardedQueryService(spec, workers=1)).start()
        try:
            service = host.service
            universe = build_universe(CONFIG)
            named = discover_query(universe, 1, 1)
            cold = host.execute(named.text, seeds=list(named.seeds))
            assert os.path.exists(os.path.join(str(tmp_path), "shard-0.sqlite"))

            # Persistent spec: the handoff references the file — nothing
            # streams through the pipe, yet the replacement starts warm.
            report = run_on(
                host, service.restart_worker("shard-0", warm=True), timeout=120
            )
            assert report["handoff"] == "file"
            assert report["documents"] > 0

            warm = host.execute(named.text, seeds=list(named.seeds))
            assert multiset(warm) == multiset(cold)
            assert warm.stats.documents_from_store == warm.stats.documents_fetched
        finally:
            host.stop()

    def test_drain_idle_service_is_clean(self):
        host = ServiceHost(ShardedQueryService(make_spec(), workers=1)).start()
        try:
            pending = run_on(host, host.service.drain(timeout=1.0))
            assert pending == []
        finally:
            assert host.stop() == []

    def test_overload_rejected_at_front_end(self):
        spec = make_spec(max_concurrent=1, max_queued=0)
        host = ServiceHost(ShardedQueryService(spec, workers=1)).start()
        try:
            universe = build_universe(CONFIG)
            named = discover_query(universe, 1, 1)

            async def scenario():
                service = host.service
                first = service.submit(named.text, seeds=list(named.seeds))
                with pytest.raises(ServiceOverloadedError):
                    service.submit(named.text, seeds=list(named.seeds))
                await first.wait()
                assert service.statistics()["rejected"] == 1
                return first

            handle = run_on(host, scenario())
            assert handle.status == "done"
        finally:
            host.stop()
