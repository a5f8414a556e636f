"""E11 (paper Fig. 4, "(disk cache)"): client-side HTTP caching.

Every request in the paper's waterfall screenshots is served from the
browser's disk cache in single-digit milliseconds.  Our reproduction adds
the same layer (:class:`repro.net.HttpCache`): the first execution of a
query pays full network cost; re-running it against a warm cache answers
most requests locally.

Shape: identical answers, near-total cache hit rate on the second run,
and a large reduction in bytes transferred.
"""

from __future__ import annotations

from conftest import print_banner

from repro.bench import render_table
from repro.ltqp import LinkTraversalEngine
from repro.net import HttpCache, HttpClient, RequestLog, SeededJitterLatency
from repro.solidbench import discover_query


def test_warm_cache_run_matches_and_saves_transfer(benchmark, universe):
    query = discover_query(universe, 1, 5)
    cache = HttpCache(default_max_age=3600)

    def run_twice():
        cold_log, warm_log = RequestLog(), RequestLog()
        latency = SeededJitterLatency(seed=11)
        cold_client = HttpClient(
            universe.internet, latency=latency, log=cold_log, cache=cache
        )
        cold = LinkTraversalEngine(cold_client).query(query.text, seeds=query.seeds).run_sync()
        warm_client = HttpClient(
            universe.internet, latency=latency, log=warm_log, cache=cache
        )
        warm = LinkTraversalEngine(warm_client).query(query.text, seeds=query.seeds).run_sync()
        return cold, warm, cold_log, warm_log

    cold, warm, cold_log, warm_log = benchmark.pedantic(run_twice, rounds=1, iterations=1)

    cold_cached = sum(1 for r in cold_log.records if r.from_cache)
    warm_cached = sum(1 for r in warm_log.records if r.from_cache)

    print_banner("E11 / Fig. 4 '(disk cache)' — cold vs warm execution")
    print(
        render_table(
            [
                {"run": "cold", "results": len(cold), "requests": len(cold_log),
                 "from_cache": cold_cached, "total_s": f"{cold.stats.total_time:.3f}"},
                {"run": "warm", "results": len(warm), "requests": len(warm_log),
                 "from_cache": warm_cached, "total_s": f"{warm.stats.total_time:.3f}"},
            ]
        )
    )
    print(f"cache statistics: {cache.statistics()}")

    assert set(cold.bindings) == set(warm.bindings)
    assert cold_cached == 0
    # Nearly everything on the warm run comes from cache (failed fetches
    # like 404 vocabulary documents are not cached).
    ok_requests = sum(1 for r in warm_log.records if r.ok)
    assert warm_cached >= 0.9 * ok_requests
    assert warm.stats.total_time <= cold.stats.total_time
