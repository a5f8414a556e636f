"""E2 (paper Fig. 3): the demo UI query — "[SolidBench] Discover 6.5".

The screenshot shows Discover 6.5 returning 27 results in 3.8 s, listing
forum ids and titles ("Wall of Eli Peretz", "Album 11 of Eli Peretz", ...).
Absolute numbers depend on the seed person's activity; the shape we check:
the query completes in seconds, returns tens of results, every result is a
(forumId, forumTitle) pair, and the titles follow the Wall/Album format.
"""

from __future__ import annotations

from conftest import print_banner

from repro.bench import run_query
from repro.net import SeededJitterLatency
from repro.rdf import Variable
from repro.solidbench import discover_query


def test_fig3_discover_6_5(benchmark, universe):
    query = discover_query(universe, 6, 4)

    report = benchmark.pedantic(
        lambda: run_query(
            universe,
            query,
            latency=SeededJitterLatency(seed=7),
            check_oracle=True,
        ),
        rounds=1,
        iterations=1,
    )

    print_banner("E2 / Fig. 3 — demo UI query Discover 6.x")
    print(f"query:   {query.name} ({query.description})")
    print(f"results: {report.result_count} in {report.total_time:.2f}s "
          f"(paper screenshot: 27 results in 3.8s)")
    print(f"complete vs oracle: {report.complete}")

    assert report.result_count > 0
    assert report.complete is True
    assert report.total_time < 30.0  # "in the order of seconds"


def test_fig3_result_shape(benchmark, universe):
    query = discover_query(universe, 6, 4)
    report = benchmark.pedantic(
        lambda: run_query(universe, query, check_oracle=False), rounds=1, iterations=1
    )

    # Every result binds forumId + forumTitle; titles are Walls or Albums.
    from repro.ltqp import LinkTraversalEngine  # noqa: F401 (docs cross-ref)

    engine = universe.fast_engine()
    execution = engine.query(query.text, seeds=query.seeds).run_sync()
    for binding in execution.bindings:
        assert Variable("forumId") in binding
        title = binding[Variable("forumTitle")].value
        assert title.startswith(("Wall of ", "Album ")), title
    print_banner("E2 — result titles (Fig. 3 style)")
    for timed in execution.results[:6]:
        print(
            timed.binding[Variable("forumId")].value,
            "→",
            timed.binding[Variable("forumTitle")].value,
        )
    assert report.result_count == len(execution.bindings)
