"""E9 (paper §5, after [34]): link queue evolution during traversal.

The paper cites "How Does the Link Queue Evolve during Traversal-Based
Query Processing?" as the basis for future link-queue enhancements.  We
record queue-length samples at every push/pop and compare Discover 1.5
(single pod) against Discover 8.5 (multi-pod):

* the queue grows then drains back to zero for both,
* the multi-pod query's queue peaks higher and processes more links,
* a priority queue (structural documents first) does not change the
  answer, only the traversal order.
"""

from __future__ import annotations

from conftest import print_banner

from repro.bench import queue_sparkline, render_table
from repro.ltqp import EngineConfig, LinkTraversalEngine, TraversalPolicy
from repro.net import NoLatency
from repro.solidbench import discover_query


def run_with_queue(universe, query, queue_policy):
    engine = LinkTraversalEngine(
        universe.client(latency=NoLatency()),
        config=EngineConfig(traversal=TraversalPolicy(queue_policy=queue_policy)),
    )
    return engine.query(query.text, seeds=query.seeds).run_sync()


def queue_profile(execution):
    samples = execution.stats.queue_samples
    lengths = [s.queue_length for s in samples]
    return {
        "pushed": samples[-1].pushed_total if samples else 0,
        "peak": max(lengths, default=0),
        "final": lengths[-1] if lengths else 0,
    }


def test_queue_evolution_single_vs_multi_pod(benchmark, universe):
    single_query = discover_query(universe, 1, 5)
    multi_query = discover_query(universe, 8, 4)

    def run_both():
        return (
            run_with_queue(universe, single_query, "fifo"),
            run_with_queue(universe, multi_query, "fifo"),
        )

    single, multi = benchmark.pedantic(run_both, rounds=1, iterations=1)
    single_profile, multi_profile = queue_profile(single), queue_profile(multi)

    print_banner("E9 / [34] — link queue evolution")
    print(
        render_table(
            [
                {"query": single_query.name, **single_profile},
                {"query": multi_query.name, **multi_profile},
            ]
        )
    )
    print(f"{single_query.name}: {queue_sparkline(single.stats.queue_samples)}")
    print(f"{multi_query.name}: {queue_sparkline(multi.stats.queue_samples)}")

    # The queue always drains: traversal terminates.
    assert single_profile["final"] == 0
    assert multi_profile["final"] == 0
    # Multi-pod traversal queues more links and peaks higher.
    assert multi_profile["pushed"] > single_profile["pushed"]
    assert multi_profile["peak"] >= single_profile["peak"]


def test_queue_disciplines_preserve_answers(benchmark, universe):
    """FIFO (paper default), LIFO (depth-first), and priority ordering all
    terminate with identical answers; only arrival order differs."""
    query = discover_query(universe, 2, 1)

    def run_all():
        return {
            policy: run_with_queue(universe, query, policy)
            for policy in ("fifo", "lifo", "priority")
        }

    executions = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_banner("E9 — queue disciplines (FIFO vs LIFO vs priority)")
    print(
        render_table(
            [
                {"queue": name, "results": len(execution), **queue_profile(execution)}
                for name, execution in executions.items()
            ]
        )
    )
    answer_sets = [frozenset(execution.bindings) for execution in executions.values()]
    assert len(set(answer_sets)) == 1
