"""E10 (paper §5, future work): adaptive query planning.

The paper names adaptive query planning [29,30] as the main future
optimization.  We implement cardinality-monitored replanning
(:mod:`repro.ltqp.adaptive`) and measure it against a naive static plan
on an adversarial query — one whose textually-first join pairs two
unselective patterns, flooding the pipeline with intermediate bindings
before the selective pattern prunes them.

Shape: the adaptive pipeline replans, produces identical answers, and its
cumulative intermediate-binding count (including the work of the
abandoned plan) stays well below the naive plan's.
"""

from __future__ import annotations

from conftest import print_banner

from repro.bench import render_table
from repro.ltqp import EngineConfig, LinkTraversalEngine, TraversalPolicy
from repro.ltqp.adaptive import AdaptivePipeline
from repro.ltqp.pipeline import compile_pipeline, total_work
from repro.net import NoLatency
from repro.rdf import Dataset, Literal, NamedNode, Quad
from repro.sparql import parse_query
from repro.solidbench import discover_query

EX = "PREFIX ex: <http://x/>\n"

#: Textual order joins the two unselective patterns (content × tag) first.
BAD_ORDER_QUERY = EX + (
    "SELECT ?m ?c ?t WHERE { ?m ex:content ?c . ?m ex:tag ?t . ?m ex:creator ex:me }"
)


def n(suffix):
    return NamedNode(f"http://x/{suffix}")


def skewed_quads(popular=300, selective=3):
    """Every message has content + 2 tags; only 3 are by ex:me.  The
    selective creator edges arrive early, as they would from a seed
    profile document."""
    quads = []
    for index in range(30):
        quads.append(Quad(n(f"m{index}"), n("content"), Literal(f"t{index}"), n("g")))
        quads.append(Quad(n(f"m{index}"), n("tag"), n(f"tag{index % 5}"), n("g")))
        quads.append(Quad(n(f"m{index}"), n("tag"), n(f"tag{(index + 1) % 5}"), n("g")))
    for index in range(selective):
        quads.append(Quad(n(f"m{index}"), n("creator"), n("me"), n("g")))
    for index in range(30, popular):
        quads.append(Quad(n(f"m{index}"), n("content"), Literal(f"t{index}"), n("g")))
        quads.append(Quad(n(f"m{index}"), n("tag"), n(f"tag{index % 5}"), n("g")))
        quads.append(Quad(n(f"m{index}"), n("tag"), n(f"tag{(index + 1) % 5}"), n("g")))
    return quads


def feed(pipeline, quads, chunk=30):
    dataset = Dataset()
    produced = []
    for start in range(0, len(quads), chunk):
        for quad in quads[start:start + chunk]:
            dataset.add(quad)
        produced.extend(pipeline.advance(dataset))
    return produced


def test_adaptive_replanning_reduces_intermediate_work(benchmark):
    query = parse_query(BAD_ORDER_QUERY)
    quads = skewed_quads()

    def run_both():
        naive = compile_pipeline(query.where, bgp_order=list)  # textual order
        naive_results = feed(naive, quads)

        # Adaptive starts from the same adversarial textual order.
        adaptive = AdaptivePipeline(query.where, check_interval=1, replan_factor=2.0)

        def textual_order(patterns):
            chosen = list(patterns)
            adaptive._current_order = chosen
            return chosen

        adaptive._pipeline = compile_pipeline(query.where, bgp_order=textual_order)
        adaptive_results = feed(adaptive, quads)
        return naive, naive_results, adaptive, adaptive_results

    naive, naive_results, adaptive, adaptive_results = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    naive_work = total_work(naive.root)
    adaptive_work = adaptive.total_work

    print_banner("E10 / §5 — static (bad) plan vs adaptive replanning")
    print(
        render_table(
            [
                {"plan": "naive textual order", "results": len(naive_results),
                 "intermediate_bindings": naive_work, "replans": 0},
                {"plan": "adaptive", "results": len(set(adaptive_results)),
                 "intermediate_bindings": adaptive_work, "replans": adaptive.replans},
            ]
        )
    )

    assert set(naive_results) == set(adaptive_results)
    assert adaptive.replans >= 1
    assert adaptive_work < naive_work


def test_adaptive_engine_end_to_end(benchmark, universe):
    query = discover_query(universe, 8, 4)

    def run_both():
        static_engine = LinkTraversalEngine(universe.client(latency=NoLatency()))
        static = static_engine.query(query.text, seeds=query.seeds).run_sync()
        adaptive_engine = LinkTraversalEngine(
            universe.client(latency=NoLatency()), config=EngineConfig(traversal=TraversalPolicy(adaptive=True))
        )
        adaptive = adaptive_engine.query(query.text, seeds=query.seeds).run_sync()
        return static, adaptive

    static, adaptive = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_banner(f"E10 — adaptive engine on {query.name}")
    print(
        render_table(
            [
                {"engine": "zero-knowledge", "results": len(static),
                 "replans": static.stats.replans, "total_s": f"{static.stats.total_time:.2f}"},
                {"engine": "adaptive", "results": len(set(adaptive.bindings)),
                 "replans": adaptive.stats.replans, "total_s": f"{adaptive.stats.total_time:.2f}"},
            ]
        )
    )
    assert set(static.bindings) == set(adaptive.bindings)
