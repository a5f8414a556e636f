"""Guided-traversal benchmark: dereferences-per-result and TTFR vs fifo.

Runs every one of the 37 Discover queries twice against a *hinted*
SolidBench universe (``emit_hints=True``: every pod publishes a
``settings/cardinality`` source index):

* **fifo** — the zero-knowledge baseline.  No selector, no hints; the
  engine crawls everything reachable (it never even fetches the hint
  documents: no extractor follows ``subweb:cardinalityIndex`` without a
  selector installed).
* **guided** — ``queue_policy="guided"`` plus the declared-origins subweb
  specification below.  The selector prunes LDP infrastructure and
  irrelevant containers from the pods' own summaries, admits foreign
  sources only through the SolidBench linking predicates, and the queue
  orders links by provenance tier, result feedback, and hint
  cardinalities.

Both runs use :class:`~repro.obs.TickClock` tracing and no simulated
latency, so every number — dereference counts *and* time-to-first-result
— is a deterministic function of the traversal, not of machine speed.
TTFR here is therefore an *event-count* proxy (clock ticks once per
recorded event): stable across machines, comparable between runs.

The committed ``BENCH_guided.json`` pins per-query result counts and the
summary ratios; ``check_hotpath_regression.py``'s ``gate_guided``
re-measures and requires

* identical result multisets between fifo and guided on every query
  (100% recall),
* mean per-query dereference ratio (fifo/guided) ≥ 2.0,
* mean TTFR ratio (guided/fifo) ≤ 1.0 — guiding must not delay first
  results on average.

``REPRO_WRITE_BENCH=1 pytest benchmarks/bench_guided.py`` rewrites the
committed baseline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import BENCH_SCALE, BENCH_SEED, print_banner

from repro.ltqp import EngineConfig, LinkTraversalEngine, TraversalPolicy
from repro.ltqp.guided import SubwebSpecification
from repro.net import NoLatency
from repro.obs import TickClock, Tracer
from repro.rdf.namespaces import SNVOC
from repro.solidbench import SolidBenchConfig, build_universe, discover_suite

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_guided.json"

#: Required mean fifo/guided dereference ratio across the Discover suite.
DEREF_REDUCTION_FLOOR = 2.0


def declared_spec() -> SubwebSpecification:
    """The bench subweb spec: sources are pods (origin + 2 path segments),
    foreign pods admitted only via the predicates SolidBench uses to link
    them — exactly the reachability the Discover answers need."""
    return SubwebSpecification(
        origins="declared",
        source_depth=2,
        admit_origins_via=(
            SNVOC.likes.value,
            SNVOC.hasPost.value,
            SNVOC.hasComment.value,
            SNVOC.hasReply.value,
            SNVOC.hasModerator.value,
        ),
    )


def build_hinted_universe():
    return build_universe(
        SolidBenchConfig(scale=BENCH_SCALE, seed=BENCH_SEED, emit_hints=True)
    )


def _run(universe, query, **config_kwargs):
    engine = LinkTraversalEngine(
        universe.client(latency=NoLatency()), config=EngineConfig(traversal=TraversalPolicy(**config_kwargs))
    )
    tracer = Tracer(clock=TickClock())
    return engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()


def _multiset(execution) -> list[str]:
    return sorted(repr(binding) for binding in execution.bindings)


def measure_guided(universe=None) -> dict:
    """fifo vs guided across the full Discover suite on a hinted universe.

    ``universe`` must be a hinted universe (or None to build one); the
    shared bench universe is *not* reusable here because hint documents
    only exist with ``emit_hints``.
    """
    if universe is None:
        universe = build_hinted_universe()
    spec = declared_spec()
    per_query = {}
    deref_ratios: list[float] = []
    ttfr_ratios: list[float] = []
    for query in discover_suite(universe):
        fifo = _run(universe, query, queue_policy="fifo")
        guided = _run(universe, query, queue_policy="guided", subweb=spec)
        fifo_derefs = fifo.stats.documents_fetched
        guided_derefs = guided.stats.documents_fetched
        deref_ratio = fifo_derefs / guided_derefs if guided_derefs else float("inf")
        fifo_ttfr = fifo.stats.time_to_first_result
        guided_ttfr = guided.stats.time_to_first_result
        ttfr_ratio = (
            guided_ttfr / fifo_ttfr if fifo_ttfr and guided_ttfr is not None else None
        )
        deref_ratios.append(deref_ratio)
        if ttfr_ratio is not None:
            ttfr_ratios.append(ttfr_ratio)
        per_query[query.name] = {
            "results": len(fifo.bindings),
            "identical_results": _multiset(fifo) == _multiset(guided),
            "fifo_derefs": fifo_derefs,
            "guided_derefs": guided_derefs,
            "deref_ratio": round(deref_ratio, 3),
            "fifo_ttfr_ticks": round(fifo_ttfr, 4) if fifo_ttfr is not None else None,
            "guided_ttfr_ticks": (
                round(guided_ttfr, 4) if guided_ttfr is not None else None
            ),
            "links_pruned": guided.stats.links_pruned,
        }
    return {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "queries": per_query,
        "fifo_derefs_total": sum(q["fifo_derefs"] for q in per_query.values()),
        "guided_derefs_total": sum(q["guided_derefs"] for q in per_query.values()),
        "deref_ratio_mean": round(sum(deref_ratios) / len(deref_ratios), 3),
        "ttfr_ratio_mean": round(sum(ttfr_ratios) / len(ttfr_ratios), 3),
        "all_identical": all(q["identical_results"] for q in per_query.values()),
    }


# -- pytest benches ----------------------------------------------------------


def test_guided_cuts_dereferences_at_full_recall(benchmark):
    metrics = benchmark.pedantic(measure_guided, rounds=1, iterations=1)
    print_banner("Guided traversal — fifo vs guided across the Discover suite")
    for name, entry in metrics["queries"].items():
        print(
            f"{name}: {entry['fifo_derefs']} -> {entry['guided_derefs']} derefs "
            f"({entry['deref_ratio']}x), {entry['results']} results, "
            f"identical={entry['identical_results']}"
        )
    print(
        f"\nmean deref ratio {metrics['deref_ratio_mean']}x, "
        f"mean TTFR ratio {metrics['ttfr_ratio_mean']}, "
        f"totals {metrics['fifo_derefs_total']} -> {metrics['guided_derefs_total']}"
    )
    assert metrics["all_identical"], "guided lost results somewhere"
    assert metrics["deref_ratio_mean"] >= DEREF_REDUCTION_FLOOR
    assert metrics["ttfr_ratio_mean"] <= 1.0


def test_write_baseline():
    """Rewrite BENCH_guided.json when REPRO_WRITE_BENCH=1 (no-op otherwise)."""
    if os.environ.get("REPRO_WRITE_BENCH") != "1":
        return
    metrics = measure_guided()
    BASELINE_PATH.write_text(json.dumps(metrics, indent=1) + "\n")
    print(f"\nwrote {BASELINE_PATH}")
