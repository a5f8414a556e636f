"""Golden-output test: the trace-driven waterfall renders byte-identically.

One seeded scenario exercises every visual element of the Fig. 4-style
waterfall — solid fetch bars, hollow retry bars (injected transient
503s), shaded cache-hit bars (second run over a warm cache), and the
first-result marker — under a deterministic :class:`TickClock`.  The
renderings must match the committed goldens byte for byte.

Regenerate after an intentional rendering change with::

    REPRO_WRITE_GOLDEN=1 python -m pytest tests/bench/test_waterfall_golden.py

Bar positions, the first-result marker and the total are TickClock reads,
so a change to *how often the engine reads the clock* moves them too.
Last regenerated for the clockless feed rule: after row 1, documents that
leave quads pending coalesce into one feed per turn of the event loop
instead of one feed each (the former per-quad setting), so fewer
``advance-batch`` spans tick the clock.  Only bar positions and totals
moved (cold 2.150 → 1.798 s, warm 1.913 → 1.561 s); the first result
(1349.0 ms cold) and every count — requests, statuses, sizes, bytes,
retries, cache hits, depth — stayed byte-identical.
"""

import os
from pathlib import Path

import pytest

from repro.bench.waterfall import build_waterfall, render_waterfall
from repro.ltqp import Dereferencer, LinkTraversalEngine, NetworkPolicy, TraversalPolicy
from repro.net.cache import HttpCache
from repro.net.faults import FaultPlan
from repro.net.latency import NoLatency
from repro.net.resilience import RetryPolicy
from repro.obs import TickClock, Tracer, check_trace_invariants
from repro.solidbench import discover_query

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_scenario(universe):
    """Two Discover 1.5 runs over one warm cache, each traced with a TickClock."""
    universe.internet.install_fault_plan(
        FaultPlan.transient(rate=0.2, seed=3, fail_attempts=1)
    )
    try:
        query = discover_query(universe, 1, 5)
        cache = HttpCache(default_max_age=3600)
        client = universe.client(
            latency=NoLatency(),
            cache=cache,
            policy=NetworkPolicy(retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)),
        )
        engine = LinkTraversalEngine(
            Dereferencer(client),
            # Single worker: the event sequence, and therefore every
            # TickClock timestamp, is a pure function of the seed.
            traversal=TraversalPolicy(worker_count=1),
        )
        tracers = []
        for _ in range(2):
            tracer = Tracer(clock=TickClock(step=0.001))
            engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()
            tracers.append(tracer)
        return tracers
    finally:
        universe.internet.install_fault_plan(None)


def check_golden(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        pytest.skip(f"golden {name} regenerated")
    assert path.exists(), f"missing golden {path}; run with REPRO_WRITE_GOLDEN=1"
    assert rendered == path.read_text(encoding="utf-8")


class TestGoldenWaterfall:
    @pytest.fixture(scope="class")
    def tracers(self, paper_tiny_universe):
        # The goldens are the paper's Fig. 4 crawl: pods that publish no index.
        return golden_scenario(paper_tiny_universe)

    def test_traces_well_formed(self, tracers):
        for tracer in tracers:
            assert check_trace_invariants(tracer) == []

    def test_cold_run_renders_byte_identically(self, tracers):
        check_golden("waterfall_cold.txt", render_waterfall(build_waterfall(tracers[0])))

    def test_warm_run_renders_byte_identically(self, tracers):
        check_golden("waterfall_warm.txt", render_waterfall(build_waterfall(tracers[1])))

    def test_cold_run_shows_retry_bars_and_marker(self, tracers):
        waterfall = build_waterfall(tracers[0])
        rendered = render_waterfall(waterfall)
        assert waterfall.retries > 0
        assert "(retry #2)" in rendered
        assert "▼ first result" in rendered
        assert waterfall.cache_hits == 0

    def test_warm_run_shows_cache_bars(self, tracers):
        waterfall = build_waterfall(tracers[1])
        rendered = render_waterfall(waterfall)
        assert waterfall.cache_hits > 0
        assert "(cache)" in rendered
        assert "▒" in rendered
        assert f"cache: {waterfall.cache_hits} of {waterfall.request_count}" in rendered
