"""Adversarial-hardening benchmark: benign runs stay cheap, hostile runs stay bounded.

Two claims, measured over the same universe (DESIGN.md §4e):

* **Benign overhead** — with the full hardening stack armed (per-origin
  budgets sized so they never fire, read/parse caps, fair queueing) a
  Discover 8.5 run must cost ≤10% over the unhardened engine, with an
  identical result multiset.  Rounds are interleaved (plain, hardened,
  plain, ...) and the ratio is the median of paired per-round ratios,
  so contention noise cancels.
* **Hostile containment** — lured into a hostile deployment (link trap,
  growing document, oversized document, poisoner — each on its own
  origin), the hardened engine's *induced work* is deterministically
  bounded: lure-only traversal fetches at least ``10×`` fewer documents
  than an unhardened engine saved only by its global document backstop.
  Induced work counts every fetch the lures cause — including benign
  documents the poisoner's fabricated links drag in, which hostile
  request counts alone would miss.  And a hardened run over benign
  seeds *plus* lures still produces exactly the adversary-free answer
  once restricted to benign pods.

``check_hotpath_regression`` gates both against ``BENCH_adversarial.json``.
Refresh the baseline after an intentional change (via the gate script,
so it is measured at the same process position it is compared at)::

    REPRO_WRITE_BENCH=1 PYTHONPATH=src python benchmarks/check_hotpath_regression.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.ltqp import EngineConfig, LinkTraversalEngine, TraversalPolicy
from repro.net import NoLatency
from repro.net.resilience import BreakerPolicy, NetworkPolicy, RetryPolicy
from repro.solidbench import discover_query
from repro.solidbench.adversary import (
    AdversaryPlan,
    deploy_adversary,
    restrict_to_benign,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_adversarial.json"

#: Paired rounds for the benign-overhead wall measurement.
ROUNDS = 5

#: Hardening profile for the benign run: every mechanism armed, budgets
#: sized so a benign workload never trips them — this measures the cost
#: of the machinery (budget ledger, fair lanes, cap checks), not of
#: refusals.
BENIGN_HARDENED = dict(
    max_origin_derefs=1_000_000,
    max_origin_bytes=1 << 40,
    max_parse_bytes=16 << 20,
    queue_policy="fair",
)

#: Attack classes for the containment measurement (slow-trickle is
#: excluded: its cost is wall-clock, the rest are request-countable).
HOSTILE_KINDS = ("link-trap", "growing-doc", "oversized-doc", "poison")

#: Global document backstop that saves the unhardened engine.
UNHARDENED_BACKSTOP = 240

#: Per-origin budget for the hardened lure-only run.
HARDENED_ORIGIN_DEREFS = 4


def _no_retry_network(**kwargs) -> NetworkPolicy:
    kwargs.setdefault("retry", RetryPolicy.disabled())
    kwargs.setdefault("breaker", BreakerPolicy(failure_threshold=0))
    kwargs.setdefault("max_link_requeues", 0)
    return NetworkPolicy(**kwargs)


def _run(universe, query, config, seeds):
    engine = LinkTraversalEngine(universe.client(latency=NoLatency()), config=config)
    start = time.perf_counter()
    execution = engine.query(query.text, seeds=seeds).run_sync()
    return time.perf_counter() - start, execution


def measure_benign_overhead(universe, rounds: int = ROUNDS) -> dict:
    """Interleaved Discover 8.5 walls: hardening disarmed vs fully armed."""
    query = discover_query(universe, 8, 5)
    plain_walls, hardened_walls = [], []
    plain_bindings = hardened_bindings = None
    for _ in range(rounds):
        wall, execution = _run(universe, query, EngineConfig(), list(query.seeds))
        plain_walls.append(wall)
        plain_bindings = sorted(map(repr, execution.bindings))
        wall, execution = _run(
            universe,
            query,
            EngineConfig(traversal=TraversalPolicy(**BENIGN_HARDENED)),
            list(query.seeds),
        )
        hardened_walls.append(wall)
        hardened_bindings = sorted(map(repr, execution.bindings))
        assert execution.stats.documents_refused == 0, (
            "benign-sized budgets must never fire on the benign workload"
        )
    pair_ratios = sorted(h / p for p, h in zip(plain_walls, hardened_walls))
    return {
        "plain_wall_s": round(min(plain_walls), 3),
        "hardened_wall_s": round(min(hardened_walls), 3),
        "overhead_ratio": round(pair_ratios[len(pair_ratios) // 2], 3),
        "identical_results": plain_bindings == hardened_bindings,
        "results": len(plain_bindings or []),
    }


def measure_hostile_containment(universe) -> dict:
    """Deterministic attack-cost comparison plus benign-result identity.

    Request counts (answered by the hostile apps) are the cost measure —
    no wall clock, so the numbers replay exactly.
    """
    query = discover_query(universe, 1, 5)
    reference = sorted(
        map(
            repr,
            _run(
                universe,
                query,
                EngineConfig(network=_no_retry_network()),
                list(query.seeds),
            )[1].bindings,
        )
    )
    plan = AdversaryPlan(
        seed=11,
        kinds=HOSTILE_KINDS,
        origin_prefix="adv-bench",
        oversized_bytes=256 * 1024,
    )
    deployment = deploy_adversary(
        universe.internet, plan, targets=[universe.webid(query.person_index)]
    )
    try:
        # Lure-only: pure attack cost, no benign seeds — every fetch in
        # these runs (hostile or poison-induced benign) is induced work.
        _, unhardened = _run(
            universe,
            query,
            EngineConfig(
                network=_no_retry_network(),
                traversal=TraversalPolicy(max_documents=UNHARDENED_BACKSTOP),
            ),
            list(deployment.lures),
        )
        unhardened_induced = unhardened.stats.documents_fetched
        unhardened_requests = deployment.total_requests()
        _, hardened = _run(
            universe,
            query,
            EngineConfig(
                network=_no_retry_network(max_response_bytes=32 * 1024),
                traversal=TraversalPolicy(
                    max_origin_derefs=HARDENED_ORIGIN_DEREFS,
                    max_parse_bytes=32 * 1024,
                    queue_policy="fair",
                ),
            ),
            list(deployment.lures),
        )
        hardened_induced = hardened.stats.documents_fetched
        hardened_requests = deployment.total_requests() - unhardened_requests

        # Benign seeds + lures, hardened with budgets generous enough for
        # the benign origin: results restricted to benign pods must equal
        # the adversary-free run exactly.
        before = deployment.total_requests()
        _, execution = _run(
            universe,
            query,
            EngineConfig(
                network=_no_retry_network(max_response_bytes=256 * 1024),
                traversal=TraversalPolicy(
                    max_origin_derefs=512,
                    max_parse_bytes=256 * 1024,
                    queue_policy="fair",
                ),
            ),
            list(query.seeds) + list(deployment.lures),
        )
        combined_requests = deployment.total_requests() - before
        benign = sorted(map(repr, restrict_to_benign(execution.bindings)))
    finally:
        deployment.uninstall()
    return {
        "unhardened_induced": unhardened_induced,
        "hardened_induced": hardened_induced,
        "containment_ratio": round(unhardened_induced / max(1, hardened_induced), 2),
        "unhardened_requests": unhardened_requests,
        "hardened_requests": hardened_requests,
        "combined_requests": combined_requests,
        "combined_refused": execution.stats.documents_refused,
        "benign_identical": benign == reference,
        "benign_results": len(reference),
    }


def measure_adversarial(universe) -> dict:
    overhead = measure_benign_overhead(universe)
    containment = measure_hostile_containment(universe)
    return {**overhead, **containment}


# -- pytest benches ----------------------------------------------------------


def test_benign_overhead(universe):
    overhead = measure_benign_overhead(universe)
    if overhead["overhead_ratio"] >= 1.10:
        # Contention filter (same policy as the regression gates): a
        # transient spike is re-measured once; a real regression fails
        # both attempts.
        retry = measure_benign_overhead(universe)
        if retry["overhead_ratio"] < overhead["overhead_ratio"]:
            overhead = retry
    print(f"\nbenign hardening overhead: {overhead}")
    assert overhead["identical_results"]
    assert overhead["overhead_ratio"] < 1.10


def test_hostile_containment(universe):
    containment = measure_hostile_containment(universe)
    print(f"\nhostile containment: {containment}")
    assert containment["benign_identical"]
    assert containment["containment_ratio"] >= 10.0
