"""Shared helpers for the adversarial suite.

Every test here follows the same scheme: deploy a seeded
:class:`~repro.solidbench.adversary.AdversaryPlan` on the session
universe's internet, run a benign Discover query whose seed list has the
adversary's lure URLs appended, and compare against the adversary-free
baseline.  Benign documents are never modified, so the baseline is
computed once per universe.

Cost is measured deterministically (requests answered by the hostile
apps, bytes in the request log, fault-injection counters) rather than by
wall clock wherever possible.
"""

from __future__ import annotations

import pytest

from repro.ltqp import EngineConfig, NetworkPolicy, TraversalPolicy
from repro.net.resilience import BreakerPolicy, RetryPolicy
from repro.solidbench import deploy_adversary, discover_query


def no_retry_network(**kwargs) -> NetworkPolicy:
    """Retries/breakers off so attack costs are exact request counts."""
    kwargs.setdefault("retry", RetryPolicy.disabled())
    kwargs.setdefault("breaker", BreakerPolicy(failure_threshold=0))
    kwargs.setdefault("max_link_requeues", 0)
    return NetworkPolicy(**kwargs)


def hardened_traversal(**kwargs) -> TraversalPolicy:
    """The suite's reference hardening: tight per-origin budgets."""
    kwargs.setdefault("max_origin_derefs", 8)
    kwargs.setdefault("queue_policy", "fair")
    return TraversalPolicy(**kwargs)


def run_discover(
    universe,
    lures=(),
    traversal=None,
    network=None,
    template: int = 1,
    variant: int = 5,
    max_documents: int = 0,
    benign_seeds: bool = True,
):
    """Run one Discover query (optionally luring traversal to hostile
    origins) and return the finished execution handle.

    ``benign_seeds=False`` drops the query's own seeds, leaving only the
    lures — a pure attack-cost measurement with no benign traffic."""
    query = discover_query(universe, template, variant)
    config = EngineConfig(
        network=network if network is not None else no_retry_network(),
        traversal=traversal if traversal is not None else TraversalPolicy(),
    )
    if max_documents:
        config.traversal.max_documents = max_documents
    engine = universe.fast_engine(config=config)
    seeds = (list(query.seeds) if benign_seeds else []) + list(lures)
    execution = engine.query(query.text, seeds=seeds).run_sync()
    execution.client = engine.client  # the per-run request log, for byte counts
    return execution


def result_key(execution) -> list[str]:
    """Canonical (order-independent) multiset of result bindings."""
    return sorted(repr(binding) for binding in execution.bindings)


_BASELINES: dict[tuple, list[str]] = {}


def baseline_results(universe, template: int = 1, variant: int = 5) -> list[str]:
    """The adversary-free answer, cached per (universe, query)."""
    key = (id(universe), template, variant)
    if key not in _BASELINES:
        _BASELINES[key] = result_key(run_discover(universe, template=template, variant=variant))
    return _BASELINES[key]


@pytest.fixture()
def adversary(tiny_universe):
    """Factory fixture: deploy a plan, guarantee uninstall afterwards."""
    deployments = []

    def deploy(plan, targets=()):
        deployment = deploy_adversary(tiny_universe.internet, plan, targets=targets)
        deployments.append(deployment)
        return deployment

    yield deploy
    for deployment in deployments:
        deployment.uninstall()
