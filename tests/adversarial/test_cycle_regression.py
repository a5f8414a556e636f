"""Regression: container cycles terminate under the seen-URL set even
when every revisit serves a *different* validator.

The DocumentStore keys parsed documents by HTTP validator (ETag, else a
body digest).  A hostile pair of containers linking to each other whose
ETags mutate per request defeats that dedup completely — every fetch
looks like a brand-new revision.  Termination must therefore come from
the link queue's per-execution seen-URL set, never from validator
identity.  This pins that down: each cycle document is fetched exactly
once per execution, executions re-fetch (the mutated validator misses
the store) but never loop.
"""

from __future__ import annotations

from repro.ltqp.dereference import Dereferencer
from repro.ltqp.engine import LinkTraversalEngine, TraversalPolicy
from repro.net.client import HttpClient
from repro.net.latency import NoLatency
from repro.net.router import Internet
from repro.service.docstore import DocumentStore
from repro.solidbench.adversary import AdversaryPlan, deploy_adversary

QUERY = "SELECT ?s WHERE { ?s ?p ?o }"


def _cycle_engine():
    internet = Internet()
    deployment = deploy_adversary(
        internet, AdversaryPlan(seed=9, kinds=("growing-doc",), origin_prefix="adv-cyc")
    )
    app = deployment.apps[deployment.origins[0]]
    client = HttpClient(internet, latency=NoLatency())
    store = DocumentStore()
    dereferencer = Dereferencer(client, document_store=store)
    engine = LinkTraversalEngine(dereferencer, traversal=TraversalPolicy(worker_count=2))
    return engine, app, store


class TestMutatingEtagCycle:
    def test_single_execution_fetches_each_cycle_node_once(self):
        engine, app, _ = _cycle_engine()
        seeds = [app.url("/cycle/a")]
        execution = engine.query(QUERY, seeds=seeds).run_sync()
        assert app.requests_by_path.get("/cycle/a") == 1
        assert app.requests_by_path.get("/cycle/b") == 1
        assert execution.stats.documents_fetched == 2

    def test_revisits_reparse_but_still_terminate(self):
        engine, app, store = _cycle_engine()
        seeds = [app.url("/cycle/a")]
        for round_number in range(1, 4):
            execution = engine.query(QUERY, seeds=seeds).run_sync()
            # Exactly one more fetch per node per execution — the cycle
            # never spins within a run, no matter how often it is re-run.
            assert app.requests_by_path["/cycle/a"] == round_number
            assert app.requests_by_path["/cycle/b"] == round_number
            # The mutating validator defeats store dedup every time: no
            # execution ever gets a store hit, each re-parses both nodes.
            assert execution.stats.documents_from_store == 0
        assert store.invalidations >= 2  # the defeated dedup is visible

    def test_cycle_counts_are_attributed_in_completeness(self):
        engine, app, _ = _cycle_engine()
        execution = engine.query(QUERY, seeds=[app.url("/cycle/a")]).run_sync()
        report = execution.stats.completeness()
        assert report["documents_fetched"] == 2
        assert report["documents_attempted"] == 2
        assert report["complete"]
