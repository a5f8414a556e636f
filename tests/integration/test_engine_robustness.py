"""Robustness integration tests: cycles, provenance queries, concurrency."""

import asyncio

import pytest

from repro.ltqp import Dereferencer, EngineConfig, LinkTraversalEngine, TraversalPolicy
from repro.ltqp.links import origin_of
from repro.net import HttpClient, Internet, NoLatency, StaticApp
from repro.rdf import Variable

from .test_origin_dispatch import peak_overlap


def turtle_doc(*links: str, extra: str = "") -> str:
    body = "".join(
        f"<#me> <https://vocab.example/links> <{link}> .\n" for link in links
    )
    return body + extra


class TestCyclicLinkGraphs:
    def build_cycle_world(self):
        """Three documents linking in a cycle, plus one dangling link."""
        internet = Internet()
        app = StaticApp()
        app.put("/a", turtle_doc("https://h/b", extra='<#me> <https://vocab.example/name> "A" .\n'))
        app.put("/b", turtle_doc("https://h/c"))
        app.put("/c", turtle_doc("https://h/a", "https://h/missing"))
        internet.register("https://h", app)
        return internet

    def test_traversal_terminates_on_cycles(self):
        from repro.ltqp import AllIriExtractor

        internet = self.build_cycle_world()
        engine = LinkTraversalEngine(
            Dereferencer(HttpClient(internet, latency=NoLatency())), extractors=[AllIriExtractor()]
        )
        result = engine.query(
            "SELECT ?n WHERE { ?s <https://vocab.example/name> ?n }",
            seeds=["https://h/a"],
        ).run_sync()
        assert len(result) == 1
        # a, b, c fetched exactly once; /missing 404s once (cAll also
        # dereferences the vocabulary IRIs, which we ignore here).
        fetched = [r.url for r in engine.client.log.records if r.url.startswith("https://h/")]
        assert sorted(fetched) == [
            "https://h/a",
            "https://h/b",
            "https://h/c",
            "https://h/missing",
        ]

    def test_self_referencing_document(self):
        from repro.ltqp import AllIriExtractor

        internet = Internet()
        app = StaticApp()
        app.put("/self", turtle_doc("https://h/self#frag"))
        internet.register("https://h", app)
        engine = LinkTraversalEngine(
            Dereferencer(HttpClient(internet, latency=NoLatency())), extractors=[AllIriExtractor()]
        )
        result = engine.query("SELECT ?o WHERE { ?s ?p ?o }", seeds=["https://h/self"]).run_sync()
        assert engine.client.log.records[0].url == "https://h/self"
        assert len(engine.client.log) == 2  # self + the vocab predicate IRI


class TestProvenanceQueries:
    def test_graph_variable_binds_document_urls(self, tiny_universe):
        """Traversal keeps per-document provenance: GRAPH ?g exposes which
        document each triple came from — streamed, not snapshot."""
        webid = tiny_universe.webid(0)
        pod = tiny_universe.pod_of(0)
        engine = tiny_universe.fast_engine()
        query = f"""
        PREFIX snvoc: <https://solidbench.linkeddatafragments.org/www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/>
        SELECT DISTINCT ?g WHERE {{
          GRAPH ?g {{ ?m snvoc:hasCreator <{webid}> }}
        }}
        """
        result = engine.query(query, seeds=[webid]).run_sync()
        assert result.stats.streaming
        documents = {b[Variable("g")].value for b in result.bindings}
        assert documents
        assert all(url.startswith(pod.base_url) for url in documents)
        # Provenance URLs are real fetched documents.
        fetched = {r.url for r in engine.client.log.records}
        assert documents <= fetched


class TestWorkerConcurrency:
    @pytest.mark.parametrize("workers", [0, 1, 4, 16])
    def test_answers_independent_of_worker_count(self, tiny_universe, workers):
        from repro.net import SeededJitterLatency
        from repro.solidbench import discover_query

        query = discover_query(tiny_universe, 2, 1)
        engine = tiny_universe.engine(
            config=EngineConfig(traversal=TraversalPolicy(worker_count=workers)),
            latency=SeededJitterLatency(seed=9, min_rtt_seconds=0.002, max_rtt_seconds=0.008),
        )
        result = engine.query(query.text, seeds=query.seeds).run_sync()
        baseline = tiny_universe.fast_engine(
            config=EngineConfig(traversal=TraversalPolicy(worker_count=1))
        ).query(query.text, seeds=query.seeds).run_sync()
        assert set(result.bindings) == set(baseline.bindings)
        assert result.stats.documents_fetched == baseline.stats.documents_fetched
        # Never more at once than the cap — the global one, else the client's per origin.
        records = engine.client.log.records
        peak = max(peak_overlap(records, origin_of(record.url)) for record in records)
        assert 1 <= peak <= (workers or engine.client.origin_slots)

    def test_the_default_sets_no_global_cap(self):
        assert TraversalPolicy().worker_count == 0

    def test_concurrent_executions_do_not_interfere(self, tiny_universe):
        from repro.solidbench import discover_query

        async def run_many():
            queries = [discover_query(tiny_universe, t, 1) for t in (1, 2, 4)]
            engines = [tiny_universe.fast_engine() for _ in queries]
            return await asyncio.gather(
                *[
                    engine.query(query.text, seeds=query.seeds).gather()
                    for engine, query in zip(engines, queries)
                ]
            )

        results = asyncio.run(run_many())
        assert all(len(result) > 0 for result in results)
