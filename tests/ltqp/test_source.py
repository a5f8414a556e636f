"""Unit tests for the growing triple source."""

import gc

from repro.ltqp.pipeline import compile_pipeline
from repro.ltqp.source import GrowingTripleSource
from repro.rdf import NamedNode, Triple
from repro.solidbench.queries import discover_query
from repro.sparql import parse_query


def t(index: int) -> Triple:
    return Triple(NamedNode(f"http://x/s{index}"), NamedNode("http://x/p"), NamedNode("http://x/o"))


class TestGrowingTripleSource:
    def test_add_document_counts_new_triples(self):
        source = GrowingTripleSource()
        assert source.add_document("https://h/doc", [t(1), t(2)]) == 2
        assert source.add_document("https://h/doc2", [t(1)]) == 1  # new in its graph
        assert source.document_count == 2
        assert source.dataset.union.count() == 2  # deduplicated in union

    def test_same_document_duplicates_skipped(self):
        source = GrowingTripleSource()
        source.add_document("https://h/doc", [t(1), t(1)])
        assert source.dataset.log_position == 1

    def test_per_document_graphs(self):
        source = GrowingTripleSource()
        source.add_document("https://h/doc", [t(1)])
        assert source.dataset.has_graph(NamedNode("https://h/doc"))


class TestIndexOnFirstRead:
    """What the ingest path and a plan's reads build — counts, not seconds."""

    @staticmethod
    def crawl(universe, query, documents_per_advance=8):
        """Every document of the universe through the source, the compiled
        plan advanced as the engine does; returns (source, #results)."""
        pipeline = compile_pipeline(parse_query(query.text).where, seed_iris=query.seeds)
        source = GrowingTripleSource()
        results = 0
        for pod in universe.pods.values():
            for document in pod.documents():
                source.add_document(pod.document_url(document.path), document.triples)
                if source.document_count % documents_per_advance == 0:
                    results += len(pipeline.advance(source.dataset))
        results += len(pipeline.advance(source.dataset))
        results += len(pipeline.finalize(source.dataset))
        return source, results

    @staticmethod
    def named_graphs(dataset):
        return [dataset.get_graph(name) for name in dataset.graph_names()]

    def test_bgp_plan_builds_no_index_anywhere(self, tiny_universe):
        source, results = self.crawl(tiny_universe, discover_query(tiny_universe, 1))
        assert results > 0 and source.document_count > 100
        assert source.dataset.union.built_indexes == ()
        assert all(graph.built_indexes == () for graph in self.named_graphs(source.dataset))

    def test_path_plan_builds_one_family_on_the_union_only(self, tiny_universe):
        source, results = self.crawl(tiny_universe, discover_query(tiny_universe, 8))
        assert results > 0
        # ``_:g (hasPost|hasComment) ?message`` scans by predicate: POS.
        assert source.dataset.union.built_indexes == ("pos",)
        assert all(graph.built_indexes == () for graph in self.named_graphs(source.dataset))

    def test_ingest_allocates_about_one_tracked_object_per_quad(self):
        documents = [
            (f"https://h/doc{d}", [t(d * 40 + index) for index in range(40)])
            for d in range(50)
        ]
        source = GrowingTripleSource()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            added = sum(source.add_document(url, triples) for url, triples in documents)
            grown = len(gc.get_objects()) - before
        finally:
            if was_enabled:
                gc.enable()
        assert added == 2000
        # One logged Quad per quad plus one triple set per document; the
        # parsed Triple is reused and no index container exists yet.
        assert grown / added <= 1.5
