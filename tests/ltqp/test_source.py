"""Unit tests for the growing triple source."""

import dataclasses
import gc
import inspect

import pytest

from repro.ltqp.pipeline import compile_pipeline
from repro.ltqp.source import GrowingTripleSource
from repro.rdf import NamedNode, ParsedDocument, Triple
from repro.solidbench.queries import discover_query
from repro.sparql import parse_query

from ..conftest import put_diff


def t(index: int) -> Triple:
    return Triple(NamedNode(f"http://x/s{index}"), NamedNode("http://x/p"), NamedNode("http://x/o"))


class TestGrowingTripleSource:
    def test_add_document_counts_new_triples(self):
        source = GrowingTripleSource()
        assert source.put_document("https://h/doc", ParsedDocument([t(1), t(2)])) == 2
        assert source.put_document("https://h/doc2", ParsedDocument([t(1)])) == 1  # new in its graph
        assert len(list(source.dataset.graph_names())) == 2
        assert len(source.dataset.union) == 2  # deduplicated in union

    def test_same_document_duplicates_skipped(self):
        source = GrowingTripleSource()
        source.put_document("https://h/doc", ParsedDocument([t(1), t(1)]))
        assert source.dataset.pending == 1

    def test_per_document_graphs(self):
        source = GrowingTripleSource()
        source.put_document("https://h/doc", ParsedDocument([t(1)]))
        assert source.dataset.has_graph(NamedNode("https://h/doc"))

    def test_a_refresh_retracts_a_shared_triple_from_the_union_with_its_last_holder(self):
        source = GrowingTripleSource()
        for url in ("https://h/a", "https://h/b"):
            source.put_document(url, ParsedDocument([t(1), t(2)]))
        union = source.dataset.union
        assert put_diff(source, "https://h/a", ParsedDocument([t(2)])) == ([], [t(1)])
        assert t(1) in union
        assert put_diff(source, "https://h/b", ParsedDocument([t(2)])) == ([], [t(1)])
        assert t(1) not in union and t(2) in union
        assert put_diff(source, "https://h/a", ParsedDocument([t(1), t(2)])) == ([t(1)], [])
        assert t(1) in union


class TestIndexOnFirstRead:
    """What the ingest path and a plan's reads build — counts, not seconds."""

    @staticmethod
    def crawl(universe, query, documents_per_advance=8):
        """Every document of the universe through the source, the compiled
        plan advanced as the engine does; returns (source, #results)."""
        pipeline = compile_pipeline(parse_query(query.text).where, seed_iris=query.seeds)
        source = GrowingTripleSource()
        results = documents = 0
        for pod in universe.pods.values():
            for document in pod.documents():
                source.put_document(pod.document_url(document.path), ParsedDocument(document.triples))
                documents += 1
                if documents % documents_per_advance == 0:
                    results += len(pipeline.advance(source.dataset))
        results += len(pipeline.advance(source.dataset))
        results += len(pipeline.finalize(source.dataset))
        return source, results

    @staticmethod
    def named_graphs(dataset):
        return [dataset.get_graph(name) for name in dataset.graph_names()]

    def test_bgp_plan_builds_no_index_anywhere(self, tiny_universe):
        source, results = self.crawl(tiny_universe, discover_query(tiny_universe, 1))
        assert results > 0 and len(list(source.dataset.graph_names())) > 100
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
            (f"https://h/doc{d}", ParsedDocument(t(d * 40 + index) for index in range(40)))
            for d in range(50)
        ]
        source = GrowingTripleSource()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            added = sum(source.put_document(url, document) for url, document in documents)
            grown = len(gc.get_objects()) - before
        finally:
            if was_enabled:
                gc.enable()
        assert added == 2000
        # One pending Quad per quad plus one triple set per document; the
        # parsed Triple is reused and no index container exists yet.
        assert grown / added <= 1.5


def p(index: int, predicate: str) -> Triple:
    return Triple(NamedNode(f"http://x/s{index}"), NamedNode(f"http://x/{predicate}"), NamedNode("http://x/o"))


class TestPlanAwareSource:
    """The source keeps what the plan reads — counts, not seconds."""

    READS = frozenset({NamedNode("http://x/p")})

    def test_only_read_predicates_are_stored_and_every_triple_is_counted(self):
        source = GrowingTripleSource(self.READS)
        document = ParsedDocument([p(1, "p"), p(2, "noise"), p(2, "noise"), p(3, "p"), p(4, "other")])
        assert source.put_document("https://h/doc", document) == 2
        assert source.triples_discovered == 4  # distinct triples, kept or not
        assert {quad.triple for quad in source.dataset.quads()} == {p(1, "p"), p(3, "p")}
        # A document URL ingested twice counts once (two links, one redirect target).
        assert source.put_document("https://h/doc", document) == 0
        assert source.triples_discovered == 4

    def test_a_document_that_keeps_nothing_still_names_its_graph(self):
        source = GrowingTripleSource(self.READS)
        assert source.put_document("https://h/noise", ParsedDocument([p(1, "noise")])) == 0
        assert source.dataset.has_graph(NamedNode("https://h/noise"))
        assert source.dataset.pending == 0

    def test_refresh_diffs_kept_triples_only(self):
        source = GrowingTripleSource(self.READS)
        source.put_document("https://h/doc", ParsedDocument([p(1, "p"), p(2, "noise")]))
        # A noise-only edit hands off nothing…
        noise_edit = ParsedDocument([p(1, "p"), p(9, "noise")])
        assert put_diff(source, "https://h/doc", noise_edit) == ([], [])
        # …an edit of something the plan reads is one retraction, one insertion.
        read_edit = ParsedDocument([p(5, "p"), p(9, "noise")])
        added, removed = put_diff(source, "https://h/doc", read_edit)
        assert (added, removed) == ([p(5, "p")], [p(1, "p")])

    def test_no_read_set_keeps_everything(self):
        source = GrowingTripleSource()
        assert source.put_document("https://h/doc", ParsedDocument([p(1, "p"), p(2, "noise")])) == 2
        assert source.triples_discovered == 2

    def test_one_ingest_path(self):
        """Filtered and wildcard plans, crawls and refreshes run the one
        ``put_document`` body: the read set is consulted in one helper and
        every write goes through ``Dataset.add_triples`` / ``remove``."""
        whole = inspect.getsource(GrowingTripleSource)
        assert whole.count("self._read_set") == 2  # stored by __init__, read by _kept
        methods = {
            name for name, member in vars(GrowingTripleSource).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        assert methods == {"put_document"}
        body = inspect.getsource(GrowingTripleSource.put_document)
        assert body.count("self._kept(document)") == 1
        assert body.count(".add_triples(") == 1
        assert "read_set" not in body

    #: template → (documents fetched, triples discovered, triples stored) for
    #: variant 1 at scale 0.02 / seed 42, paper-shaped pods (the full crawl).
    #: The first two are the parent commit's numbers (PR 19, which stored
    #: every triple it discovered).
    PINNED = {
        1: (101, 2379, 483),
        2: (109, 2569, 220),
        3: (176, 3084, 789),
        4: (156, 2806, 274),
        5: (142, 2704, 386),
        6: (99, 2349, 164),
        7: (116, 2619, 135),
        8: (3483, 79775, 6546),
    }

    @staticmethod
    def run(universe, query, seeds):
        engine = universe.fast_engine()
        return engine.query(query, seeds=seeds).run_sync().stats

    @pytest.mark.parametrize("template", sorted(PINNED))
    def test_discover_counts(self, paper_small_universe, template):
        query = discover_query(paper_small_universe, template, 1)
        stats = self.run(paper_small_universe, query.text, query.seeds)
        assert (
            stats.documents_fetched, stats.triples_discovered, stats.triples_stored
        ) == self.PINNED[template]
        assert stats.completeness()["complete"]

    def test_wildcard_plan_stores_all_it_discovers(self, paper_small_universe):
        # The same WHERE (so the same traversal) under DESCRIBE, whose CBD
        # walk can read any quad.
        query = discover_query(paper_small_universe, 8, 1)
        describe = dataclasses.replace(
            parse_query(query.text), form="DESCRIBE", describe_targets=(NamedNode(query.seeds[0]),)
        )
        stats = self.run(paper_small_universe, describe, query.seeds)
        assert (stats.documents_fetched, stats.triples_discovered, stats.triples_stored) == (
            3483, 79775, 79775,
        )
