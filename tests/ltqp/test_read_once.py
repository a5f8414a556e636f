"""A document is read once — counts and structure, not seconds.

* What a traversal does is unchanged by how its documents are read:
  Discover 1.1 and 8.1 under a ``TickClock`` fetch, discover, store, queue
  and pop exactly what the full-scan engine did (the pinned numbers are the
  parent commit's, PR 21), down to the order links leave the queue.
* A candidate link the queue has seen costs nothing: every ``Link`` the
  extraction step builds is admitted or pruned.
* With the default stack and a concrete-predicate plan no reader walks a
  document; the value itself walks it at most twice per *parse* (its
  predicate index, its distinct count), and a later query that finds the
  document in the store walks it not at all.
"""

import ast
import asyncio
import dataclasses
import hashlib
import inspect
import textwrap

import pytest

from repro.ltqp import (
    AllIriExtractor,
    EngineConfig,
    LinkExtractor,
    LinkTraversalEngine,
    MatchIriExtractor,
    ScopedLdpContainerExtractor,
    TraversalPolicy,
    default_extractors,
)
from repro.ltqp import dereference as dereference_module
from repro.ltqp import engine as engine_module
from repro.ltqp.dereference import DereferenceResult, Dereferencer
from repro.ltqp.extractors import QueryContext
from repro.ltqp.guided import HintDiscoveryExtractor, SubwebRule, SubwebSpecification
from repro.ltqp.source import GrowingTripleSource
from repro.net.latency import NoLatency
from repro.obs import TickClock, Tracer
from repro.rdf import ParsedDocument, Variable
from repro.rdf.triples import TriplePattern
from repro.service.docstore import DocumentStore, StoredDocument
from repro.solidbench import discover_query

NOISE_DENIED = SubwebSpecification(
    rules=(SubwebRule(match="**/noise/**", action="deny", label="noise"),)
)


def tick_run(universe, template, monkeypatch, subweb=None):
    """One traced single-worker run; returns (stats, tracer, #Links built by the engine)."""
    built = []
    real_link = engine_module.Link

    def counting_link(*args, **kwargs):
        built.append(real_link(*args, **kwargs))
        return built[-1]

    query = discover_query(universe, template, 1)
    policy = TraversalPolicy(worker_count=1, subweb=subweb)
    engine = universe.fast_engine(config=EngineConfig(traversal=policy))
    tracer = Tracer(clock=TickClock(step=0.001))
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "Link", counting_link)
        stats = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync().stats
    return stats, tracer, len(built)


class TestTraversalIsUnchanged:
    #: (template, subweb) → what the parent commit's traversal did at scale
    #: 0.02 / seed 42 on the paper-shaped pods (no published index — source
    #: selection runs, finds nothing to read, and changes nothing):
    #: documents, triples discovered / stored, links by extractor, sha1 of
    #: the popped URLs in pop order.
    PINNED = {
        (1, None): (
            101, 2379, 483,
            {"ldp-container": 93, "match": 6, "seed": 1, "storage": 1, "type-index": 1},
            "d0dfc96fd3b7ba59edc830cb0d1431d4a515aa67",
        ),
        (8, None): (
            3483, 79775, 6546,
            {"ldp-container": 2674, "match": 746, "seed": 1, "storage": 31, "type-index": 31},
            "90d05942e41ac607bd1bb8bea6399026d9ac3786",
        ),
        (1, "noise denied"): (
            82, 990, 462,
            {"ldp-container": 74, "match": 6, "seed": 1, "storage": 1, "type-index": 1},
            "f4d6495c67e518e95fd693df59aff60bf118a837",
        ),
    }

    @pytest.mark.parametrize("template, subweb", sorted(PINNED, key=str))
    def test_counts_and_pop_order(self, paper_small_universe, monkeypatch, template, subweb):
        stats, tracer, built = tick_run(
            paper_small_universe, template, monkeypatch, NOISE_DENIED if subweb else None
        )
        popped = [span.args["url"] for span in tracer.spans if span.name == "dereference"]
        assert (
            stats.documents_fetched,
            stats.triples_discovered,
            stats.triples_stored,
            stats.links_by_extractor,
            hashlib.sha1("\n".join(popped).encode()).hexdigest(),
        ) == self.PINNED[template, subweb]
        # Seen first: a Link is built only for a URL the queue has not seen,
        # so each one is admitted or pruned (the parent built 762 / 17,433 /
        # 744 to admit 102 / 3,483 / 83).
        pruned_at_push = sum(
            span.args.get("pruned", 0) for span in tracer.spans if span.name == "extract"
        )
        assert pruned_at_push == (1 if subweb else 0)
        assert built == stats.links_queued + pruned_at_push


class _CountingTuple(tuple):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class CountingDocument(ParsedDocument):
    """Counts readers' walks (``for triple in document``) and every walk of
    the triples themselves, the value's own included."""

    __slots__ = ()
    reader_walks = 0

    def __init__(self, triples=()):
        super().__init__(triples)
        self.triples = _CountingTuple(self.triples)

    def __iter__(self):
        CountingDocument.reader_walks += 1
        return super().__iter__()


class TestNobodyWalksADocument:
    def test_default_stack_over_a_concrete_plan(self, small_universe, monkeypatch):
        monkeypatch.setattr(dereference_module, "ParsedDocument", CountingDocument)
        monkeypatch.setattr(CountingDocument, "reader_walks", 0)
        store = DocumentStore()
        client = small_universe.client(latency=NoLatency())
        engine = LinkTraversalEngine(Dereferencer(client, document_store=store))
        query = discover_query(small_universe, 1, 1)

        first = engine.query(query.text, seeds=query.seeds).run_sync()
        documents = [entry.document for entry in store.entries()]
        # Default pods: the card, its source index (read by bucket like any
        # other document) and the 31 dated documents it lists under posts/.
        assert len(documents) == first.stats.documents_fetched == 33
        assert all(type(document) is CountingDocument for document in documents)
        assert CountingDocument.reader_walks == 0
        # The value's own: the predicate index and the distinct count.
        assert [document.triples.walks for document in documents] == [2] * 33

        second = engine.query(query.text, seeds=query.seeds).run_sync()
        assert second.stats.documents_from_store == 33
        assert second.bindings == first.bindings
        assert CountingDocument.reader_walks == 0
        assert [document.triples.walks for document in documents] == [2] * 33

    def test_a_wildcard_reader_is_the_one_that_walks(self):
        document = CountingDocument()
        for extractor in (AllIriExtractor(), MatchIriExtractor()):
            before = CountingDocument.reader_walks
            context = QueryContext(patterns=(TriplePattern(Variable("s"), Variable("p"), None),))
            assert extractor.reads(context) is None
            list(extractor.discover("https://h/doc", document, context))
            assert CountingDocument.reader_walks == before + 1
        source = GrowingTripleSource(read_set=None)  # a plan that can match any predicate
        before = CountingDocument.reader_walks
        source.put_document("https://h/doc", document)
        assert CountingDocument.reader_walks == before + 1

    SHIPPED = default_extractors() + [
        ScopedLdpContainerExtractor(), AllIriExtractor(), HintDiscoveryExtractor(selector=None)
    ]

    @pytest.mark.parametrize("extractor", SHIPPED, ids=lambda extractor: extractor.name)
    def test_only_a_declared_wildcard_discover_loops_over_the_document(self, extractor):
        """In the source: ``document`` is iterated (rather than asked to
        ``select``) only by an extractor whose ``reads`` can say ``None``."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(type(extractor).discover)))
        iterated = [
            node.iter for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))
        ]
        selects = {
            id(node.func.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "select"
        }
        walks = any(
            isinstance(node, ast.Name) and node.id == "document" and id(node) not in selects
            for iterable in iterated
            for node in ast.walk(iterable)
        )
        any_predicate = QueryContext(patterns=(TriplePattern(None, Variable("p"), None),))
        assert walks == (extractor.reads(any_predicate) is None)
        assert extractor.reads(QueryContext()) is not None or type(extractor) is AllIriExtractor


class TestOneValue:
    def test_results_entries_and_ingest_carry_the_document_and_no_triple_list(self):
        assert "triples" not in {field.name for field in dataclasses.fields(DereferenceResult)}
        assert {field.name for field in dataclasses.fields(StoredDocument)} == {
            "url", "validator", "document", "stored_at"
        }
        method = GrowingTripleSource.put_document
        assert list(inspect.signature(method).parameters) == ["self", "url", "document"]
        assert list(inspect.signature(LinkExtractor.discover).parameters) == [
            "self", "document_url", "document", "context"
        ]

    def test_a_store_hit_hands_out_the_stored_object(self, small_universe):
        store = DocumentStore()
        client = small_universe.client(latency=NoLatency())
        dereferencer = Dereferencer(client, document_store=store)
        url = next(iter(small_universe.pods.values())).profile_url

        async def twice():
            return await dereferencer.dereference(url), await dereferencer.dereference(url)

        parsed, stored = asyncio.run(twice())
        assert stored.from_store and not parsed.from_store
        (entry,) = store.entries()
        assert stored.document is parsed.document is entry.document
