"""Tests for predicate-routed delta dispatch (DeltaRouter / DeltaBatch)."""

from repro.ltqp.pipeline import DeltaBatch, DeltaRouter, ScanNode, compile_pipeline
from repro.rdf import Dataset, Graph, Literal, NamedNode, Quad, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import BGP
from repro.sparql.bindings import Binding
from repro.sparql.eval import SnapshotEvaluator

EX = "http://example.org/"
G = NamedNode(EX + "doc")


def quad(s: str, p: str, o: str) -> Quad:
    return Quad(NamedNode(EX + s), NamedNode(EX + p), NamedNode(EX + o), G)


class TestDeltaRouter:
    def test_registered_predicates_are_collected(self):
        router = DeltaRouter()
        router.register(NamedNode(EX + "knows"))
        router.register(NamedNode(EX + "likes"))
        router.register(NamedNode(EX + "knows"))  # duplicate registration is fine
        assert router.predicates == {NamedNode(EX + "knows"), NamedNode(EX + "likes")}
        assert router.wildcard_listeners == 0

    def test_wildcard_registration(self):
        router = DeltaRouter()
        router.register(None)
        router.register(None)
        assert router.wildcard_listeners == 2
        assert router.predicates == frozenset()

    def test_batch_restricts_buckets_to_registered_predicates(self):
        router = DeltaRouter()
        knows = NamedNode(EX + "knows")
        router.register(knows)
        quads = [quad("a", "knows", "b"), quad("a", "noise", "c"), quad("b", "knows", "c")]
        batch = router.batch(quads)
        assert list(batch.for_predicate(knows)) == [quads[0], quads[2]]
        # Unregistered predicates were never bucketed.
        assert list(batch.for_predicate(NamedNode(EX + "noise"))) == []

    def test_compile_pipeline_registers_scan_predicates(self):
        x, y = Variable("x"), Variable("y")
        bgp = BGP((
            TriplePattern(x, NamedNode(EX + "knows"), y),
            TriplePattern(y, NamedNode(EX + "likes"), x),
        ))
        pipeline = compile_pipeline(bgp)
        assert pipeline.router.predicates == {
            NamedNode(EX + "knows"),
            NamedNode(EX + "likes"),
        }

    def test_variable_predicate_scan_registers_wildcard(self):
        x, p, y = Variable("x"), Variable("p"), Variable("y")
        pipeline = compile_pipeline(BGP((TriplePattern(x, p, y),)))
        assert pipeline.router.wildcard_listeners == 1


class TestDeltaBatch:
    def test_behaves_like_a_sequence_of_quads(self):
        quads = [quad("a", "p", "b"), quad("b", "p", "c")]
        batch = DeltaBatch(quads)
        assert len(batch) == 2
        assert list(batch) == quads
        assert bool(batch)
        assert not DeltaBatch([])

    def test_buckets_are_lazy(self):
        quads = [quad("a", "p", "b")]
        batch = DeltaBatch(quads, frozenset({NamedNode(EX + "p")}))
        assert batch._buckets is None  # not built until someone routes
        batch.for_predicate(NamedNode(EX + "p"))
        assert batch._buckets is not None

    def test_unrestricted_batch_buckets_everything(self):
        quads = [quad("a", "p", "b"), quad("a", "q", "c")]
        batch = DeltaBatch(quads)  # no routed set → bucket all predicates
        assert list(batch.for_predicate(NamedNode(EX + "q"))) == [quads[1]]


class TestScanNodeDispatch:
    def test_scan_reads_only_its_predicate_bucket(self):
        """Driving a scan directly takes a router-built batch."""
        x = Variable("x")
        scan = ScanNode(TriplePattern(x, NamedNode(EX + "p"), NamedNode(EX + "b")))
        router = DeltaRouter()
        scan.register(router)
        batch = router.batch([quad("a", "p", "b"), quad("a", "q", "b")])
        produced = scan.apply(batch, Dataset())
        assert produced == [(Binding({x: NamedNode(EX + "a")}), 1)]

    def test_repeated_variable_requires_equal_terms(self):
        x = Variable("x")
        scan = ScanNode(TriplePattern(x, NamedNode(EX + "p"), x))
        router = DeltaRouter()
        scan.register(router)
        batch = router.batch([quad("a", "p", "a"), quad("a", "p", "b")])
        produced = scan.apply(batch, Dataset())
        assert [b[x] for b, _ in produced] == [NamedNode(EX + "a")]

    def test_routed_advance_matches_snapshot_evaluation(self):
        x, y = Variable("x"), Variable("y")
        bgp = BGP((
            TriplePattern(x, NamedNode(EX + "knows"), y),
            TriplePattern(y, NamedNode(EX + "age"), Literal("42")),
        ))
        data = [
            quad("a", "knows", "b"),
            Quad(NamedNode(EX + "b"), NamedNode(EX + "age"), Literal("42"), G),
            quad("a", "noise", "b"),
            quad("c", "knows", "b"),
        ]
        pipeline = compile_pipeline(bgp)
        dataset = Dataset()
        produced = []
        for q in data:  # one-quad deltas exercise routing on every advance
            dataset.add(q)
            produced.extend(pipeline.advance(dataset))
        expected = SnapshotEvaluator(Graph([q.triple for q in data])).evaluate(bgp)
        assert sorted(map(repr, produced)) == sorted(map(repr, expected))
