"""Unit tests for the indexed Graph and Dataset stores."""

import pytest

from repro.rdf import Dataset, Graph, Literal, NamedNode, Quad, Triple


def n(suffix: str) -> NamedNode:
    return NamedNode(f"http://example.org/{suffix}")


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    g.add(Triple(n("a"), n("p"), n("b")))
    g.add(Triple(n("a"), n("p"), n("c")))
    g.add(Triple(n("a"), n("q"), Literal("x")))
    g.add(Triple(n("b"), n("p"), n("c")))
    return g


class TestGraph:
    def test_add_is_idempotent(self, graph):
        assert not graph.add(Triple(n("a"), n("p"), n("b")))
        assert len(graph) == 4

    def test_match_fully_bound(self, graph):
        assert list(graph.match(n("a"), n("p"), n("b"))) == [Triple(n("a"), n("p"), n("b"))]
        assert list(graph.match(n("a"), n("p"), n("zzz"))) == []

    def test_match_by_subject_predicate(self, graph):
        objects = {t.object for t in graph.match(n("a"), n("p"), None)}
        assert objects == {n("b"), n("c")}

    def test_match_by_predicate_object(self, graph):
        subjects = {t.subject for t in graph.match(None, n("p"), n("c"))}
        assert subjects == {n("a"), n("b")}

    def test_match_by_subject_object(self, graph):
        predicates = {t.predicate for t in graph.match(n("a"), None, n("b"))}
        assert predicates == {n("p")}

    def test_match_single_position(self, graph):
        assert len(list(graph.match(n("a"), None, None))) == 3
        assert len(list(graph.match(None, n("p"), None))) == 3
        assert len(list(graph.match(None, None, n("c")))) == 2

    def test_match_all(self, graph):
        assert len(list(graph.match())) == 4

    def test_discard_updates_all_indexes(self, graph):
        assert graph.discard(Triple(n("a"), n("p"), n("b")))
        assert not graph.discard(Triple(n("a"), n("p"), n("b")))
        assert len(list(graph.match(n("a"), n("p"), None))) == 1
        assert list(graph.match(None, n("p"), n("b"))) == []
        assert list(graph.match(n("a"), None, n("b"))) == []

    def test_discard_then_match_empty_bucket(self, graph):
        graph.discard(Triple(n("b"), n("p"), n("c")))
        assert list(graph.match(n("b"), None, None)) == []

    def test_subjects_objects_value(self, graph):
        assert set(graph.subjects(n("p"), None)) == {n("a"), n("b")}
        assert set(graph.objects(n("a"), n("p"))) == {n("b"), n("c")}
        assert graph.value(n("a"), n("q"), None) == Literal("x")
        assert graph.value(n("zzz"), n("q"), None) is None

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add(Triple(n("z"), n("p"), n("z")))
        assert len(clone) == len(graph) + 1

    def test_contains(self, graph):
        assert Triple(n("a"), n("p"), n("b")) in graph
        assert Triple(n("z"), n("p"), n("b")) not in graph

    def test_an_index_family_is_built_by_the_first_read_that_needs_it(self, graph):
        assert graph.built_indexes == ()
        # Writes, membership, length, full scans and fully bound probes
        # are answered by the triple set alone.
        graph.add(Triple(n("z"), n("p"), n("z")))
        graph.discard(Triple(n("z"), n("p"), n("z")))
        assert Triple(n("a"), n("p"), n("b")) in graph and len(graph) == 4
        assert len(list(graph.match())) == 4
        assert len(list(graph.match(n("a"), n("p"), n("b")))) == 1
        assert graph.built_indexes == ()
        assert len(list(graph.match(n("a"), n("p")))) == 2
        assert graph.built_indexes == ("spo",)
        assert len(list(graph.match(predicate=n("p")))) == 3
        assert graph.built_indexes == ("spo", "pos")
        assert graph.value(None, n("p"), n("b")) == n("a")
        assert graph.built_indexes == ("spo", "pos")  # POS again, not a new family
        assert len(list(graph.match(n("a"), None, n("c")))) == 1
        assert graph.built_indexes == ("spo", "pos", "osp")

    def test_built_indexes_follow_later_writes(self, graph):
        assert len(list(graph.match(n("a"), n("p")))) == 2  # builds SPO before the writes
        graph.add(Triple(n("a"), n("p"), n("d")))
        graph.discard(Triple(n("a"), n("p"), n("b")))
        assert set(graph.objects(n("a"), n("p"))) == {n("c"), n("d")}
        # A family built after the writes sees the same state.
        assert set(graph.subjects(n("p"), n("d"))) == {n("a")}
        assert set(graph.subjects(n("p"), n("b"))) == set()


class TestDataset:
    def test_union_deduplicates_across_graphs(self):
        ds = Dataset()
        triple = Triple(n("a"), n("p"), n("b"))
        assert ds.add(Quad(triple.subject, triple.predicate, triple.object, n("g1")))
        assert ds.add(Quad(triple.subject, triple.predicate, triple.object, n("g2")))
        assert len(ds.union) == 1
        assert len(ds) == 2  # per-graph provenance preserved

    def test_duplicate_in_same_graph_rejected(self):
        ds = Dataset()
        quad = Quad(n("a"), n("p"), n("b"), n("g1"))
        assert ds.add(quad)
        assert not ds.add(quad)

    def test_match_specific_graph(self):
        ds = Dataset()
        ds.add(Quad(n("a"), n("p"), n("b"), n("g1")))
        ds.add(Quad(n("c"), n("p"), n("d"), n("g2")))
        assert len(ds.union) == 2
        assert list(ds.match(graph=n("g1"))) == [Triple(n("a"), n("p"), n("b"))]
        assert list(ds.match(graph=n("missing"))) == []

    def test_pending_counts_each_novelty_until_taken(self):
        ds = Dataset()
        assert ds.pending == 0
        ds.add(Quad(n("a"), n("p"), n("b"), None))
        ds.add(Quad(n("a"), n("p"), n("b"), None))  # no novelty, nothing pending
        ds.add(Quad(n("a"), n("p"), n("c"), None))
        assert ds.pending == 2
        ds.take_changes()
        assert ds.pending == 0 and len(ds) == 2

    def test_take_changes_returns_only_what_the_last_take_left(self):
        ds = Dataset()
        ds.add(Quad(n("a"), n("p"), n("b"), None))
        ds.take_changes()
        ds.add(Quad(n("a"), n("p"), n("c"), None))
        ds.add(Quad(n("x"), n("q"), n("y"), None))
        ((sign, quads),) = ds.take_changes()
        assert sign == 1 and [q.object for q in quads] == [n("c"), n("y")]
        assert ds.take_changes() == []

    def test_add_triples_helper(self):
        ds = Dataset()
        count = ds.add_triples([Triple(n("a"), n("p"), n("b"))], graph=n("doc"))
        assert count == 1
        assert ds.has_graph(n("doc"))

    def test_add_triples_stores_the_callers_triples_and_logs_one_quad_each(self):
        ds = Dataset()
        first, second = Triple(n("a"), n("p"), n("b")), Triple(n("a"), n("p"), n("c"))
        duplicate = Triple(n("a"), n("p"), n("b"))  # equal to ``first``, another object
        assert ds.add_triples([first, second, duplicate], graph=n("doc")) == 2
        # No re-allocation: the parsed objects themselves are what is stored.
        for stored in (*ds.match(graph=n("doc")), *ds.union):
            assert stored is first or stored is second
        assert ds.take_changes() == [(1, [
            Quad(n("a"), n("p"), n("b"), n("doc")),
            Quad(n("a"), n("p"), n("c"), n("doc")),
        ])]

    def test_add_triples_again_adds_and_logs_nothing(self):
        ds = Dataset()
        triples = [Triple(n("a"), n("p"), n("b")), Triple(n("a"), n("p"), n("c"))]
        assert ds.add_triples(triples, graph=n("doc")) == 2
        assert ds.add_triples(triples, graph=n("doc")) == 0
        assert ds.add_triples([triples[0], triples[0]], graph=n("doc")) == 0
        assert ds.pending == 2 and len(ds) == 2
        # The same triples in another document are novelties *there*: handed
        # off per graph, deduplicated in the union.
        assert ds.add_triples(triples, graph=n("other")) == 2
        assert ds.pending == 4 and len(ds.union) == 2
        assert len(ds.take_changes()) == 1  # one run of four

    def test_get_graph_reads_without_creating(self):
        ds = Dataset()
        assert ds.get_graph(n("doc")) is None
        assert not ds.has_graph(n("doc")) and list(ds.graph_names()) == []
        ds.add(Quad(n("a"), n("p"), n("b"), n("doc")))
        assert ds.get_graph(n("doc")) is ds.graph(n("doc"))


class TestSignedLog:
    """The signed changes a dataset hands off to live standing queries."""

    def quad(self, s, o, g="doc"):
        return Quad(n(s), n("p"), n(o), n(g))

    def test_remove_retracts_and_logs_negative(self):
        ds = Dataset()
        quad = self.quad("a", "b")
        ds.add(quad)
        assert ds.remove(quad)
        assert quad.triple not in ds.union
        assert len(ds) == 0
        assert ds.take_changes() == [(1, [quad]), (-1, [quad])]

    def test_remove_absent_quad_is_a_noop(self):
        ds = Dataset()
        assert not ds.remove(self.quad("a", "b"))
        assert not ds.remove(self.quad("a", "b", g="never-created"))
        assert ds.pending == 0 and ds.take_changes() == []

    def test_union_survives_while_another_graph_holds_the_triple(self):
        ds = Dataset()
        ds.add(self.quad("a", "b", g="doc1"))
        ds.add(self.quad("a", "b", g="doc2"))
        assert ds.remove(self.quad("a", "b", g="doc1"))
        # doc2 still holds it: the union keeps the triple alive.
        assert Triple(n("a"), n("p"), n("b")) in ds.union
        assert ds.remove(self.quad("a", "b", g="doc2"))
        assert Triple(n("a"), n("p"), n("b")) not in ds.union

    def test_the_union_counts_its_holders_through_every_write_path(self):
        """Two graphs hold a triple: it stays in the union after one
        removal, leaves after both, and comes back on re-add — whichever
        of ``add`` / ``add_triples`` put it there."""
        ds = Dataset()
        triple = Triple(n("a"), n("p"), n("b"))
        ds.add(self.quad("a", "b", g="doc1"))
        ds.add_triples([triple, triple], n("doc2"))
        ds.add_triples([triple], n("doc3"))
        for last, graph in ((False, "doc2"), (False, "doc1"), (True, "doc3")):
            assert ds.remove(self.quad("a", "b", g=graph))
            assert not ds.remove(self.quad("a", "b", g=graph))  # once per holder
            assert (triple in ds.union) is not last
        ds.add_triples([triple], n("doc2"))
        assert triple in ds.union
        ds.add(self.quad("a", "b", g="doc1"))
        assert ds.remove(self.quad("a", "b", g="doc2"))
        assert triple in ds.union
        assert ds.remove(self.quad("a", "b", g="doc1"))
        assert triple not in ds.union

    def test_a_retraction_asks_no_other_graph(self, monkeypatch):
        ds = Dataset()
        for index in range(50):
            ds.add(self.quad("a", "b", g=f"doc{index}"))
            ds.add(self.quad("c", str(index), g=f"doc{index}"))
        monkeypatch.setattr(Graph, "__contains__", lambda *_: pytest.fail("scanned a graph"))
        for index in range(50):
            assert ds.remove(self.quad("a", "b", g=f"doc{index}"))
            assert any(ds.union.match(n("a"), n("p"), n("b"))) is (index < 49)

    def test_signed_runs_groups_maximal_same_sign_windows(self):
        ds = Dataset()
        a, b, c = self.quad("a", "x"), self.quad("b", "x"), self.quad("c", "x")
        for quad in (a, b, c):
            ds.add(quad)
        ds.remove(a)
        ds.remove(b)
        ds.add(a)
        runs = ds.take_changes()
        assert [(sign, len(quads)) for sign, quads in runs] == [(1, 3), (-1, 2), (1, 1)]
        assert runs[1][1] == [a, b]

    def test_a_take_starts_a_new_run_and_keeps_no_history(self):
        ds = Dataset()
        a, b = self.quad("a", "x"), self.quad("b", "x")
        ds.add(a)
        ds.add(b)
        ds.remove(a)
        assert ds.take_changes() == [(1, [a, b]), (-1, [a])]
        # The next change starts a run of its own, whatever the last sign.
        ds.remove(b)
        assert ds.take_changes() == [(-1, [b])]
        assert ds.pending == 0 and len(ds) == 0

    def test_quads_are_the_live_quads_graph_by_graph(self):
        ds = Dataset()
        a, b, c = self.quad("a", "x"), self.quad("b", "x"), self.quad("c", "x")
        d = self.quad("d", "x", g="later")
        for quad in (a, d, b, c):
            ds.add(quad)
        ds.remove(b)
        assert set(ds.quads()) == {a, c, d}
        # Re-adding after retraction: live again, with no duplicate emission;
        # each graph's quads come together, in graph creation order.
        ds.add(b)
        quads = list(ds.quads())
        assert set(quads[:3]) == {a, b, c} and quads[3:] == [d]
        assert len(ds) == 4
