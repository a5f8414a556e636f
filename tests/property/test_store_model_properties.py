"""Model tests for the index-on-first-read stores (hypothesis).

:class:`Graph` builds each index family on the first read that needs it,
so *when* a family appears depends on the interleaving of reads and writes.
None of that may be observable: under any interleaving of ``add`` /
``discard`` / ``match`` (all 8 shapes) / ``in`` — a first read landing before,
between or after any writes — every answer equals a brute-force filter over
a plain reference set.  The same holds for :class:`Dataset` (named graphs,
the union that cross-graph duplicates keep alive, the signed log).
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Graph, Literal, NamedNode, Quad, Triple

# A tiny closed world: collisions on every position, so buckets fill, empty
# and refill while indexes come into being.
nodes = st.sampled_from([NamedNode(f"http://x/n{i}") for i in range(4)])
predicates = st.sampled_from([NamedNode(f"http://x/p{i}") for i in range(3)])
objects = nodes | st.sampled_from([Literal("0"), Literal("1")])
triples = st.builds(Triple, nodes, predicates, objects)
graph_names = st.sampled_from([NamedNode(f"https://h/doc{i}") for i in range(3)])

#: Which of (subject, predicate, object) a read binds — all 8 shapes.
shapes = st.tuples(st.booleans(), st.booleans(), st.booleans())


def pattern(shape, probe):
    return tuple(term if bound else None for bound, term in zip(shape, probe))


def brute_force(reference, shape, probe):
    wanted = pattern(shape, probe)
    return {
        triple
        for triple in reference
        if all(want is None or want == have for want, have in zip(wanted, triple))
    }


graph_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), triples),
        st.tuples(st.just("discard"), triples),
        st.tuples(st.just("match"), shapes, triples),
        st.tuples(st.just("contains"), triples),
    ),
    max_size=40,
)


class TestGraphModel:
    @given(st.lists(triples, max_size=8), graph_operations)
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving_of_reads_and_writes_matches_a_reference_set(
        self, initial, operations
    ):
        graph = Graph(initial)
        reference = set(initial)
        for name, *args in operations:
            if name == "add":
                assert graph.add(args[0]) == (args[0] not in reference)
                reference.add(args[0])
            elif name == "discard":
                assert graph.discard(args[0]) == (args[0] in reference)
                reference.discard(args[0])
            elif name == "match":
                found = list(graph.match(*pattern(*args)))
                assert len(found) == len(set(found))  # a set: nothing twice
                assert set(found) == brute_force(reference, *args)
            else:
                assert (args[0] in graph) == (args[0] in reference)
            assert len(graph) == len(reference)
        # Whatever was built along the way, every shape agrees at the end.
        assert set(graph) == reference
        for probe in list(reference)[:3]:
            for shape in product((False, True), repeat=3):
                assert set(graph.match(*pattern(shape, probe))) == brute_force(
                    reference, shape, probe
                )


# Eight possible triples over three documents: the same triple lands in
# several graphs often enough to exercise the shared union entry.
few_triples = st.builds(
    Triple,
    st.sampled_from([NamedNode("http://x/n0"), NamedNode("http://x/n1")]),
    st.sampled_from([NamedNode("http://x/p0"), NamedNode("http://x/p1")]),
    st.sampled_from([NamedNode("http://x/n0"), Literal("0")]),
)

dataset_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), few_triples, graph_names),
        st.tuples(st.just("add_triples"), st.lists(few_triples, max_size=5), graph_names),
        st.tuples(st.just("remove"), few_triples, graph_names),
        st.tuples(st.just("match"), shapes, few_triples, st.none() | graph_names),
        st.tuples(st.just("contains"), few_triples),
    ),
    max_size=40,
)


class TestDatasetModel:
    @given(dataset_operations)
    @settings(max_examples=150, deadline=None)
    def test_union_named_graphs_and_log_match_a_reference_model(self, operations):
        dataset = Dataset()
        reference: dict[NamedNode, set[Triple]] = {}
        log: list[tuple[int, Quad]] = []

        def union():
            return set().union(*reference.values())

        def insert(triple, name):
            graph = reference.setdefault(name, set())
            if triple in graph:
                return False
            graph.add(triple)
            log.append((1, Quad(*triple, name)))
            return True

        for name, *args in operations:
            if name == "add":
                triple, graph_name = args
                assert dataset.add(Quad(*triple, graph_name)) == insert(triple, graph_name)
            elif name == "add_triples":
                batch, graph_name = args
                expected = sum([insert(triple, graph_name) for triple in batch])
                assert dataset.add_triples(batch, graph_name) == expected
                reference.setdefault(graph_name, set())  # the writer's graph exists
            elif name == "remove":
                triple, graph_name = args
                present = triple in reference.get(graph_name, ())
                assert dataset.remove(Quad(*triple, graph_name)) == present
                if present:
                    reference[graph_name].discard(triple)
                    log.append((-1, Quad(*triple, graph_name)))
            elif name == "match":
                shape, probe, graph_name = args
                # A triple held by two documents is in the union once, and
                # stays there until the last holder retracts it.
                scope = union() if graph_name is None else reference.get(graph_name, ())
                found = list(dataset.match(*pattern(shape, probe), graph=graph_name))
                assert len(found) == len(set(found))
                assert set(found) == brute_force(scope, shape, probe)
            else:
                assert (args[0] in dataset) == (args[0] in union())

        assert set(dataset.graph_names()) == set(reference)  # reads created none
        assert set(dataset.union) == union()
        for graph_name, expected in reference.items():
            assert set(dataset.get_graph(graph_name)) == expected
        live = {Quad(*triple, name) for name, graph in reference.items() for triple in graph}
        assert set(dataset.quads()) == live and len(dataset) == len(live)
        runs = dataset.take_changes()
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # maximal runs
        assert [(sign, quad) for sign, run in runs for quad in run] == log
        assert dataset.pending == 0 and dataset.take_changes() == []
