"""Standing queries: signed maintenance units and the LiveQuery lifecycle.

Two layers under test:

* **pipeline units** — a live-compiled pipeline over a
  :class:`GrowingTripleSource` must maintain its result multiset under
  signed document re-diffs (`put_document` → `poll_changes`) for every
  operator family, matching a fresh execution over the final state;
* **LiveQuery** — the full loop over a simulated Solid pod: start →
  PATCH → refresh re-diffs the document → signed events, plus the
  notify/drain/subscribe/close lifecycle and the failure contracts.
"""

import asyncio
import gc
from collections import Counter

import pytest

from repro.ltqp.live import LiveQuery, ResultChange
from repro.ltqp.pipeline import compile_query_pipeline, total_work
from repro.ltqp.source import GrowingTripleSource
from repro.net.message import Request
from repro.rdf import NamedNode, ParsedDocument, Quad, Triple, Variable
from repro.rdf.isomorphism import isomorphic
from repro.rdf.turtle import parse_turtle
from repro.solidbench import SolidBenchConfig, build_universe
from repro.sparql.eval import SnapshotEvaluator
from repro.sparql.parser import parse_query

EX = "http://example.org/"
FOAF = "http://xmlns.com/foaf/0.1/"


# ---------------------------------------------------------------------------
# pipeline-level harness
# ---------------------------------------------------------------------------


def start_live(query_text: str, docs: dict[str, str]):
    """Run a live pipeline to quiescence over turtle documents."""
    query = parse_query(query_text)
    pipeline = compile_query_pipeline(query, live=True)
    source = GrowingTripleSource()
    results = []
    for url, text in docs.items():
        source.put_document(url, ParsedDocument(parse_turtle(text, base_iri=url)))
        results.extend(pipeline.advance(source.dataset))
    results.extend(pipeline.finalize(source.dataset))
    return pipeline, source, results


def fresh_results(query_text: str, docs: dict[str, str]):
    """A from-scratch execution over the final document state."""
    query = parse_query(query_text)
    pipeline = compile_query_pipeline(query)
    source = GrowingTripleSource()
    for url, text in docs.items():
        source.put_document(url, ParsedDocument(parse_turtle(text, base_iri=url)))
    results = list(pipeline.advance(source.dataset))
    results.extend(pipeline.finalize(source.dataset))
    return results


def apply_edit(pipeline, source, url: str, text: str):
    """One document rewrite -> the signed changes it causes."""
    source.put_document(url, ParsedDocument(parse_turtle(text, base_iri=url)))
    return pipeline.poll_changes(source.dataset)


def maintained(results, *change_batches) -> Counter:
    """Replay initial results plus signed changes into a multiset."""
    multiset: Counter = Counter(results)
    for changes in change_batches:
        for binding, delta in changes:
            multiset[binding] += delta
    return +multiset  # drop zero/negative entries


def assert_equivalent(query_text, docs, results, *change_batches):
    assert maintained(results, *change_batches) == Counter(
        fresh_results(query_text, docs)
    )


DOC = EX + "doc"
PEOPLE = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:age 30 ; foaf:knows <#bob> .
<#bob> foaf:name "Bob" ; foaf:age 25 .
<#carol> foaf:name "Carol" ; foaf:age 35 .
"""


class TestOperatorRetraction:
    """Each operator family maintains its multiset under signed edits."""

    def test_bgp_retraction(self):
        query = f'SELECT ?name WHERE {{ ?p <{FOAF}name> ?name }}'
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        assert len(results) == 3
        final = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:name "Alice" .'
        work_at_quiescence = total_work(pipeline.root)
        changes = apply_edit(pipeline, source, DOC, final)
        deltas = Counter(delta for _, delta in changes)
        assert deltas[-1] == 2  # Bob and Carol retracted
        # Work is counted in both phases, not only up to quiescence.
        assert total_work(pipeline.root) > work_at_quiescence
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_join_retraction_cascades(self):
        query = (
            f'SELECT ?name ?other WHERE {{ ?p <{FOAF}knows> ?o . '
            f'?p <{FOAF}name> ?name . ?o <{FOAF}name> ?other }}'
        )
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        assert len(results) == 1  # Alice knows Bob
        # Retract Bob's name: the join result must disappear.
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:age 30 ; foaf:knows <#bob> .
<#bob> foaf:age 25 .
<#carol> foaf:name "Carol" ; foaf:age 35 .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)
        assert maintained(results, changes).total() == 0

    def test_optional_rebinds_on_retraction(self):
        query = (
            f'SELECT ?name ?age WHERE {{ ?p <{FOAF}name> ?name '
            f'OPTIONAL {{ ?p <{FOAF}age> ?age }} }}'
        )
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        # Retract Alice's age: her row must flip to the unbound form.
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:knows <#bob> .
<#bob> foaf:name "Bob" ; foaf:age 25 .
<#carol> foaf:name "Carol" ; foaf:age 35 .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert changes  # a retraction and a re-addition
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_optional_fills_in_on_addition(self):
        base = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:name "Alice" .'
        query = (
            f'SELECT ?name ?age WHERE {{ ?p <{FOAF}name> ?name '
            f'OPTIONAL {{ ?p <{FOAF}age> ?age }} }}'
        )
        pipeline, source, results = start_live(query, {DOC: base})
        final = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:name "Alice" ; foaf:age 30 .'
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_minus_toggles(self):
        query = (
            f'SELECT ?name WHERE {{ ?p <{FOAF}name> ?name '
            f'MINUS {{ ?p <{FOAF}age> 25 }} }}'
        )
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        assert len(results) == 2  # Bob excluded
        # Bob's age changes: he re-enters; Carol turns 25: she leaves.
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:age 30 ; foaf:knows <#bob> .
<#bob> foaf:name "Bob" ; foaf:age 26 .
<#carol> foaf:name "Carol" ; foaf:age 25 .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_filter_exists_toggles(self):
        query = (
            f'SELECT ?name WHERE {{ ?p <{FOAF}name> ?name '
            f'FILTER EXISTS {{ ?p <{FOAF}knows> ?o }} }}'
        )
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        assert len(results) == 1  # only Alice knows someone
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:age 30 .
<#bob> foaf:name "Bob" ; foaf:age 25 ; foaf:knows <#carol> .
<#carol> foaf:name "Carol" ; foaf:age 35 .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_group_by_recomputes(self):
        docs = {
            DOC: f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:knows <#bob>, <#carol> .
<#bob> foaf:knows <#carol> .
"""
        }
        query = (
            f'SELECT ?p (COUNT(?o) AS ?n) WHERE {{ ?p <{FOAF}knows> ?o }} '
            f'GROUP BY ?p'
        )
        pipeline, source, results = start_live(query, docs)
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:knows <#bob> .
<#bob> foaf:knows <#carol>, <#alice> .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_group_vanishes_when_empty(self):
        docs = {DOC: f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:knows <#bob> .'}
        query = (
            f'SELECT ?p (COUNT(?o) AS ?n) WHERE {{ ?p <{FOAF}knows> ?o }} '
            f'GROUP BY ?p'
        )
        pipeline, source, results = start_live(query, docs)
        assert len(results) == 1
        final = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:name "Alice" .'
        changes = apply_edit(pipeline, source, DOC, final)
        assert maintained(results, changes).total() == 0
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_order_limit_admits_new_top(self):
        query = (
            f'SELECT ?name ?age WHERE {{ ?p <{FOAF}name> ?name ; '
            f'<{FOAF}age> ?age }} ORDER BY ?age LIMIT 2'
        )
        pipeline, source, results = start_live(query, {DOC: PEOPLE})
        assert len(results) == 2  # Bob(25), Alice(30)
        # Carol drops to 20: she enters the page, Alice falls out.
        final = f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:age 30 ; foaf:knows <#bob> .
<#bob> foaf:name "Bob" ; foaf:age 25 .
<#carol> foaf:name "Carol" ; foaf:age 20 .
"""
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_distinct_holds_until_last_support_gone(self):
        docs = {
            DOC: f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:nick "ace" .
<#bob> foaf:nick "ace" .
"""
        }
        query = f'SELECT DISTINCT ?nick WHERE {{ ?p <{FOAF}nick> ?nick }}'
        pipeline, source, results = start_live(query, docs)
        assert len(results) == 1
        # One support retracted: DISTINCT row must survive...
        one = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:nick "ace" .'
        first = apply_edit(pipeline, source, DOC, one)
        assert maintained(results, first).total() == 1
        # ...until the last support goes.
        none = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:name "Alice" .'
        second = apply_edit(pipeline, source, DOC, none)
        assert maintained(results, first, second).total() == 0
        assert_equivalent(query, {DOC: none}, results, first, second)

    def test_union_sides_independent(self):
        query = (
            f'SELECT ?v WHERE {{ {{ ?p <{FOAF}name> ?v }} UNION '
            f'{{ ?p <{FOAF}nick> ?v }} }}'
        )
        docs = {
            DOC: f"""
@prefix foaf: <{FOAF}> .
<#alice> foaf:name "Alice" ; foaf:nick "ace" .
"""
        }
        pipeline, source, results = start_live(query, docs)
        assert len(results) == 2
        final = f'@prefix foaf: <{FOAF}> .\n<#alice> foaf:nick "ace" .'
        changes = apply_edit(pipeline, source, DOC, final)
        assert_equivalent(query, {DOC: final}, results, changes)

    def test_multi_document_edit_sequence(self):
        doc_a, doc_b = EX + "a", EX + "b"
        docs = {
            doc_a: f'@prefix foaf: <{FOAF}> .\n<{EX}x> foaf:knows <{EX}y> .',
            doc_b: f'@prefix foaf: <{FOAF}> .\n<{EX}y> foaf:name "Y" .',
        }
        query = (
            f'SELECT ?name WHERE {{ ?p <{FOAF}knows> ?o . '
            f'?o <{FOAF}name> ?name }}'
        )
        pipeline, source, results = start_live(query, dict(docs))
        edits = [
            (doc_b, f'@prefix foaf: <{FOAF}> .\n<{EX}y> foaf:name "Y2" .'),
            (doc_a, f'@prefix foaf: <{FOAF}> .\n<{EX}x> foaf:name "X" .'),
            (doc_a, f'@prefix foaf: <{FOAF}> .\n<{EX}x> foaf:knows <{EX}y> .'),
        ]
        batches = []
        for url, text in edits:
            batches.append(apply_edit(pipeline, source, url, text))
            docs[url] = text
        assert_equivalent(query, docs, results, *batches)


# ---------------------------------------------------------------------------
# LiveQuery over a simulated pod
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_universe():
    """A private universe per test: live tests mutate pod documents."""
    return build_universe(SolidBenchConfig(scale=0.01, seed=7))


def name_query(pod) -> str:
    return (
        f"SELECT ?name WHERE {{ <{pod.webid}> "
        f"<{FOAF}name> ?name }}"
    )


async def patch_document(universe, url: str, update: str) -> None:
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    app = universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
    headers = {"content-type": "application/sparql-update"}
    headers.update(app.login_owner(parts.path))
    response = await universe.internet.dispatch(
        Request("PATCH", url, headers, update.encode("utf-8"))
    )
    assert response.status < 400, f"PATCH failed: {response.status}"


def rename_update(webid: str, old: str, new: str) -> str:
    return (
        f'DELETE DATA {{ <{webid}> <{FOAF}name> "{old}" }} ;\n'
        f'INSERT DATA {{ <{webid}> <{FOAF}name> "{new}" }}'
    )


class TestLiveQuery:
    def test_start_publishes_initial_results_as_events(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            initial = await live.start()
            assert len(initial) == 1
            assert [e.delta for e in live.events] == [1]
            assert live.events[0].url == ""  # initial results are causeless
            return live

        asyncio.run(run())

    def test_refresh_emits_signed_events(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            old = pod.owner_name
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, old, "Renamed"),
            )
            events = await live.refresh(pod.profile_url)
            assert sorted(e.delta for e in events) == [-1, 1]
            assert all(e.url == pod.profile_url for e in events)
            current = live.current_results()
            assert sum(current.values()) == 1
            (binding,) = current
            assert "Renamed" in repr(binding)

        asyncio.run(run())

    def test_traced_refresh_owns_its_fetch_and_parse(self, live_universe):
        """The refresh is handed the standing query's tracer with the call:
        its conditional refetch and re-parse nest under the ``refresh``
        span — inside the ``dereference`` span of the link it re-opened —
        instead of vanishing (or landing in whichever tracer some other
        execution last left on the shared client)."""
        from repro.obs import Tracer, check_trace_invariants

        async def run():
            pod = next(iter(live_universe.pods.values()))
            tracer = Tracer()
            live = LiveQuery(
                live_universe.fast_engine(),
                name_query(pod),
                seeds=[pod.profile_url],
                tracer=tracer,
            )
            await live.start()
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, pod.owner_name, "Renamed"),
            )
            assert len(await live.refresh(pod.profile_url)) == 2
            return tracer

        tracer = asyncio.run(run())
        (refresh,) = [span for span in tracer.spans if span.name == "refresh"]
        children = {child.name: child for child in refresh.children}
        assert {"dereference", "apply-batch"} <= set(children)
        assert children["dereference"].args["outcome"] == "refreshed"
        grandchildren = {child.name: child for child in children["dereference"].children}
        assert {"fetch", "parse"} <= set(grandchildren)
        assert [child.name for child in grandchildren["fetch"].children] == ["attempt"]
        assert check_trace_invariants(tracer) == []

    def test_concurrent_refreshes_take_turns(self, live_universe):
        """Each refresh re-opens the one traversal, so two drains racing
        over one standing query run their refreshes one after the other."""
        from repro.obs import Tracer

        tracer = Tracer()

        async def run():
            pod = next(iter(live_universe.pods.values()))
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url],
                tracer=tracer,
            )
            await live.start()
            await patch_document(
                live_universe, pod.profile_url, rename_update(pod.webid, pod.owner_name, "Raced")
            )
            batches = await asyncio.gather(
                live.refresh(pod.profile_url), live.refresh(pod.profile_url)
            )
            fresh = await live_universe.fast_engine().query(
                name_query(pod), seeds=[pod.profile_url]
            ).gather()
            return live, batches, fresh

        live, batches, fresh = asyncio.run(run())
        assert sorted(event.delta for batch in batches for event in batch) == [-1, 1]
        assert Counter(live.current_results()) == Counter(fresh.bindings)
        first, second = [span for span in tracer.spans if span.name == "refresh"]
        assert first.end <= second.start

    def test_unchanged_refresh_is_silent(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            assert await live.refresh(pod.profile_url) == []
            assert live.failed_refreshes == {}

        asyncio.run(run())

    def test_gone_document_retracts_all_its_results(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            del pod._documents[pod.profile_path]  # the document is gone
            events = await live.refresh(pod.profile_url)
            assert [e.delta for e in events] == [-1]
            assert sum(live.current_results().values()) == 0
            assert live.failed_refreshes == {}  # 404 is not a failure

        asyncio.run(run())

    def test_failed_refresh_leaves_results_untouched(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            before = live.current_results()
            missing = pod.base_url + "never/existed"
            assert await live.refresh(missing) == []
            # An unknown URL 404s, which means "gone" — use a bad scheme
            # to exercise a genuine failure instead.
            bad = "ftp://nowhere.invalid/doc"
            assert await live.refresh(bad) == []
            assert "ftp://nowhere.invalid/doc" in live.failed_refreshes
            assert live.current_results() == before

        asyncio.run(run())

    def test_notify_drain_round_trip(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            old = pod.owner_name
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            live.notify(pod.profile_url + "#frag")  # fragment stripped
            assert live.pending == [pod.profile_url]
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, old, "Drained"),
            )
            events = await live.drain()
            assert sorted(e.delta for e in events) == [-1, 1]
            assert live.pending == []

        asyncio.run(run())

    def test_subscribe_replays_history_and_streams(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            old = pod.owner_name
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            queue = live.subscribe()
            replayed = queue.get_nowait()
            assert replayed.delta == 1
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, old, "Streamed"),
            )
            await live.refresh(pod.profile_url)
            deltas = sorted([queue.get_nowait().delta, queue.get_nowait().delta])
            assert deltas == [-1, 1]
            live.close()
            assert queue.get_nowait() is None  # end-of-stream

        asyncio.run(run())

    def test_listener_sees_batches_then_none(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            old = pod.owner_name
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            seen: list = []
            await live.start()
            live.add_listener(seen.append)
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, old, "Listened"),
            )
            await live.refresh(pod.profile_url)
            live.close()
            assert len(seen) == 2
            assert isinstance(seen[0], list) and len(seen[0]) == 2
            assert seen[1] is None

        asyncio.run(run())

    def test_standing_construct_replays_to_a_fresh_run(self, live_universe):
        """CONSTRUCT stands like any other form: every solution occurrence
        mints blank nodes of its own and takes them along when it goes, and
        a triple stays while any occurrence still makes it."""
        pod = next(iter(live_universe.pods.values()))
        # The UNION makes every solution twice: each ground triple has two
        # makers, and each occurrence has a blank node of its own.
        query = (
            f"CONSTRUCT {{ ?s <{EX}called> ?n . _:entry <{EX}names> ?n }} "
            f"WHERE {{ {{ <{pod.webid}> <{FOAF}name> ?n BIND(<{pod.webid}> AS ?s) }} "
            f"UNION {{ ?s <{FOAF}name> ?n FILTER(?s = <{pod.webid}>) }} }}"
        )
        columns = [Variable(name) for name in ("subject", "predicate", "object")]

        def graph(rows) -> list[Triple]:
            return [Triple(*(row[column] for column in columns)) for row in rows]

        async def run():
            live = LiveQuery(live_universe.fast_engine(), query, seeds=[pod.profile_url])
            initial = await live.start()
            await patch_document(
                live_universe,
                pod.profile_url,
                rename_update(pod.webid, pod.owner_name, "Renamed"),
            )
            events = await live.refresh(pod.profile_url)
            fresh = LiveQuery(live_universe.fast_engine(), query, seeds=[pod.profile_url])
            fresh_rows = await fresh.start()
            evaluator = SnapshotEvaluator(fresh.execution.source.dataset)
            oracle = list(evaluator.construct(parse_query(query)))
            return initial, events, live.current_results(), fresh_rows, oracle

        initial, events, current, fresh_rows, oracle = asyncio.run(run())
        # One ground triple and two blank-node triples, before and after.
        assert len(initial) == len(oracle) == 3
        assert sorted(event.delta for event in events) == [-1, -1, -1, 1, 1, 1]
        assert set(current.values()) == {1}  # a graph: each triple once
        assert isomorphic(graph(current), oracle)
        assert isomorphic(graph(fresh_rows), oracle)
        assert "Renamed" in repr(oracle)

    def test_lifecycle_guards(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            with pytest.raises(RuntimeError, match="before start"):
                await live.refresh(pod.profile_url)
            await live.start()
            with pytest.raises(RuntimeError, match="twice"):
                await live.start()
            live.close()
            assert await live.refresh(pod.profile_url) == []  # no-op closed
            live.close()  # idempotent

        asyncio.run(run())

    def test_events_are_replay_consistent(self, live_universe):
        """The event history replays to exactly the fresh result set."""

        async def run():
            pod = next(iter(live_universe.pods.values()))
            old = pod.owner_name
            engine = live_universe.fast_engine()
            live = LiveQuery(engine, name_query(pod), seeds=[pod.profile_url])
            await live.start()
            for new in ("A", "B", "C"):
                await patch_document(
                    live_universe,
                    pod.profile_url,
                    rename_update(pod.webid, old, new),
                )
                await live.refresh(pod.profile_url)
                old = new
            fresh = await live_universe.fast_engine().query(
                name_query(pod), seeds=[pod.profile_url]
            ).gather()
            assert Counter(live.current_results()) == Counter(fresh.bindings)
            # seq numbers are the total order of the event stream
            assert [e.seq for e in live.events] == list(range(len(live.events)))

        asyncio.run(run())


MOOD = "https://vocab.example/mood"
MOOD_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{MOOD}> ?o }}"


async def put_document(universe, url: str, turtle: str) -> None:
    server = universe.server
    headers = {"content-type": "text/turtle", **server.login_owner(url[len(server.origin):])}
    response = await universe.internet.dispatch(
        Request("PUT", url, headers, turtle.encode("utf-8"))
    )
    assert response.status < 300, response.body


class TestReadScope:
    """A write is a standing query's business only inside the subweb its
    traversal reached: ``LiveQuery.reads`` is the one rule, ``notify``
    applies it, and an explicit ``refresh`` does not ask it."""

    def test_a_notification_before_start_or_after_close_is_ignored(self, live_universe):
        async def run():
            pod = next(iter(live_universe.pods.values()))
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url]
            )
            assert not live.reads(pod.profile_url)
            assert live.notify(pod.profile_url) is False
            await live.start()
            assert live.pending == []
            assert live.notify(pod.profile_url) is True
            live.close()
            assert live.notify(pod.profile_url) is False
            assert await live.drain() == []

        asyncio.run(run())

    def test_a_write_to_another_pod_is_dropped_but_an_explicit_refresh_is_not(
        self, live_universe
    ):
        async def run():
            pod, other = list(live_universe.pods.values())[:2]
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url]
            )
            await live.start()
            foreign = other.profile_url + "#me"
            assert not live.reads(foreign)
            assert live.notify(foreign) is False and live.pending == []
            assert await live.refresh(other.profile_url) == []  # nothing it reads changed
            assert live.reads(other.profile_url)  # now held: a named graph

        asyncio.run(run())

    def test_a_seed_that_was_missing_is_refreshed_once_created(self, live_universe):
        """Rule 1: the queue saw the seed (it 404'd); the PUT that creates
        it is admitted and its rows appear, as in a fresh run."""
        pod = next(iter(live_universe.pods.values()))
        url = pod.base_url + "notes/late"

        async def run():
            live = LiveQuery(live_universe.fast_engine(), MOOD_QUERY, seeds=[url])
            assert await live.start() == []
            assert live.execution.stats.documents_fetched == 0
            assert live.execution.hints.pod_count == 0
            await put_document(live_universe, url, f'<{url}#it> <{MOOD}> "late" .')
            assert live.notify(url)
            events = await live.drain()
            fresh = await live_universe.fast_engine().query(MOOD_QUERY, seeds=[url]).gather()
            return live, events, fresh

        live, events, fresh = asyncio.run(run())
        assert [event.delta for event in events] == [1]
        assert Counter(live.current_results()) == Counter(fresh.bindings)
        assert len(fresh.bindings) == 1

    def test_a_document_put_under_a_read_container_is_refreshed(self):
        """Rule 2, on pods that publish no source index: the crawl read the
        container, so a document created in it is admitted, and the
        standing results equal a fresh run's."""
        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7, emit_hints=False))
        pod = universe.pod_of(0)
        url = pod.base_url + "noise/noise-late"

        async def run():
            live = LiveQuery(universe.fast_engine(), MOOD_QUERY, seeds=[pod.profile_url])
            assert await live.start() == []
            assert live.execution.hints.pod_count == 0
            assert url not in live.execution.seen
            await put_document(universe, url, f'<{url}#it> <{MOOD}> "late" .')
            assert live.notify(url)
            events = await live.drain()
            fresh = await universe.fast_engine().query(
                MOOD_QUERY, seeds=[pod.profile_url]
            ).gather()
            return live, events, fresh

        live, events, fresh = asyncio.run(run())
        assert [event.delta for event in events] == [1]
        assert Counter(live.current_results()) == Counter(fresh.bindings)
        assert len(fresh.bindings) == 1

    def test_the_check_walks_the_path_not_the_held_documents(self, live_universe, monkeypatch):
        from repro.rdf.dataset import Dataset

        async def run():
            pod, other = list(live_universe.pods.values())[:2]
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url]
            )
            await live.start()
            return live, other.base_url + "posts/a/b/c"

        live, foreign = asyncio.run(run())
        probes = []
        original = NamedNode.existing
        monkeypatch.setattr(
            NamedNode,
            "existing",
            staticmethod(lambda value: probes.append(value) or original(value)),
        )
        monkeypatch.setattr(Dataset, "graph_names", lambda self: pytest.fail("walked every graph"))
        assert not live.reads(foreign)
        # The document, then each ancestor container up to the origin's
        # root: one lookup per path segment, and none of them mints a term.
        parts = foreign.split("/")  # https:, "", host, pods, <pod>, posts, a, b, c
        expected = [foreign] + ["/".join(parts[:n]) + "/" for n in range(len(parts) - 1, 2, -1)]
        assert probes == expected
        assert expected[-1] == "https://solidbench.example/"
        assert NamedNode.existing(foreign) is None

    def test_a_refresh_of_a_url_that_never_existed_leaves_no_graph(self, live_universe):
        """A gone document that was never held stores nothing: its refresh
        leaves no empty named graph behind for ``reads`` to count as held."""

        async def run():
            pod, other = list(live_universe.pods.values())[:2]
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url]
            )
            await live.start()
            dataset = live.execution.source.dataset
            before = len(list(dataset.graph_names()))
            missing = other.base_url + "never/existed"
            assert await live.refresh(missing) == []
            return live, missing, before, len(list(dataset.graph_names()))

        live, missing, before, after = asyncio.run(run())
        assert after == before
        assert not live.reads(missing)


class TestReachability:
    """A write can grow the subweb a standing query reads or shrink it: a
    refresh is a link on the execution's one path, so the standing answer
    is a fresh run's either way, and a bystander sees nothing of it."""

    @staticmethod
    def scenario(linked_at_start: bool):
        """Pod 0's card links (or stops linking) to a document in pod 1
        whose triple the query reads; returns (standing rows, fresh rows,
        bystander events after the edit, whether the bystander was told)."""
        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        pod, other, third = universe.pod_of(0), universe.pod_of(1), universe.pod_of(2)
        doc = other.base_url + "notes/mood"
        link = f"{{ <{pod.webid}> <{MOOD}> <{doc}> }}"

        async def run():
            await put_document(universe, doc, f'<{doc}#it> <{MOOD}> "linked" .')
            if linked_at_start:
                await patch_document(universe, pod.profile_url, f"INSERT DATA {link}")
            live = LiveQuery(universe.fast_engine(), MOOD_QUERY, seeds=[pod.profile_url])
            bystander = LiveQuery(
                universe.fast_engine(), name_query(third), seeds=[third.profile_url]
            )
            await live.start()
            await bystander.start()
            before = len(bystander.events)
            edit = "DELETE DATA" if linked_at_start else "INSERT DATA"
            await patch_document(universe, pod.profile_url, f"{edit} {link}")
            assert live.notify(pod.profile_url)
            told = bystander.notify(pod.profile_url)
            await live.drain()
            await bystander.drain()
            fresh = await universe.fast_engine().query(
                MOOD_QUERY, seeds=[pod.profile_url]
            ).gather()
            return live, fresh.bindings, bystander.events[before:], told

        live, fresh, bystander_events, told = asyncio.run(run())
        return Counter(live.current_results()), Counter(fresh), bystander_events, told, doc, live

    def test_a_link_written_into_a_held_document_is_followed(self):
        standing, fresh, bystander_events, told, doc, live = self.scenario(linked_at_start=False)
        assert sum(standing.values()) == 2
        assert standing == fresh
        assert bystander_events == [] and not told
        assert live.reads(doc)

    def test_a_link_deleted_from_a_held_document_takes_what_only_it_reached(self):
        standing, fresh, bystander_events, told, doc, live = self.scenario(linked_at_start=True)
        assert sum(standing.values()) == 0
        assert standing == fresh
        assert bystander_events == [] and not told
        # Out of the read scope: a write to it is no longer this query's.
        assert not live.reads(doc)
        assert not live.execution.source.dataset.has_graph(NamedNode(doc))


class TestEpisodeBounds:
    """``max_duration`` bounds each traversal episode — the run, then each
    refresh from its own start — not the standing query's whole life."""

    BOUND = 60.0  # clock seconds; the initial run takes well under one

    def test_a_refresh_past_the_bound_still_follows_a_new_link(self):
        from repro.ltqp import TraversalPolicy
        from repro.obs import TickClock, Tracer

        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        pod, other = universe.pod_of(0), universe.pod_of(1)
        doc = other.base_url + "notes/mood"
        clock = TickClock()

        async def run():
            await put_document(universe, doc, f'<{doc}#it> <{MOOD}> "linked" .')
            live = LiveQuery(
                universe.fast_engine(), MOOD_QUERY, seeds=[pod.profile_url],
                tracer=Tracer(clock=clock), traversal=TraversalPolicy(max_duration=self.BOUND),
            )
            await live.start()
            assert live.execution.stats.completeness()["complete"]
            clock.now += 2 * self.BOUND  # the standing query has outlived the bound
            await patch_document(
                universe, pod.profile_url, f"INSERT DATA {{ <{pod.webid}> <{MOOD}> <{doc}> }}"
            )
            assert live.notify(pod.profile_url)
            await live.drain()
            fresh = await universe.fast_engine().query(
                MOOD_QUERY, seeds=[pod.profile_url]
            ).gather()
            return live, fresh

        live, fresh = asyncio.run(run())
        assert Counter(live.current_results()) == Counter(fresh.bindings)
        assert sum(Counter(fresh.bindings).values()) == 2
        assert live.failed_refreshes == {}


class TestSoak:
    """A standing query's store follows its live state, not its edit
    history: under steady edits the live ``Quad`` objects stop growing, and
    every refresh leaves nothing pending in the dataset."""

    EDITS = 20

    @staticmethod
    def live_quads() -> int:
        gc.collect()
        return sum(1 for item in gc.get_objects() if type(item) is Quad)

    def test_live_quads_stay_flat_under_steady_edits(self, live_universe):
        pod = next(iter(live_universe.pods.values()))

        async def run():
            live = LiveQuery(
                live_universe.fast_engine(), name_query(pod), seeds=[pod.profile_url]
            )
            await live.start()
            dataset = live.execution.source.dataset
            name, counts = pod.owner_name, []
            for edit in range(1, 2 * self.EDITS + 1):
                new = f"Renamed {edit}"
                await patch_document(
                    live_universe, pod.profile_url, rename_update(pod.webid, name, new)
                )
                name = new
                assert sorted(e.delta for e in await live.refresh(pod.profile_url)) == [-1, 1]
                assert dataset.pending == 0
                if edit % self.EDITS == 0:
                    counts.append(self.live_quads())
            live.close()
            return counts

        after_k, after_2k = asyncio.run(run())
        # Each edit is one retraction and one insertion: a store that kept
        # its history would hold 2 * EDITS more quads here.
        assert after_2k - after_k <= 2
