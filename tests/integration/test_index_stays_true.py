"""A published source index is a promise the simulated server keeps.

Source selection prunes what a pod's index declares irrelevant, so an
index left stale by a write would hide the written data from every later
query with ``complete: true``.  On PUT / PATCH the server checks the
written document — only that — against its summary unit and rewrites the
index document (new validator) when the write says something new.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ltqp.guided.hints import CardinalityHints
from repro.net import NoLatency
from repro.net.message import Request
from repro.rdf.document import ParsedDocument
from repro.rdf.namespaces import SNVOC
from repro.rdf.terms import Literal, NamedNode, term_to_ntriples
from repro.service import QueryService, SharedResources
from repro.solidbench import SolidBenchConfig, build_universe
from repro.solid.index import INDEX_PATH

MOOD = "https://vocab.example/mood"
QUERY = f"SELECT ?s ?o WHERE {{ ?s <{MOOD}> ?o }}"


@pytest.fixture()
def universe():
    """Private per-test universe: these tests write to pod documents."""
    return build_universe(SolidBenchConfig(scale=0.005, seed=7))


@pytest.fixture()
def pod(universe):
    return universe.pod_of(0)


def write(universe, method: str, url: str, body: str, content_type: str):
    server = universe.server
    headers = {"content-type": content_type, **server.login_owner(url[len(server.origin):])}
    response = asyncio.run(
        universe.internet.dispatch(Request(method, url, headers, body.encode("utf-8")))
    )
    assert response.status < 300, response.body
    return response


def patch(universe, url: str, update: str):
    return write(universe, "PATCH", url, update, "application/sparql-update")


def summary(pod, unit: str):
    index_url = pod.base_url + INDEX_PATH
    hints = CardinalityHints().absorb_document(
        index_url, ParsedDocument(pod.document(INDEX_PATH).triples)
    )
    return hints.container_for(pod.base_url + unit)


def etag(universe, url: str) -> str:
    return asyncio.run(universe.internet.dispatch(Request("GET", url, {}, b""))).headers["etag"]


class TestTheServerKeepsTheIndexTrue:
    def test_a_content_edit_leaves_the_index_alone(self, universe, pod):
        """What ``live_edits`` does a thousand times: same predicates, new
        value — checked against the summary, nothing rewritten."""
        path = next(p for p in pod.document_paths() if p.startswith("posts/"))
        document = pod.document(path)
        old = next(t for t in document.triples if t.predicate == SNVOC.content)
        index_url = pod.base_url + INDEX_PATH
        before = list(pod.document(INDEX_PATH).triples), etag(universe, index_url)
        patch(
            universe,
            pod.base_url + path,
            f"DELETE DATA {{ {term_to_ntriples(old.subject)} <{SNVOC.content.value}> "
            f"{term_to_ntriples(old.object)} }} ;\n"
            f"INSERT DATA {{ {term_to_ntriples(old.subject)} <{SNVOC.content.value}> \"edited\" }}",
        )
        assert universe.server.document_version(pod.base_url + path) == 1
        assert universe.server.document_version(index_url) == 0
        assert (list(pod.document(INDEX_PATH).triples), etag(universe, index_url)) == before

    def test_a_new_predicate_rewrites_the_units_summary_with_a_new_validator(self, universe, pod):
        index_url = pod.base_url + INDEX_PATH
        assert MOOD not in summary(pod, "noise/noise-0").predicates
        stale = etag(universe, index_url)
        noise = pod.base_url + "noise/noise-0"
        patch(universe, noise, f'INSERT DATA {{ <{noise}#entity0> <{MOOD}> "curious" }}')
        after = summary(pod, "noise/noise-0")
        assert MOOD in after.predicates
        assert after.container == pod.base_url + "noise/"
        assert universe.server.document_version(index_url) == 1
        assert etag(universe, index_url) != stale
        # Said once: a second document using it changes nothing.
        other = pod.base_url + "noise/noise-1"
        patch(universe, other, f'INSERT DATA {{ <{other}#entity0> <{MOOD}> "again" }}')
        assert universe.server.document_version(index_url) == 1

    def test_a_new_class_counts_too(self, universe, pod):
        noise = pod.base_url + "noise/noise-0"
        assert not summary(pod, "noise/noise-0").classes
        patch(
            universe, noise,
            f"INSERT DATA {{ <{noise}#entity0> a <{SNVOC.Post.value}> }}",
        )
        assert summary(pod, "noise/noise-0").classes == {SNVOC.Post.value}

    def test_a_put_somewhere_new_becomes_a_unit_of_its_own(self, universe, pod):
        for path in ("diary/monday", "scratch"):  # a new container; a root-level document
            url = pod.base_url + path
            assert summary(pod, path) is None
            write(universe, "PUT", url, f'<{url}#it> <{MOOD}> "fine" .', "text/turtle")
            unit = summary(pod, path)
            assert unit is not None and MOOD in unit.predicates
            assert unit.documents == 1
            assert unit.members == ({url} if "/" in path else set())
        assert universe.server.document_version(pod.base_url + INDEX_PATH) == 2

    def test_a_document_created_in_a_unit_joins_its_members_once(self, universe, pod):
        index_url = pod.base_url + INDEX_PATH
        noise = summary(pod, "noise/")
        listed, url = noise.members, pod.base_url + "noise/noise-new"
        assert url not in listed
        body = f'<{url}#entity0> <{min(noise.predicates)}> "new" .'  # nothing new but the document
        write(universe, "PUT", url, body, "text/turtle")
        assert summary(pod, "noise/").members == listed | {url}
        assert universe.server.document_version(index_url) == 1
        write(universe, "PUT", url, body, "text/turtle")  # an edit to a member
        assert universe.server.document_version(index_url) == 1

    def test_pods_that_publish_nothing_and_plumbing_documents_need_no_index_work(self):
        paper = build_universe(SolidBenchConfig(scale=0.005, seed=7, emit_hints=False))
        pod = paper.pod_of(0)
        noise = pod.base_url + "noise/noise-0"
        patch(paper, noise, f'INSERT DATA {{ <{noise}#entity0> <{MOOD}> "curious" }}')
        assert not pod.has_document(INDEX_PATH)

    def test_a_write_to_the_profile_is_not_summarized(self, universe, pod):
        patch(universe, pod.profile_url, f'INSERT DATA {{ <{pod.webid}> <{MOOD}> "fine" }}')
        index_url = pod.base_url + INDEX_PATH
        assert universe.server.document_version(index_url) == 0


class TestQueriesSeeWhatWasWritten:
    """One shared stack (HTTP cache + document store) across the write."""

    def test_one_shot_and_standing_queries_find_a_predicate_patched_into_noise(
        self, universe, pod
    ):
        service = QueryService(SharedResources.for_universe(universe, latency=NoLatency()))
        noise = pod.base_url + "noise/noise-3"
        row = {"s": NamedNode(noise + "#entity0"), "o": Literal("curious")}

        async def scenario():
            before = await service.run(QUERY, seeds=[pod.profile_url])
            standing = await service.subscribe(QUERY, seeds=[pod.profile_url])
            assert before.bindings == [] and standing.current_results() == {}
            # Nothing in the pod uses the predicate: the card, the index, and
            # no container worth a link.
            assert before.stats.documents_fetched == 2
            report = await service.apply_update(
                noise, f'INSERT DATA {{ <{noise}#entity0> <{MOOD}> "curious" }}'
            )
            after = await service.run(QUERY, seeds=[pod.profile_url])
            late = await service.subscribe(QUERY, seeds=[pod.profile_url])
            return before, standing, report, after, late

        before, standing, report, after, late = asyncio.run(scenario())

        def rows(bindings):
            return [{var.value: term for var, term in b.items()} for b in bindings]

        assert rows(after.bindings) == [row]
        assert after.stats.completeness()["complete"]
        # The rewritten index made noise/ relevant — its documents, which the
        # index lists, so not its listing — and nothing else.
        crawled = 2 + universe.config.noise_files_per_person
        assert after.stats.documents_fetched == crawled
        assert report["events"] == 1
        assert rows(standing.current_results()) == rows(late.current_results()) == [row]

    def test_a_document_created_after_a_standing_query_started_is_found_by_its_url(
        self, universe, pod
    ):
        """No container listing is read on the way: the server lists the new
        document in the widened index, whose member list a query starting
        later follows, and a standing query refreshes the URL it is told of."""
        resources = SharedResources.for_universe(universe, latency=NoLatency())
        service = QueryService(resources)
        created = pod.base_url + "noise/noise-late"
        row = {"s": NamedNode(created + "#entity0"), "o": Literal("late")}
        body = f'<{created}#entity0> <{MOOD}> "late" .'.encode("utf-8")
        server = universe.server
        headers = {"content-type": "text/turtle", **server.login_owner(created[len(server.origin):])}

        async def scenario():
            standing = await service.subscribe(QUERY, seeds=[pod.profile_url])
            assert standing.current_results() == {}
            response = await universe.internet.dispatch(Request("PUT", created, headers, body))
            assert response.status < 300
            await service.drain_subscriptions()
            requests_before = len(resources.client.log)
            after = await service.run(QUERY, seeds=[pod.profile_url])
            return standing, after, resources.client.log.records[requests_before:]

        standing, after, requests = asyncio.run(scenario())

        def rows(bindings):
            return [{var.value: term for var, term in b.items()} for b in bindings]

        assert rows(standing.current_results()) == rows(after.bindings) == [row]
        assert summary(pod, "noise/").members >= {created}
        fetched = {record.url for record in requests}
        assert created in fetched
        assert pod.base_url + "noise/" not in fetched
        assert after.stats.links_by_extractor["hint-member"] > 0
        assert after.stats.completeness()["complete"]
