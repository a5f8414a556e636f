"""Tests for the writable Solid protocol: PATCH (SPARQL Update) and PUT."""

import asyncio

import pytest

from repro.net import HttpClient, Internet, NoLatency
from repro.rdf import NamedNode, RDF, SNVOC, Triple, parse_turtle
from repro.solid import AccessControlList, AclRule, AccessMode, IdentityProvider, Pod, SolidServer

ORIGIN = "https://host.example"
BASE = ORIGIN + "/pods/0001/"
SNB = f"PREFIX snvoc: <{SNVOC.base}>\n"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def setup():
    idp = IdentityProvider(ORIGIN)
    server = SolidServer(ORIGIN, idp=idp)
    pod = Pod(BASE, owner_name="Zulma")
    message = NamedNode(BASE + "posts/2010-10-12#m")
    pod.add_document(
        "posts/2010-10-12",
        [
            Triple(message, RDF.type, SNVOC.Post),
            Triple(message, SNVOC.content, NamedNode(BASE + "x")),
        ],
    )
    pod.build_profile()
    server.mount(pod)
    internet = Internet()
    internet.register(ORIGIN, server)
    client = HttpClient(internet, latency=NoLatency())
    return idp, pod, client


async def _patch(client, url, body, headers):
    from repro.net.message import Request

    # HttpClient.fetch has no body parameter; drive the internet directly
    # for writes (the engine itself only reads).
    request = Request("PATCH", url, headers=headers, body=body.encode("utf-8"))
    return await client.internet.dispatch(request)


async def _put(client, url, body, headers):
    from repro.net.message import Request

    request = Request("PUT", url, headers=headers, body=body.encode("utf-8"))
    return await client.internet.dispatch(request)


class TestPatch:
    def test_owner_can_insert(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        url = BASE + "posts/2010-10-12"
        body = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 42 }}"
        response = run(_patch(client, url, body, {
            "content-type": "application/sparql-update", **session.headers}))
        assert response.status == 200
        assert b"added 1" in response.body
        document = pod.document("posts/2010-10-12")
        assert any(t.predicate == SNVOC.id for t in document.triples)

    def test_anonymous_insert_denied(self, setup):
        _, pod, client = setup
        url = BASE + "posts/2010-10-12"
        body = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 42 }}"
        response = run(_patch(client, url, body, {"content-type": "application/sparql-update"}))
        assert response.status == 401

    def test_append_rule_allows_insert_but_not_delete(self, setup):
        idp, pod, client = setup
        friend = "https://host.example/pods/0002/profile/card#me"
        # Grant append on the posts subtree to the friend.
        server_acl = AccessControlList(pod.webid)
        server_acl.grant("posts/", AclRule(modes=frozenset({AccessMode.APPEND}), agents=frozenset({friend})))
        # Re-mount with the custom ACL.
        new_server = SolidServer(ORIGIN, idp=idp)
        new_server.mount(pod, acl=server_acl)
        internet = Internet()
        internet.register(ORIGIN, new_server)
        client = HttpClient(internet, latency=NoLatency())
        session = idp.login(friend)
        url = BASE + "posts/2010-10-12"
        headers = {"content-type": "application/sparql-update", **session.headers}

        insert = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 7 }}"
        assert run(_patch(client, url, insert, headers)).status == 200

        delete = SNB + f"DELETE DATA {{ <{url}#m> snvoc:id 7 }}"
        assert run(_patch(client, url, delete, headers)).status == 403

    def test_wrong_content_type_415(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        response = run(_patch(client, BASE + "posts/2010-10-12", "x", {
            "content-type": "text/plain", **session.headers}))
        assert response.status == 415

    def test_malformed_update_400(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        response = run(_patch(client, BASE + "posts/2010-10-12", "NOT AN UPDATE {", {
            "content-type": "application/sparql-update", **session.headers}))
        assert response.status == 400

    def test_patch_missing_document_404(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        response = run(_patch(client, BASE + "nope", SNB + "INSERT DATA { <x:a> snvoc:id 1 }", {
            "content-type": "application/sparql-update", **session.headers}))
        assert response.status == 404


class TestPut:
    def test_owner_creates_document(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        url = BASE + "notes/today"
        body = f"<{url}#n1> a <{SNVOC.Post.value}> ."
        response = run(_put(client, url, body, {"content-type": "text/turtle", **session.headers}))
        assert response.status == 201
        assert pod.has_document("notes/today")
        # The new containment shows up in the generated container listing.
        assert "notes/" in pod.container_paths()

    def test_put_replaces_existing(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        url = BASE + "posts/2010-10-12"
        response = run(_put(client, url, f"<{url}#only> a <{SNVOC.Post.value}> .", {
            "content-type": "text/turtle", **session.headers}))
        assert response.status == 204
        assert len(pod.document("posts/2010-10-12").triples) == 1

    def test_anonymous_put_denied(self, setup):
        _, pod, client = setup
        response = run(_put(client, BASE + "notes/x", "<x:a> <x:b> <x:c> .", {
            "content-type": "text/turtle"}))
        assert response.status == 401

    def test_put_container_conflict(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        response = run(_put(client, BASE + "posts/", "", {
            "content-type": "text/turtle", **session.headers}))
        assert response.status == 409

    def test_put_bad_turtle_400(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        response = run(_put(client, BASE + "notes/x", "@@not turtle", {
            "content-type": "text/turtle", **session.headers}))
        assert response.status == 400


class TestLiveRequery:
    def test_traversal_sees_updates(self, setup):
        """The paper's 'live data' point: no indexes to refresh — a repeat
        traversal immediately reflects pod changes."""
        from repro.ltqp import Dereferencer, LinkTraversalEngine

        idp, pod, client = setup
        session = idp.login(pod.webid)
        engine = LinkTraversalEngine(Dereferencer(client))
        query = SNB + "SELECT ?id WHERE { ?m snvoc:id ?id }"

        before = engine.query(query, seeds=[pod.webid]).run_sync()
        url = BASE + "posts/2010-10-12"
        body = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 99 }}"
        run(_patch(client, url, body, {
            "content-type": "application/sparql-update", **session.headers}))
        after = LinkTraversalEngine(Dereferencer(client)).query(query, seeds=[pod.webid]).run_sync()
        assert len(after) == len(before) + 1


class TestWriteValidators:
    """Regression: every accepted write must change the document's HTTP
    validator — even a write that restores byte-identical content.

    The parsed-document store and the live-refresh path both key
    invalidation on the validator: a reused ETag would serve stale
    triples forever, and an edit-then-revert would go unnoticed.
    """

    def test_consecutive_patches_yield_distinct_etags(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        url = BASE + "posts/2010-10-12"
        patch_headers = {"content-type": "application/sparql-update", **session.headers}

        etag0 = run(client.fetch(url)).header("etag")
        assert etag0

        insert = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 42 }}"
        assert run(_patch(client, url, insert, patch_headers)).status == 200
        etag1 = run(client.fetch(url)).header("etag")

        revert = SNB + f"DELETE DATA {{ <{url}#m> snvoc:id 42 }}"
        assert run(_patch(client, url, revert, patch_headers)).status == 200
        etag2 = run(client.fetch(url)).header("etag")

        assert len({etag0, etag1, etag2}) == 3
        # The revert restored byte-identical content: only the write
        # version distinguishes etag2 from etag0 — that distinction is
        # what lets a standing query notice edit-then-revert sequences.
        server = client.internet.app_for(ORIGIN)
        assert server.document_version(url) == 2

    def test_conditional_get_tracks_the_validator(self, setup):
        idp, pod, client = setup
        session = idp.login(pod.webid)
        url = BASE + "posts/2010-10-12"
        patch_headers = {"content-type": "application/sparql-update", **session.headers}

        etag = run(client.fetch(url)).header("etag")
        assert run(client.fetch(url, headers={"if-none-match": etag})).status == 304

        insert = SNB + f"INSERT DATA {{ <{url}#m> snvoc:id 7 }}"
        assert run(_patch(client, url, insert, patch_headers)).status == 200
        # The stale validator no longer matches: full 200 with a new ETag.
        response = run(client.fetch(url, headers={"if-none-match": etag}))
        assert response.status == 200
        assert response.header("etag") != etag
