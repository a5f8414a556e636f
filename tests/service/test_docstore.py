"""Unit tests for the cross-query parsed-document store."""

import hashlib

from repro.net.message import Response
from repro.rdf.terms import Literal, intern_iri
from repro.rdf.triples import Triple
from repro.ltqp.source import GrowingTripleSource
from repro.service import DocumentStore

from ..conftest import put_diff


def triple(n: int) -> Triple:
    return Triple(
        intern_iri(f"https://pod/doc#{n}"),
        intern_iri("https://vocab/p"),
        Literal(str(n)),
    )


class TestValidator:
    def test_prefers_etag(self):
        response = Response(200, {"etag": '"abc123"'}, b"body")
        assert DocumentStore.validator_for(response) == '"abc123"'

    def test_falls_back_to_body_digest(self):
        response = Response(200, {}, b"body")
        expected = "sha1:" + hashlib.sha1(b"body").hexdigest()
        assert DocumentStore.validator_for(response) == expected

    def test_different_bodies_different_validators(self):
        a = DocumentStore.validator_for(Response(200, {}, b"one"))
        b = DocumentStore.validator_for(Response(200, {}, b"two"))
        assert a != b


class TestLookup:
    def test_miss_on_unknown_url(self):
        store = DocumentStore()
        assert store.lookup("https://pod/doc", "v1") is None
        assert store.misses == 1 and store.hits == 0

    def test_hit_returns_stored_triples(self):
        store = DocumentStore()
        store.put("https://pod/doc", "v1", [triple(1), triple(2)])
        entry = store.lookup("https://pod/doc", "v1")
        assert entry is not None
        assert entry.document.triples == (triple(1), triple(2))
        assert store.hits == 1 and store.parses == 1

    def test_validator_change_invalidates(self):
        store = DocumentStore()
        store.put("https://pod/doc", "v1", [triple(1)])
        assert store.lookup("https://pod/doc", "v2") is None
        assert store.invalidations == 1
        # The stale entry is gone: a matching validator no longer hits.
        assert "https://pod/doc" not in store
        assert store.lookup("https://pod/doc", "v1") is None


class TestBoundsAndStats:
    def test_evicts_oldest_beyond_capacity(self):
        store = DocumentStore(max_documents=2)
        store.put("https://pod/a", "v", [triple(1)])
        store.put("https://pod/b", "v", [triple(2)])
        store.put("https://pod/c", "v", [triple(3)])
        assert len(store) == 2
        assert "https://pod/a" not in store
        assert "https://pod/b" in store and "https://pod/c" in store

    def test_replacing_existing_url_does_not_evict(self):
        store = DocumentStore(max_documents=2)
        store.put("https://pod/a", "v1", [triple(1)])
        store.put("https://pod/b", "v1", [triple(2)])
        store.put("https://pod/a", "v2", [triple(3)])
        assert len(store) == 2

    def test_hit_rate_and_statistics(self):
        store = DocumentStore()
        store.put("https://pod/doc", "v1", [triple(1)])
        store.lookup("https://pod/doc", "v1")
        store.lookup("https://pod/other", "v1")
        assert store.hit_rate == 0.5
        stats = store.statistics()
        assert stats["documents"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["parses"] == 1

    def test_clear_resets_everything(self):
        store = DocumentStore()
        store.put("https://pod/doc", "v1", [triple(1)])
        store.lookup("https://pod/doc", "v1")
        store.clear()
        assert len(store) == 0
        assert store.hits == 0 and store.misses == 0 and store.parses == 0
        assert store.hit_rate == 0.0


class TestPersistentRestartInvalidation:
    """Validator-keyed invalidation across a service restart.

    A document edited while the service is *down* must not be served
    from the persisted parse: the restart's first conditional fetch sees
    a new validator, drops the persisted stale parse and re-parses, while
    untouched documents keep answering parse-free.  The new parse differs
    from the one persisted before the restart by exactly the edit — what
    the live path's one diff (``GrowingTripleSource.put_document``)
    relies on.
    """

    def test_doc_changed_while_down_is_rediffed_on_restart(self, tmp_path):
        import asyncio

        from repro.net import NoLatency
        from repro.net.message import Request
        from repro.service import SharedResources
        from repro.solidbench import SolidBenchConfig, build_universe

        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        pods = iter(universe.pods.values())
        changed_pod, untouched_pod = next(pods), next(pods)
        changed_url = changed_pod.profile_url
        untouched_url = untouched_pod.profile_url
        store_path = str(tmp_path / "store.sqlite")

        def open_resources():
            return SharedResources.for_universe(
                universe, latency=NoLatency(), store_path=store_path
            )

        async def first_lifetime():
            resources = open_resources()
            parsed = {}
            for url in (changed_url, untouched_url):
                result = await resources.dereferencer.dereference(url)
                assert result.ok and not result.from_store
                parsed[url] = result.document
            resources.close()
            return parsed[changed_url]

        before_edit = asyncio.run(first_lifetime())

        async def edit_while_down():
            from urllib.parse import urlsplit

            parts = urlsplit(changed_url)
            app = universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
            headers = {"content-type": "application/sparql-update"}
            headers.update(app.login_owner(parts.path))
            foaf = "http://xmlns.com/foaf/0.1/"
            update = (
                f'DELETE DATA {{ <{changed_pod.webid}> <{foaf}name> '
                f'"{changed_pod.owner_name}" }} ;\n'
                f'INSERT DATA {{ <{changed_pod.webid}> <{foaf}name> "Offline Edit" }}'
            )
            response = await universe.internet.dispatch(
                Request("PATCH", changed_url, headers, update.encode("utf-8"))
            )
            assert response.status == 200

        asyncio.run(edit_while_down())

        async def second_lifetime():
            resources = open_resources()
            store = resources.document_store
            changed = await resources.dereferencer.dereference(
                changed_url, revalidate=True
            )
            assert changed.ok and not changed.from_store
            assert (store.parses, store.invalidations) == (1, 1)
            assert store.statistics()["diffs"] == 1
            untouched = await resources.dereferencer.dereference(
                untouched_url, revalidate=True
            )
            assert untouched.ok and untouched.from_store
            assert (store.parses, store.invalidations, store.hits) == (1, 1, 1)
            assert store.statistics()["diffs"] == 1
            resources.close()
            return changed.document

        after_edit = asyncio.run(second_lifetime())
        # Blank-node labels are stable across lifetimes, so one rename is
        # exactly one retraction plus one addition in the one diff there is.
        source = GrowingTripleSource()
        source.put_document(changed_url, before_edit)
        added, removed = put_diff(source, changed_url, after_edit)
        assert (len(added), len(removed)) == (1, 1)
