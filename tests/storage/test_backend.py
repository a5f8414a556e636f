"""Unit tests for the SQLite store and how a stack opens it."""

import pytest

from repro.cli import build_serve_arg_parser
from repro.service import SharedResources
from repro.storage import SqliteBackend, StorageTier


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    """The store over an in-memory database and over a file."""
    path = ":memory:" if request.param == "memory" else str(tmp_path / "store.sqlite")
    built = SqliteBackend(path)
    yield built
    built.close()


class TestProtocolBehavior:
    """The store keeps the same observable contract in memory and on disk."""

    def test_get_put_delete(self, backend):
        assert backend.get("ns", "k") is None
        backend.put("ns", "k", b"value")
        assert backend.get("ns", "k") == b"value"
        backend.put("ns", "k", b"replaced")
        assert backend.get("ns", "k") == b"replaced"
        backend.delete("ns", "k")
        assert backend.get("ns", "k") is None
        backend.delete("ns", "k")  # absent delete is a no-op

    def test_namespaces_are_isolated(self, backend):
        backend.put("documents", "k", b"doc")
        backend.put("http", "k", b"response")
        assert backend.get("documents", "k") == b"doc"
        assert backend.get("http", "k") == b"response"
        backend.clear("documents")
        assert backend.get("documents", "k") is None
        assert backend.get("http", "k") == b"response"

    def test_scan_and_count(self, backend):
        for index in range(5):
            backend.put("ns", f"k{index}", bytes([index]))
        assert backend.count("ns") == 5
        assert dict(backend.scan("ns")) == {f"k{i}": bytes([i]) for i in range(5)}
        assert backend.count("empty") == 0
        assert list(backend.scan("empty")) == []

    def test_statistics_are_json_friendly(self, backend):
        import json

        backend.put("ns", "k", b"v")
        stats = backend.statistics()
        assert stats["kind"] == backend.kind == "sqlite"
        assert stats["namespaces"] == {"ns": 1}
        json.dumps(stats)  # must serialize for /service/status


class TestSqlitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        backend.put("ns", "k", b"durable")
        backend.close()  # close flushes

        reopened = SqliteBackend(path)
        try:
            assert reopened.get("ns", "k") == b"durable"
            assert reopened.count("ns") == 1
        finally:
            reopened.close()

    def test_flush_commits_without_close(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        backend.put("ns", "k", b"v")
        assert backend.pending_writes == 1
        backend.flush()
        assert backend.pending_writes == 0
        assert backend.flushes >= 1
        backend.close()

    def test_auto_flush_bounds_the_open_transaction(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"), auto_flush=4)
        for index in range(10):
            backend.put("ns", f"k{index}", b"v")
        # 10 writes with a batch of 4: two automatic commits happened and
        # at most 3 writes can still be pending.
        assert backend.flushes >= 2
        assert backend.pending_writes < 4
        backend.close()

    def test_creates_parent_directory(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "deep" / "nested" / "s.sqlite"))
        backend.put("ns", "k", b"v")
        backend.close()

    def test_integrity_and_file_size(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        backend.put("ns", "k", b"x" * 1024)
        backend.flush()
        assert backend.integrity_ok()
        assert backend.file_bytes() > 0
        backend.close()

    def test_close_is_idempotent(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        backend.close()
        backend.close()


class TestKeyspace:
    def test_binds_one_namespace(self, tmp_path):
        # Each tier reads and writes its own namespace of the one store.
        backend = SqliteBackend(str(tmp_path / "store.sqlite"))
        try:
            documents, http = (
                StorageTier(namespace, 4, str.encode, bytes.decode, backend=backend)
                for namespace in ("documents", "http")
            )
            documents.put("k", "doc")
            assert backend.get("documents", "k") == b"doc"
            assert http.get("k") is None
            assert len(documents) == 1 and len(http) == 0
            assert dict(documents.items()) == {"k": "doc"}
            documents.delete("k")
            assert len(documents) == 0
            assert documents.persistent and http.persistent
        finally:
            backend.close()


class TestOpenBackend:
    """A stack opens a store only from a path; without one it has none."""

    def test_default_is_memory(self, tiny_universe):
        resources = SharedResources.for_universe(tiny_universe)
        assert resources.storage is None
        assert not resources.http_cache.tier.persistent
        assert not resources.document_store.tier.persistent
        assert resources.statistics()["storage"] == {}
        resources.flush()
        resources.close()  # no store: both are no-ops

    def test_path_infers_sqlite(self, tiny_universe, tmp_path):
        resources = SharedResources.for_universe(
            tiny_universe, store_path=str(tmp_path / "s.sqlite")
        )
        try:
            assert isinstance(resources.storage, SqliteBackend)
            assert resources.http_cache.tier.persistent
            assert resources.document_store.tier.persistent
            assert resources.statistics()["storage"]["kind"] == "sqlite"
        finally:
            resources.close()

    def test_explicit_sqlite(self, tiny_universe, tmp_path):
        backend = SqliteBackend(str(tmp_path / "s.sqlite"))
        resources = SharedResources.for_universe(tiny_universe, storage=backend)
        try:
            assert resources.storage is backend
            assert resources.document_store.tier.persistent
        finally:
            resources.close()

    def test_sqlite_requires_path(self):
        # The serve door has no backend switch: a store is a --store-path.
        parser = build_serve_arg_parser()
        assert parser.parse_args([]).store_path is None
        with pytest.raises(SystemExit):
            parser.parse_args(["--backend", "sqlite"])
