"""Unit tests for the shared LRU/spill discipline (StorageTier)."""

import pytest

from repro.storage import SqliteBackend, StorageTier


def make_tier(max_entries=3, backend=None):
    return StorageTier(
        "ns",
        max_entries,
        encode=lambda entry: entry.encode("utf-8"),
        decode=lambda raw: raw.decode("utf-8"),
        backend=backend,
    )


class TestMemoryOnly:
    """No backend: the LRU is authoritative."""

    def test_true_lru_eviction_order(self):
        tier = make_tier(max_entries=2)
        tier.put("a", "A")
        tier.put("b", "B")
        assert tier.get("a") == "A"  # refreshes a's recency
        tier.put("c", "C")  # evicts b, the least recently used
        assert tier.get("b") is None
        assert tier.get("a") == "A"
        assert tier.get("c") == "C"
        assert tier.evictions == 1

    def test_eviction_is_deletion_without_persistence(self):
        tier = make_tier(max_entries=1)
        tier.put("a", "A")
        tier.put("b", "B")
        assert len(tier) == 1
        assert "a" not in tier

    def test_items_and_contains(self):
        tier = make_tier()
        tier.put("a", "A")
        tier.put("b", "B")
        assert dict(tier.items()) == {"a": "A", "b": "B"}
        assert "a" in tier and "missing" not in tier


class TestPersistentSpill:
    @pytest.fixture
    def backend(self, tmp_path):
        built = SqliteBackend(str(tmp_path / "tier.sqlite"))
        yield built
        built.close()

    def test_capacity_outgrows_memory(self, backend):
        tier = make_tier(max_entries=2, backend=backend)
        for key in "abcde":
            tier.put(key, key.upper())
        assert tier.memory_entries() == 2
        assert len(tier) == 5  # everything still reachable on disk
        # An evicted entry reads through (decode + promote)...
        reads_before = tier.backend_reads
        assert tier.get("a") == "A"
        assert tier.backend_reads == reads_before + 1
        # ...and the promotion refreshed its recency in the LRU.
        assert tier.get("a") == "A"
        assert tier.backend_reads == reads_before + 1

    def test_delete_removes_both_copies(self, backend):
        tier = make_tier(backend=backend)
        tier.put("a", "A")
        tier.delete("a")
        assert tier.get("a") is None
        assert len(tier) == 0

    def test_items_prefers_live_in_memory_objects(self, backend):
        tier = make_tier(backend=backend)
        tier.put("a", "A")
        # Mutations of live entries are an in-process affair; items()
        # must surface the live object, not a stale decode.
        entries = dict(tier.items())
        assert entries["a"] is tier.get("a")

    def test_peek_does_not_refresh_recency(self, backend):
        tier = make_tier(max_entries=2, backend=backend)
        tier.put("a", "A")
        tier.put("b", "B")
        assert tier.peek("a") == "A"  # no recency refresh
        tier.put("c", "C")  # evicts a (peek did not protect it)
        assert "a" not in list(dict(tier._lru))
        assert tier.get("a") == "A"  # but the durable copy answers

    def test_statistics_shape(self, backend):
        tier = make_tier(max_entries=1, backend=backend)
        tier.put("a", "A")
        tier.put("b", "B")
        stats = tier.statistics()
        assert stats["entries"] == 2
        assert stats["memory_entries"] == 1
        assert stats["max_memory_entries"] == 1
        assert stats["evictions"] == 1
        assert stats["persistent"] is True
        assert stats["backend"] == "sqlite"
        assert stats["backend_writes"] == 2

    def test_clear_empties_backend_namespace_only(self, backend):
        tier = make_tier(backend=backend)
        tier.put("a", "A")
        backend.put("other", "k", b"untouched")
        tier.clear()
        assert len(tier) == 0
        assert backend.get("other", "k") == b"untouched"
