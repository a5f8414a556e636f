"""The shared cache discipline above the SQLite store.

:class:`StorageTier` is the one eviction/statistics surface both the
parsed-document store and the HTTP cache used to duplicate (each had its
own ``max_*`` bound and an O(n) ``min(..., key=stored_at)`` oldest-entry
scan).  The tier keeps *decoded* entries in a bounded
:class:`~collections.OrderedDict` in true LRU order — a hit refreshes
recency in O(1), eviction pops the least-recently-used entry in O(1) —
and, when a :class:`~repro.storage.sqlite.SqliteBackend` sits below (a
tier is persistent iff it has one), spills beyond the bound to its own
namespace of that store:

* **put** inserts into the LRU and write-throughs the encoded bytes;
* **get** answers from the LRU, else reads through (decode + promote);
* **eviction** only forgets the in-memory copy when there is a backend —
  capacity becomes disk-bounded, not RAM-bounded;
* with no backend the LRU is authoritative and eviction discards;
* a stored value the decoder rejects (a form this build does not write,
  a corrupt row) is a miss: the key is deleted and counted as
  ``discarded``, and the caller re-fetches as for a never-seen key.

The LRU holds live objects: callers may mutate an entry in place (the
HTTP cache renews validator timestamps on 304) and such mutations are
visible to every in-process reader but not written back — after a
restart a renewed entry simply revalidates once more, which is correct,
just one conditional request slower.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from .sqlite import SqliteBackend

__all__ = ["StorageTier"]

#: What a decoder raises on bytes it cannot read: a foreign form marker or
#: malformed JSON (ValueError), a missing field or index (LookupError), a
#: value of the wrong shape (TypeError).
_UNDECODABLE = (ValueError, LookupError, TypeError)


class StorageTier:
    """Bounded-LRU cache of decoded entries over an optional namespace of
    a SQLite store."""

    def __init__(
        self,
        namespace: str,
        max_entries: int,
        encode: Callable[[object], bytes],
        decode: Callable[[bytes], object],
        backend: Optional[SqliteBackend] = None,
    ) -> None:
        self.namespace = namespace
        self._max_entries = max(1, max_entries)
        self._encode = encode
        self._decode = decode
        self._backend = backend
        self._lru: "OrderedDict[str, object]" = OrderedDict()
        self.evictions = 0
        self.backend_reads = 0
        self.backend_writes = 0
        self.discarded = 0

    # -- capacity -------------------------------------------------------

    @property
    def persistent(self) -> bool:
        return self._backend is not None

    @property
    def max_memory_entries(self) -> int:
        return self._max_entries

    def __len__(self) -> int:
        """Total reachable entries (disk-backed when persistent)."""
        if self._backend is not None:
            return self._backend.count(self.namespace)
        return len(self._lru)

    def memory_entries(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        if key in self._lru:
            return True
        backend = self._backend
        return backend is not None and backend.get(self.namespace, key) is not None

    # -- the discipline -------------------------------------------------

    def _admit(self, key: str, entry: object) -> None:
        # With a backend below, eviction only forgets the in-memory copy
        # (the durable one remains reachable); without one, eviction is
        # deletion.
        self._lru[key] = entry
        self._lru.move_to_end(key)
        while len(self._lru) > self._max_entries:
            self._lru.popitem(last=False)
            self.evictions += 1

    def _read(self, key: str, raw: bytes) -> Optional[object]:
        """Decode one stored value; an undecodable one is deleted, counted
        and answered as a miss."""
        try:
            entry = self._decode(raw)
        except _UNDECODABLE:
            self.delete(key)
            self.discarded += 1
            return None
        self.backend_reads += 1
        return entry

    def get(self, key: str) -> Optional[object]:
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
            return entry
        if self._backend is not None:
            raw = self._backend.get(self.namespace, key)
            if raw is not None:
                entry = self._read(key, raw)
                if entry is not None:
                    self._admit(key, entry)
                return entry
        return None

    def peek(self, key: str) -> Optional[object]:
        """Like :meth:`get` without refreshing recency (introspection)."""
        entry = self._lru.get(key)
        if entry is not None:
            return entry
        if self._backend is not None:
            raw = self._backend.get(self.namespace, key)
            if raw is not None:
                return self._read(key, raw)
        return None

    def put(self, key: str, entry: object) -> None:
        self._admit(key, entry)
        if self._backend is not None:
            self._backend.put(self.namespace, key, self._encode(entry))
            self.backend_writes += 1

    def delete(self, key: str) -> None:
        self._lru.pop(key, None)
        if self._backend is not None:
            self._backend.delete(self.namespace, key)

    def items(self) -> Iterator[tuple[str, object]]:
        """Every reachable entry, in-memory copies winning over stored ones."""
        if self._backend is None:
            yield from list(self._lru.items())
            return
        seen: set[str] = set()
        for key, raw in self._backend.scan(self.namespace):
            seen.add(key)
            entry = self._lru.get(key)
            if entry is None:
                entry = self._read(key, raw)
            if entry is not None:
                yield key, entry
        for key, entry in list(self._lru.items()):
            if key not in seen:
                yield key, entry

    def clear(self) -> None:
        self._lru.clear()
        self.evictions = 0
        self.backend_reads = 0
        self.backend_writes = 0
        self.discarded = 0
        if self._backend is not None:
            self._backend.clear(self.namespace)

    def flush(self) -> None:
        if self._backend is not None:
            self._backend.flush()

    def statistics(self) -> dict:
        stats = {
            "entries": len(self),
            "memory_entries": len(self._lru),
            "max_memory_entries": self._max_entries,
            "evictions": self.evictions,
            "persistent": self.persistent,
            "backend_reads": self.backend_reads,
            "backend_writes": self.backend_writes,
            "discarded": self.discarded,
        }
        if self._backend is not None:
            stats["backend"] = self._backend.kind
        return stats
