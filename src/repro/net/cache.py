"""Client-side HTTP caching.

The paper's demo runs in a browser whose disk cache answers most repeat
requests — the Fig. 4 waterfall shows almost every document served
"(disk cache)" in 2-13 ms.  This module reproduces that layer:

* fresh entries (within ``max-age``) are served locally without touching
  the network;
* stale entries revalidate with ``If-None-Match``; a ``304 Not Modified``
  renews the entry without re-transferring the body.

The cache is transport-agnostic: :class:`~repro.net.client.HttpClient`
consults it when constructed with ``cache=HttpCache()``.

Like the parsed-document store, the cache rides the shared
:class:`~repro.storage.tier.StorageTier` discipline: a bounded true-LRU
set of decoded entries in memory and — when a
:class:`~repro.storage.SqliteBackend` is attached — a write-through
durable copy, so a restarted service answers repeat requests from the
store file exactly like the browser's disk cache answers them across
browser restarts.  Persisted entries carry wall-clock timestamps;
freshness windows therefore survive the restart, and anything past its
window simply revalidates through the ordinary ETag/304 path.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from typing import Optional

from ..storage import SqliteBackend, StorageTier
from .message import Response

__all__ = ["CacheEntry", "HttpCache"]

_MAX_AGE_RE = re.compile(r"max-age=(\d+)")


@dataclass(slots=True)
class CacheEntry:
    """A cached response body plus its validators."""

    response: Response
    etag: str
    stored_at: float
    max_age: float

    def is_fresh(self, now: Optional[float] = None) -> bool:
        if self.max_age <= 0:
            return False
        current = now if now is not None else time.monotonic()
        return current - self.stored_at < self.max_age

    def renew(self, now: Optional[float] = None) -> None:
        self.stored_at = now if now is not None else time.monotonic()


#: The form marker every persisted entry starts with; a JSON header line
#: (status, headers, validators, wall-clock stamp) and the raw body follow.
#: :func:`decode_cache_entry` reads this form and no other.
ENTRY_FORM = b"repro.http/raw-body\n"


def encode_cache_entry(entry: CacheEntry) -> bytes:
    """Storage-backend bytes: response + validators, wall-clock stamped."""
    header = {
        "status": entry.response.status,
        "headers": entry.response.headers,
        "etag": entry.etag,
        "max_age": entry.max_age,
        "stored_wall": time.time() - (time.monotonic() - entry.stored_at),
    }
    return b"".join(
        (ENTRY_FORM, json.dumps(header).encode("utf-8"), b"\n", entry.response.body)
    )


def decode_cache_entry(raw: bytes) -> CacheEntry:
    """Rebuild an entry; :class:`ValueError` on bytes in any other form
    (an older build's store file, a corrupt row), which the storage tier
    answers as a miss."""
    if not raw.startswith(ENTRY_FORM):
        raise ValueError("not an HTTP cache entry in this build's form")
    end = raw.index(b"\n", len(ENTRY_FORM))
    header = json.loads(raw[len(ENTRY_FORM) : end])
    age = max(0.0, time.time() - float(header["stored_wall"]))
    return CacheEntry(
        response=Response(header["status"], header["headers"], raw[end + 1 :]),
        etag=header["etag"],
        stored_at=time.monotonic() - age,
        max_age=float(header["max_age"]),
    )


class HttpCache:
    """URL-keyed response cache with ETag revalidation.

    Only successful ``GET`` responses are cached.  ``default_max_age``
    applies when the server sends no ``Cache-Control``; pass ``0`` to
    force revalidation on every reuse.  ``max_entries`` bounds the
    in-memory LRU; a ``backend`` keeps evicted and
    across-restart entries reachable.
    """

    def __init__(
        self,
        default_max_age: float = 300.0,
        max_entries: int = 100_000,
        backend: Optional[SqliteBackend] = None,
    ) -> None:
        self._tier = StorageTier(
            "http",
            max_entries,
            encode_cache_entry,
            decode_cache_entry,
            backend=backend,
        )
        self._default_max_age = default_max_age
        self.hits = 0
        self.revalidations = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._tier)

    def __contains__(self, url: str) -> bool:
        return url in self._tier

    @property
    def tier(self) -> StorageTier:
        return self._tier

    def lookup(self, url: str) -> Optional[CacheEntry]:
        return self._tier.get(url)

    def store(self, url: str, response: Response) -> Optional[CacheEntry]:
        """Cache a 200 response; returns the entry (or None if uncacheable)."""
        if response.status != 200:
            return None
        cache_control = response.header("cache-control")
        if "no-store" in cache_control:
            return None
        if "no-cache" in cache_control:
            # RFC 9111 §5.2.2.4: ``no-cache`` responses MAY be stored but
            # MUST be revalidated before every reuse — a zero max-age makes
            # the entry permanently stale, so each hit goes through the
            # ETag / 304 path instead of being served from memory.
            max_age = 0.0
        else:
            max_age = self._default_max_age
            match = _MAX_AGE_RE.search(cache_control)
            if match:
                max_age = float(match.group(1))
        entry = CacheEntry(
            response=response,
            etag=response.header("etag"),
            stored_at=time.monotonic(),
            max_age=max_age,
        )
        self._tier.put(url, entry)
        return entry

    def flush(self) -> None:
        """Commit pending backend writes (no-op without persistence)."""
        self._tier.flush()

    def clear(self) -> None:
        self._tier.clear()
        self.hits = self.revalidations = self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def statistics(self) -> dict:
        return {
            "entries": len(self._tier),
            "hits": self.hits,
            "revalidations": self.revalidations,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "storage": self._tier.statistics(),
        }
