"""Embedded single-file persistence: SQLite in WAL mode.

One file holds every namespace (parsed documents, HTTP responses) of
one worker's storage tier.  Design points:

* **WAL journal** — readers never block the writer, and a crash at any
  point rolls back to the last committed transaction on reopen: the
  file is never corrupt, only *behind*.  A document whose write had not
  been committed simply misses on the next lookup and falls back to a
  cold dereference — the same path as a never-seen URL.
* **Batched commits** — writes accumulate in one open transaction and
  commit on :meth:`flush` (or automatically every ``auto_flush`` writes,
  so an unbounded ingest cannot hold a giant transaction open).  The
  service flushes on drain and close; a crash between ``put`` and
  ``flush`` loses only that window.
* **Synchronous=NORMAL** — in WAL mode this fsyncs on checkpoint, not
  per commit; a power loss can lose the last commits but never corrupts
  (SQLite's documented durability/perf trade for cache workloads).

The connection is shared across threads behind one lock: the service
host's event-loop thread, web-UI handler threads, and benchmark drivers
all reach the same store.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Iterator, Optional

__all__ = ["SqliteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    namespace TEXT NOT NULL,
    key TEXT NOT NULL,
    value BLOB NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (namespace, key)
) WITHOUT ROWID
"""


class SqliteBackend:
    """Crash-safe namespaced key/value store in one SQLite file."""

    kind = "sqlite"

    def __init__(self, path: str, auto_flush: int = 256) -> None:
        self.path = str(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # isolation_level=None: no implicit transaction management — we
        # open and commit transactions explicitly so the crash window is
        # exactly the un-flushed batch, nothing more or less.
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.Lock()
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._in_transaction = False
        self._auto_flush = max(1, auto_flush)
        self.pending_writes = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.flushes = 0
        self._closed = False

    def _begin(self) -> None:
        if not self._in_transaction:
            self._conn.execute("BEGIN")
            self._in_transaction = True

    def _commit_locked(self) -> None:
        if self._in_transaction:
            self._conn.execute("COMMIT")
            self._in_transaction = False
            self.flushes += 1
        self.pending_writes = 0

    def _after_write_locked(self) -> None:
        self.pending_writes += 1
        if self.pending_writes >= self._auto_flush:
            self._commit_locked()

    # -- the store ------------------------------------------------------

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        with self._lock:
            self.gets += 1
            row = self._conn.execute(
                "SELECT value FROM kv WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def put(self, namespace: str, key: str, value: bytes) -> None:
        import time

        with self._lock:
            self._begin()
            self._conn.execute(
                "INSERT OR REPLACE INTO kv (namespace, key, value, updated_at) "
                "VALUES (?, ?, ?, ?)",
                (namespace, key, sqlite3.Binary(value), time.time()),
            )
            self.puts += 1
            self._after_write_locked()

    def delete(self, namespace: str, key: str) -> None:
        with self._lock:
            self._begin()
            self._conn.execute(
                "DELETE FROM kv WHERE namespace = ? AND key = ?", (namespace, key)
            )
            self.deletes += 1
            self._after_write_locked()

    def scan(self, namespace: str) -> Iterator[tuple[str, bytes]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM kv WHERE namespace = ? ORDER BY updated_at",
                (namespace,),
            ).fetchall()
        for key, value in rows:
            yield key, bytes(value)

    def count(self, namespace: str) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM kv WHERE namespace = ?", (namespace,)
            ).fetchone()
        return int(row[0])

    def clear(self, namespace: str) -> None:
        with self._lock:
            self._begin()
            self._conn.execute("DELETE FROM kv WHERE namespace = ?", (namespace,))
            self._commit_locked()

    def flush(self) -> None:
        with self._lock:
            self._commit_locked()

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._commit_locked()
            self._conn.close()
            self._closed = True

    def namespaces(self) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT namespace, COUNT(*) FROM kv GROUP BY namespace"
            ).fetchall()
        return {name: int(n) for name, n in rows}

    def integrity_ok(self) -> bool:
        """SQLite's own structural check — the crash-safety probe."""
        with self._lock:
            row = self._conn.execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"

    def file_bytes(self) -> int:
        try:
            total = os.path.getsize(self.path)
            for suffix in ("-wal", "-shm"):
                side = self.path + suffix
                if os.path.exists(side):
                    total += os.path.getsize(side)
            return total
        except OSError:
            return 0

    def statistics(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "namespaces": self.namespaces() if not self._closed else {},
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "flushes": self.flushes,
            "pending_writes": self.pending_writes,
            "file_bytes": self.file_bytes(),
        }
