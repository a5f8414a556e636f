"""The persistent storage tier under the service's caches (ROADMAP item 1).

The paper's demo leans on the *browser disk cache* — the Fig. 4
waterfall answers nearly every repeat dereference "(disk cache)" in
2–13 ms — and the structural-assumptions evaluation shows fetch-plus-
parse cost dominating LTQP end-to-end time.  Everything this repo
amortizes (HTTP responses in :class:`~repro.net.cache.HttpCache`,
parsed documents in :class:`~repro.service.docstore.DocumentStore`)
lived purely in process memory: a ``serve`` restart was fully cold and
capacity was bounded by RAM.

This package separates *store* from *layout* (after lakesuperior's
store/layout split):

* :class:`SqliteBackend` — the store: one embedded, single-file,
  WAL-mode, crash-safe namespaced key/value file over opaque byte
  values; a restart against the same path starts *warm* and capacity is
  bounded by disk, not RAM;
* :class:`StorageTier` — the layout: a bounded in-process LRU of
  *decoded* entries, over one namespace of a store when it has one
  (read-through on miss, write-through on put) and authoritative when it
  has none.  Both ``DocumentStore`` and ``HttpCache`` ride this one
  discipline, which is also where their previously duplicated
  eviction/statistics surface now lives.

Without a store nothing survives the process and nothing is encoded:
that is the default of every cache and of
:class:`~repro.service.SharedResources`.  Serialization stays at the
caller: the tier takes ``encode``/``decode`` callables, so the document
store reuses the process-portable term-table codec from
:mod:`repro.service.wire` — validator keys survive a restart and
invalidation keeps riding the ETag/304-revalidation machinery.
"""

from .sqlite import SqliteBackend
from .tier import StorageTier

__all__ = ["SqliteBackend", "StorageTier"]
