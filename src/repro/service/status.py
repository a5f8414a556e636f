"""The versioned ``/service/status`` document.

One shape for every deployment, and the single place it lives:

* ``"schema": 2`` versions the payload, so dashboards can detect drift;
* ``"mode"`` is ``"single"`` or ``"sharded"``;
* ``"service"`` carries the same key set in both — admission counters
  plus cache, document-store and storage-tier statistics (summed over
  the workers by a sharded front-end);
* ``"workers"`` summarizes the pool (a single service is a pool of one);
* ``"shards"`` holds the raw per-worker reports (empty when unsharded);
* ``"queries"`` is the registry snapshot list: in-flight queries plus a
  bounded window of the most recently finished ones.

Both services' ``statistics()`` already answer with these keys, so the
document is a projection.  The storage tier (:mod:`repro.storage`)
surfaces twice: inside ``http_cache``/``document_store`` (per-tier LRU +
backend counters) and as the backend-level ``storage`` block (file
size, pending writes).
"""

from __future__ import annotations

__all__ = ["STATUS_SCHEMA_VERSION", "build_status"]

#: Bump when the document shape changes incompatibly.
STATUS_SCHEMA_VERSION = 2

#: The keys every ``"service"`` block carries, sharded or not.
_SERVICE_KEYS = (
    "active",
    "queued",
    "accepted",
    "rejected",
    "completed",
    "failed",
    "cancelled",
    "subscriptions",
    "shutdown_errors",
    "http_cache",
    "document_store",
    "storage",
    "requests",
)


def build_status(service) -> dict:
    """The schema-2 status document of either service.

    Synchronous and safe from any thread.  A sharded front-end answers
    from its workers' last reports; ``await service.status()`` polls
    them first and then builds this same document.
    """
    stats = service.statistics()
    return {
        "schema": STATUS_SCHEMA_VERSION,
        "mode": stats["mode"],
        "workers": stats["workers"],
        "service": {key: stats[key] for key in _SERVICE_KEYS},
        "shards": stats["shards"],
        "queries": [handle.snapshot() for handle in service.queries()],
    }
