"""Request logging: every HTTP exchange the client performs.

Every request the simulated client performs is recorded with timing,
status, size, and the *parent* URL: the document whose links led the
engine to this one.  The Resource Waterfall (Figs. 4-5) and its footer
are built from the execution trace (:mod:`repro.bench.waterfall`); the
log is what counters and the trace cross-check read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["RequestRecord", "RequestLog"]


@dataclass(slots=True)
class RequestRecord:
    """One completed (or failed) HTTP exchange."""

    sequence: int
    method: str
    url: str
    status: int
    started_at: float
    finished_at: float
    response_size: int
    parent_url: Optional[str] = None
    error: str = ""
    from_cache: bool = False
    #: Which attempt at this URL the record is (1 = first try, >1 = retry).
    attempt: int = 1

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def is_retry(self) -> bool:
        return self.attempt > 1

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class RequestLog:
    """Append-only, thread-safe log of request records."""

    def __init__(self) -> None:
        self._records: list[RequestRecord] = []
        self._lock = threading.Lock()
        self._sequence = 0

    def record(
        self,
        method: str,
        url: str,
        status: int,
        started_at: float,
        finished_at: float,
        response_size: int,
        parent_url: Optional[str] = None,
        error: str = "",
        from_cache: bool = False,
        attempt: int = 1,
    ) -> RequestRecord:
        with self._lock:
            self._sequence += 1
            entry = RequestRecord(
                sequence=self._sequence,
                method=method,
                url=url,
                status=status,
                started_at=started_at,
                finished_at=finished_at,
                response_size=response_size,
                parent_url=parent_url,
                error=error,
                from_cache=from_cache,
                attempt=attempt,
            )
            self._records.append(entry)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._sequence = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[RequestRecord]:
        with self._lock:
            return iter(list(self._records))

    @property
    def records(self) -> list[RequestRecord]:
        with self._lock:
            return list(self._records)
