"""Measurement helpers shared by the ledger's workloads and probes.

Nothing here drives the program: percentiles over harness-stamped
samples, the span self-time roll-up (the ``obs.export`` rule — duration
minus children), and the two runtime observers the traced run installs
(a ``gc.callbacks`` timer and an event-loop lag sleeper).  The observers
only *watch*: the collector's thresholds and state are never changed, so
the pauses users see stay in the numbers.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional, Sequence

#: A tail percentile needs at least ten samples beyond it to mean anything.
MIN_SAMPLES_P90 = 100

#: Span names whose self time is *work* (``queue-wait`` is waiting; the
#: ``query``/``traversal`` containers' own self time is the unattributed rest).
BUSY_SPANS = (
    "plan",
    "dereference",
    "fetch",
    "attempt",
    "backoff",
    "parse",
    "diff",
    "extract",
    "advance-batch",
    "apply-batch",
    "join",
    "finalize",
    "refresh",
)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """The 90th percentile; refuses samples too small to have a tail."""
    if len(values) < MIN_SAMPLES_P90:
        raise ValueError(
            f"p90 needs at least {MIN_SAMPLES_P90} samples, got {len(values)}"
        )
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def p90_or_zero(values: Sequence[float]) -> float:
    """``p90`` where the sample supports it, else 0 (reported as absent)."""
    return p90(values) if len(values) >= MIN_SAMPLES_P90 else 0.0


def sliced_rate(step: Callable[[], int], slices: int = 5, slice_seconds: float = 0.1) -> float:
    """Units of work per second, as the median over ``slices`` timed slices.

    ``step`` does a small batch of work and returns the units it did.  A
    collector pause lands in one slice and the median drops it, where one
    long loop would average it in.
    """
    rates = []
    for _ in range(slices):
        units = 0
        started = time.perf_counter()
        while True:
            units += step()
            elapsed = time.perf_counter() - started
            if elapsed >= slice_seconds:
                break
        rates.append(units / elapsed)
    return statistics.median(rates)


# -- host speed ---------------------------------------------------------------


class HostSpeed:
    """How fast this host runs Python *right now*, sampled beside the ops.

    The 2-core VM this was built on switches, within a second and with a
    duty cycle that drifts over minutes, between two speeds a quarter apart
    (an identical loop takes 4.0 or 5.3 ms), so a 13 s run reads whichever
    mix it met.  A fixed arithmetic kernel (no allocation, so the collector
    never runs in it) is timed between ops, for about ``SHARE`` of the time
    the ops take; the mean kernel time near an interval over
    ``REFERENCE_S`` is that interval's *speed factor*, and
    :func:`at_reference_speed` rescales the interval's CPU share by it.
    Kernel time is taken out of every pass total.
    """

    #: The kernel's time on the calibration host in its fast state.
    REFERENCE_S = 0.004
    #: Sample again once this long has passed since the last sample ...
    INTERVAL_S = 0.1
    #: ... for this share of the time passed (at most ``BURST`` kernels).
    SHARE = 0.04
    BURST = 40
    #: An interval's factor averages the samples within this long of it.
    WINDOW_S = 1.5

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent_s = 0.0
        self._last_at = time.perf_counter()

    def _kernel(self) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        self._last_at = time.perf_counter()
        self.at.append(self._last_at)
        self.seconds.append(self._last_at - started)
        self.spent_s += self._last_at - started

    def mark(self) -> None:
        """Call between ops: samples if the last sample is stale."""
        passed = time.perf_counter() - self._last_at
        if passed >= self.INTERVAL_S:
            for _ in range(max(1, min(self.BURST, int(passed * self.SHARE / self.REFERENCE_S)))):
                self._kernel()

    def factor(self, started_at: float, ended_at: float) -> float:
        """Speed factor of an interval: mean kernel time near it / reference."""
        low = bisect.bisect_left(self.at, started_at - self.WINDOW_S)
        high = bisect.bisect_right(self.at, ended_at + self.WINDOW_S)
        if low == high:  # nothing that near: the closest sample on either side
            low, high = max(0, low - 1), min(len(self.at), high + 1)
        return statistics.fmean(self.seconds[low:high]) / self.REFERENCE_S

    def overall_factor(self) -> float:
        return statistics.fmean(self.seconds) / self.REFERENCE_S


def at_reference_speed(seconds: float, utilisation: float, factor: float) -> float:
    """``seconds`` as they would read at the reference host speed: the share
    spent on the CPU scales with the speed factor, the share spent waiting
    (simulated network round trips) does not."""
    return seconds * (1.0 - utilisation + utilisation / factor)


# -- span roll-up ------------------------------------------------------------


def _self_time(span) -> float:
    children = sum(c.duration for c in span.children if c.kind != "instant")
    return max(0.0, span.duration - children)


class SpanRollup:
    """Per-span-name self time and counts, accumulated over traced passes."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.args: dict[str, float] = defaultdict(float)
        #: Sum of root-span durations (``query``, and ``refresh`` roots of
        #: standing-query maintenance) — the total the breakdown must cover.
        self.root_s = 0.0

    def add(self, tracer, since: int = 0) -> None:
        """Roll up the spans ``tracer`` recorded from index ``since`` on."""
        spans = tracer.spans[since:]
        traversal_ends = {
            span.parent_id: span.end
            for span in spans
            if span.name == "traversal" and span.end is not None
        }
        for span in spans:
            if span.kind == "instant" or span.end is None:
                continue
            self.self_s[span.name] += _self_time(span)
            self.count[span.name] += 1
            if span.name == "parse":
                self.args["triples"] += span.args.get("triples", 0)
            elif span.name == "extract":
                self.args["links"] += span.args.get("links", 0)
            elif span.name == "advance-batch":
                # A per-document advance runs *inside* the dereference that
                # delivered the document but is parented to the query: take
                # it out of the dereference's self time or it counts twice.
                end = traversal_ends.get(span.parent_id)
                if end is not None and span.start < end:
                    self.self_s["dereference"] -= span.duration
            if span.parent_id is None:
                self.root_s += span.duration

    def busy_s(self) -> float:
        return sum(max(0.0, self.self_s.get(name, 0.0)) for name in BUSY_SPANS)

    def get(self, *names: str) -> float:
        return sum(max(0.0, self.self_s.get(name, 0.0)) for name in names)

    def shares(self) -> list[tuple[str, float]]:
        """``(span name, share of root time)`` for work spans, largest first."""
        if not self.root_s:
            return []
        rows = [(name, self.get(name) / self.root_s) for name in BUSY_SPANS]
        return sorted((row for row in rows if row[1] > 0), key=lambda row: -row[1])


# -- runtime observers (traced run only) ---------------------------------------


class GcObserver:
    """Times every collection through ``gc.callbacks``; changes nothing."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcObserver":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class LoopLagObserver:
    """A 5 ms sleeper task; its overshoot is how late the loop ran it."""

    INTERVAL = 0.005

    def __init__(self) -> None:
        self.overshoots_ms: list[float] = []
        self._task: Optional[asyncio.Task] = None

    async def _sleeper(self) -> None:
        while True:
            before = time.perf_counter()
            await asyncio.sleep(self.INTERVAL)
            late = time.perf_counter() - before - self.INTERVAL
            self.overshoots_ms.append(max(0.0, late) * 1000.0)

    async def __aenter__(self) -> "LoopLagObserver":
        self._task = asyncio.create_task(self._sleeper())
        return self

    async def __aexit__(self, *exc) -> None:
        assert self._task is not None
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    def p90_ms(self) -> float:
        if len(self.overshoots_ms) < 10:
            return 0.0
        ordered = sorted(self.overshoots_ms)
        return ordered[int(0.9 * len(ordered))]


def symmetric_difference_size(left: dict, right: dict) -> int:
    """How many rows two result multisets disagree on (0 = equal)."""
    keys = set(left) | set(right)
    return sum(abs(left.get(key, 0) - right.get(key, 0)) for key in keys)
