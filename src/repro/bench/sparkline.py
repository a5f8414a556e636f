"""Tiny ASCII charts for queue-evolution reports (bench E9)."""

from __future__ import annotations

from typing import Sequence

from ..ltqp.links import QueueSample

__all__ = ["sparkline", "queue_sparkline"]

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a fixed-width unicode sparkline.

    Values are bucketed to ``width`` columns (max per bucket) and scaled
    to eight bar heights; an empty input renders as an empty string.
    """
    values = list(values)
    if not values:
        return ""
    if len(values) > width:
        bucket_size = len(values) / width
        bucketed = []
        for column in range(width):
            start = int(column * bucket_size)
            end = max(start + 1, int((column + 1) * bucket_size))
            bucketed.append(max(values[start:end]))
        values = bucketed
    peak = max(values)
    if peak <= 0:
        return _BARS[0] * len(values)
    return "".join(
        _BARS[min(len(_BARS) - 1, int(value / peak * (len(_BARS) - 1) + 0.5))]
        for value in values
    )


def queue_sparkline(samples: Sequence[QueueSample], width: int = 60) -> str:
    """Queue length over time as a sparkline, with the peak marked."""
    lengths = [sample.queue_length for sample in samples]
    if not lengths:
        return "(no samples)"
    return f"{sparkline(lengths, width)}  peak={max(lengths)}"
