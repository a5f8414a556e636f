"""Resource Waterfall rendering (paper Figs. 4-5).

The demo shows Chrome's Network tab while queries run: each HTTP request as
a bar, offset by start time, with dependency structure visible (requests
that needed a prior document's links start after it).

:func:`build_waterfall` derives the rows from the ``attempt`` spans a
:class:`~repro.obs.trace.Tracer` records (one per HTTP attempt, mirroring
the request log 1:1), which also carry cache-hit provenance and the
``first-result`` instant for the Fig. 4 marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "WaterfallRow",
    "Waterfall",
    "build_waterfall",
    "render_waterfall",
]


@dataclass(slots=True)
class WaterfallRow:
    """One request bar."""

    url: str
    short_name: str
    status: int
    start: float  # seconds from first request
    end: float
    size: int
    depth: int
    parent_url: Optional[str]
    #: Which attempt this bar is (1 = first try; >1 = a retry bar).
    attempt: int = 1
    #: Served from the HTTP cache without touching the network.
    from_cache: bool = False
    #: Link provenance: which extractor produced the link, refined with
    #: the matching predicate/pattern or type-index class when the trace
    #: recorded one — e.g. ``match(hasCreator)``, ``type-index(Post)``.
    via: str = ""

    @property
    def is_retry(self) -> bool:
        return self.attempt > 1


@dataclass(slots=True)
class Waterfall:
    rows: list[WaterfallRow]
    total_duration: float
    request_count: int
    max_depth: int
    max_parallelism: int
    origins: int
    total_bytes: int
    retries: int = 0
    #: Rows served from the HTTP cache without touching the network.
    cache_hits: int = 0
    #: Seconds from the first request to the first streamed result, when
    #: the trace recorded a ``first-result`` instant.
    first_result_at: Optional[float] = None

    def summary(self) -> dict:
        return {
            "requests": self.request_count,
            "duration_s": round(self.total_duration, 4),
            "max_depth": self.max_depth,
            "max_parallelism": self.max_parallelism,
            "origins": self.origins,
            "total_bytes": self.total_bytes,
            "retries": self.retries,
        }

    def network_latencies(self) -> list[float]:
        """The durations of the rows that touched the network (every row
        not ``from_cache``), ascending, in seconds."""
        return sorted(row.end - row.start for row in self.rows if not row.from_cache)


def _short_name(url: str) -> str:
    path = url.split("://", 1)[-1]
    segments = [s for s in path.split("/") if s]
    if not segments:
        return path
    name = segments[-1]
    if url.endswith("/"):
        name += "/"
    return name


def _via_label(deref) -> str:
    """Compact provenance label from a ``dereference`` span's args."""
    if deref is None:
        return ""
    via = str(deref.args.get("via", ""))
    detail = (
        deref.args.get("via_class")
        or deref.args.get("via_predicate")
        or deref.args.get("via_pattern")
    )
    if not detail:
        return via
    tail = str(detail)
    for separator in ("#", "/"):
        if separator in tail:
            candidate = tail.rsplit(separator, 1)[-1]
            if candidate:
                tail = candidate
    return f"{via}({tail})" if via else tail


def _origin(url: str) -> str:
    scheme, _, rest = url.partition("://")
    return scheme + "://" + rest.split("/", 1)[0]


def _max_parallelism(intervals: list[tuple[float, float]]) -> int:
    """Peak number of simultaneously in-flight intervals (sweep line)."""
    events: list[tuple[float, int]] = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((max(end, start), -1))
    # Ends sort before starts at the same instant, so back-to-back
    # requests don't count as overlapping.
    events.sort(key=lambda item: (item[0], item[1]))
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def build_waterfall(tracer) -> Waterfall:
    """Derive the waterfall from a query execution's span tree.

    Every HTTP attempt is an ``attempt`` span under a ``fetch`` span, so
    there is one row per request — with cache-hit provenance
    (``from_cache``) and the streamed ``first-result`` instant.  Depth
    comes from the enclosing ``dereference`` span's link depth.
    """
    spans = tracer.spans
    by_id = {span.span_id: span for span in spans}

    def enclosing(span, name: str):
        node = span
        while node is not None:
            if node.name == name:
                return node
            node = by_id.get(node.parent_id)
        return None

    attempts = [span for span in spans if span.name == "attempt"]
    attempts.sort(key=lambda span: (span.start, span.span_id))
    first_result_ts: Optional[float] = None
    for span in spans:
        if span.name == "first-result":
            first_result_ts = span.start
            break
    if not attempts:
        return Waterfall([], 0.0, 0, 0, 0, 0, 0)

    origin_time = attempts[0].start
    rows: list[WaterfallRow] = []
    for span in attempts:
        fetch = enclosing(span, "fetch")
        deref = enclosing(span, "dereference")
        rows.append(
            WaterfallRow(
                url=span.args.get("url", ""),
                short_name=_short_name(span.args.get("url", "")),
                status=int(span.args.get("status", 0)),
                start=span.start - origin_time,
                end=(span.end if span.end is not None else span.start) - origin_time,
                size=int(span.args.get("size", 0)),
                depth=int(deref.args.get("depth", 0)) if deref is not None else 0,
                parent_url=(fetch.args.get("parent_url") or None) if fetch else None,
                attempt=int(span.args.get("attempt", 1)),
                from_cache=bool(span.args.get("from_cache", False)),
                via=_via_label(deref),
            )
        )

    total = max(row.end for row in rows)
    network_rows = [row for row in rows if not row.from_cache]
    return Waterfall(
        rows=rows,
        total_duration=total,
        request_count=len(rows),
        max_depth=max(row.depth for row in rows),
        max_parallelism=_max_parallelism(
            [(row.start, row.end) for row in network_rows]
        ),
        origins=len({_origin(row.url) for row in rows}),
        total_bytes=sum(row.size for row in rows),
        retries=sum(1 for row in rows if row.is_retry),
        cache_hits=sum(1 for row in rows if row.from_cache),
        first_result_at=(
            first_result_ts - origin_time if first_result_ts is not None else None
        ),
    )


def render_waterfall(
    waterfall: Waterfall,
    width: int = 60,
    max_rows: int = 40,
    name_width: int = 32,
    show_via: bool = False,
    via_width: int = 22,
) -> str:
    """ASCII rendering in the spirit of the browser Network tab.

    ``show_via`` adds the link-provenance column.  Off by default so the
    classic layout — and its golden renderings — stay stable.
    """
    if not waterfall.rows:
        return "(no requests)\n"
    via_header = f" {'via':<{via_width}}" if show_via else ""
    lines = [
        f"{'name':<{name_width}} {'status':>6} {'size':>8} {'ms':>7} {via_header} waterfall",
    ]
    scale = width / waterfall.total_duration if waterfall.total_duration > 0 else 0.0
    shown = waterfall.rows[:max_rows]
    first_marker = (
        int(waterfall.first_result_at * scale)
        if waterfall.first_result_at is not None
        else None
    )
    for row in shown:
        offset = int(row.start * scale)
        length = max(1, int((row.end - row.start) * scale))
        length = min(length, width - offset) if offset < width else 1
        # Retry bars render hollow with an attempt marker, so flaky
        # resources are visually distinct from first-try fetches; cache
        # hits render shaded since they never touched the network.
        if row.from_cache:
            glyph = "▒"
        elif row.is_retry:
            glyph = "░"
        else:
            glyph = "█"
        bar = " " * offset + glyph * length
        if row.is_retry:
            bar += f" (retry #{row.attempt})"
        elif row.from_cache:
            bar += " (cache)"
        name = ("  " * min(row.depth, 6)) + row.short_name
        if len(name) > name_width:
            name = name[: name_width - 1] + "…"
        duration_ms = (row.end - row.start) * 1000
        via_cell = ""
        if show_via:
            via_text = row.via
            if len(via_text) > via_width:
                via_text = via_text[: via_width - 1] + "…"
            via_cell = f" {via_text:<{via_width}}"
        lines.append(
            f"{name:<{name_width}} {row.status:>6} {row.size:>8} {duration_ms:>7.1f} {via_cell} {bar}"
        )
    if len(waterfall.rows) > max_rows:
        lines.append(f"... and {len(waterfall.rows) - max_rows} more requests")
    if first_marker is not None:
        prefix = " " * (name_width + 6 + 8 + 7 + 5 + (via_width + 1 if show_via else 0))
        marker = " " * min(first_marker, width) + "▼"
        lines.append(
            f"{prefix}{marker} first result "
            f"({waterfall.first_result_at * 1000:.1f} ms)"
        )
    lines.append(
        "total: {requests} requests, {duration_s}s, depth {max_depth}, "
        "parallelism {max_parallelism}, {origins} origin(s), {total_bytes} bytes, "
        "{retries} retries".format(**waterfall.summary())
    )
    if waterfall.cache_hits:
        lines.append(f"cache: {waterfall.cache_hits} of {waterfall.request_count} served from cache")
    return "\n".join(lines) + "\n"
