"""Unit tests for resource-waterfall construction and rendering."""

from repro.bench.waterfall import build_waterfall, render_waterfall
from repro.obs import Tracer


def record(tracer, url, status, started, finished, size, parent_url, depth=0):
    """One request as the engine traces it: dereference > fetch > attempt."""
    deref = tracer.begin("dereference", start=started, url=url, depth=depth)
    fetch = tracer.begin(
        "fetch", parent=deref, start=started, url=url, parent_url=parent_url or ""
    )
    tracer.add(
        "attempt", started, finished, parent=fetch, url=url, status=status, attempt=1, size=size
    )
    tracer.end(fetch, end=finished)
    tracer.end(deref, end=finished)


def make_trace():
    tracer = Tracer()
    record(tracer, "https://h/pods/1/profile/card", 200, 0.0, 0.01, 500, None, depth=0)
    record(tracer, "https://h/pods/1/", 200, 0.01, 0.02, 300, "https://h/pods/1/profile/card", depth=1)
    record(tracer, "https://h/pods/1/posts/", 200, 0.02, 0.03, 200, "https://h/pods/1/", depth=2)
    record(
        tracer, "https://h/pods/1/posts/2010-10-12", 200, 0.03, 0.05, 800,
        "https://h/pods/1/posts/", depth=3,
    )
    record(tracer, "https://h/missing", 404, 0.03, 0.04, 20, "https://h/pods/1/", depth=2)
    return tracer


class TestBuildWaterfall:
    def test_summary_metrics(self):
        waterfall = build_waterfall(make_trace())
        assert waterfall.request_count == 5
        assert waterfall.max_depth == 3
        assert waterfall.origins == 1
        assert waterfall.total_bytes == 1820
        assert waterfall.max_parallelism == 2  # 404 overlaps the post fetch
        assert abs(waterfall.total_duration - 0.05) < 1e-9

    def test_rows_sorted_by_start(self):
        rows = build_waterfall(make_trace()).rows
        assert [r.start for r in rows] == sorted(r.start for r in rows)

    def test_short_names(self):
        rows = build_waterfall(make_trace()).rows
        names = {r.short_name for r in rows}
        assert "card" in names
        assert "posts/" in names
        assert "2010-10-12" in names

    def test_depths_follow_parent_chain(self):
        rows = {r.url: r for r in build_waterfall(make_trace()).rows}
        assert rows["https://h/pods/1/profile/card"].depth == 0
        assert rows["https://h/pods/1/profile/card"].parent_url is None
        assert rows["https://h/pods/1/posts/2010-10-12"].depth == 3
        assert rows["https://h/pods/1/posts/2010-10-12"].parent_url == "https://h/pods/1/posts/"

    def test_empty_log(self):
        waterfall = build_waterfall(Tracer())
        assert waterfall.request_count == 0
        assert render_waterfall(waterfall) == "(no requests)\n"


class TestRenderWaterfall:
    def test_render_contains_bars_and_totals(self):
        text = render_waterfall(build_waterfall(make_trace()))
        assert "█" in text
        assert "total: 5 requests" in text
        assert "404" in text

    def test_row_cap(self):
        tracer = Tracer()
        for i in range(50):
            record(tracer, f"https://h/{i}", 200, i * 0.01, i * 0.01 + 0.005, 10, None)
        text = render_waterfall(build_waterfall(tracer), max_rows=10)
        assert "and 40 more requests" in text
