"""Web-based demonstration interface (paper Fig. 3, §4.1).

The paper demonstrates the engine through a browser page with a query
editor, a dropdown of the 37 Discover queries, and a streaming result
list.  This module reproduces that experience locally:

* :func:`render_page` produces the static HTML page (editor + dropdown +
  results pane),
* :class:`DemoApp` answers every route of the demo over one
  :class:`~repro.service.QueryService` — the page, ``/execute`` (result
  lines as NDJSON, the same incremental display the demo's Web worker
  provides), ``/trace.json``, ``/status.json`` — beside the service's
  protocol routes (``/sparql``, ``/update``, ``/subscribe``,
  ``/service/status``), so repeat queries hit the shared HTTP cache and
  parsed-document store, and
* :class:`DemoServer` puts that app on the socket bridge
  (:class:`~repro.net.RealHttpServer`).

``python -m repro.webui`` is ``repro-sparql-ltqp serve`` with its
defaults; open the printed URL.
"""

from __future__ import annotations

import asyncio
import html
import json
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .net.message import Request, Response
from .net.realserver import RealHttpServer
from .obs import Tracer, chrome_trace_events
from .service import ServiceHost, ServiceSparqlApp, ShardSpec
from .service.protocol import json_response
from .sparql.parser import SparqlParseError, parse_query
from .sparql.results import binding_to_cli_line
from .solidbench.queries import discover_suite
from .solidbench.universe import SolidBenchUniverse

__all__ = ["render_page", "DemoApp", "DemoServer"]

_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Comunica-style Link Traversal — Python reproduction</title>
<style>
 body {{ font-family: sans-serif; margin: 2em; max-width: 60em; }}
 textarea {{ width: 100%; height: 14em; font-family: monospace; }}
 select, button {{ font-size: 1em; margin: 0.3em 0; }}
 #results {{ border: 1px solid #ccc; padding: 0.5em; height: 20em; overflow-y: scroll;
            font-family: monospace; white-space: pre; }}
 .meta {{ color: #666; }}
 #timeline {{ border: 1px solid #ccc; margin-top: 0.5em; padding: 0.5em;
             height: 16em; overflow-y: scroll; position: relative;
             font-size: 0.7em; font-family: monospace; }}
 .tl-row {{ position: relative; height: 1.1em; }}
 .tl-bar {{ position: absolute; height: 0.9em; background: #4a90d9;
           border-radius: 2px; min-width: 2px; }}
 .tl-bar.cache {{ background: #9b9b9b; }}
 .tl-bar.retry {{ background: #d98b4a; }}
 .tl-bar.error {{ background: #d9534f; }}
 .tl-label {{ position: absolute; left: 0; white-space: nowrap; color: #333; }}
 #first-result-marker {{ position: absolute; top: 0; bottom: 0; width: 0;
                        border-left: 2px dashed #2ca02c; }}
 #live-events {{ border: 1px solid #ccc; padding: 0.5em; height: 10em;
                overflow-y: scroll; font-family: monospace; white-space: pre;
                margin: 0.5em 0; }}
 #live-update {{ width: 100%; font-family: monospace; }}
 .live-add {{ color: #2ca02c; }}
 .live-del {{ color: #d9534f; }}
</style>
</head>
<body>
<h1>Link Traversal SPARQL over simulated Solid pods</h1>
<p class="meta">Using solid-default config · {pod_count} simulated pods</p>
<label>Type or pick a query:
<select id="preset" onchange="pick()">{options}</select></label>
<textarea id="query">{default_query}</textarea>
<br><button onclick="execute()">Execute query</button>
<span id="status" class="meta"></span>
<h2>Query results:</h2>
<div id="results"></div>
<h2>Request timeline:</h2>
<p class="meta">Fetch spans from the execution trace — blue = network,
grey = cache hit, orange = retry, red = error; dashed green line marks the
first streamed result. Full trace at <a href="/trace.json">/trace.json</a>
(Chrome trace-event format).</p>
<div id="timeline"></div>
<h2>Live query (service mode):</h2>
<p class="meta">Subscribe turns the query above into a <em>standing</em>
query: the pane below streams signed result changes (<span class="live-add">+</span>
additions, <span class="live-del">&minus;</span> retractions) as pod documents
change. Apply a SPARQL Update to a document URL to see maintenance live.</p>
<button id="live-subscribe" onclick="liveSubscribe()">Subscribe</button>
<button id="live-close" onclick="liveClose()" disabled>Close subscription</button>
<span id="live-status" class="meta"></span>
<div id="live-events"></div>
<label>Document URL: <input id="live-url" type="text" size="60"></label><br>
<textarea id="live-update" rows="4"
 placeholder="DELETE DATA {{ ... }} ; INSERT DATA {{ ... }}"></textarea><br>
<button onclick="liveUpdate()">Apply update</button>
<script>
const PRESETS = {presets_json};
function pick() {{
  const key = document.getElementById('preset').value;
  if (PRESETS[key]) document.getElementById('query').value = PRESETS[key];
}}
async function execute() {{
  const out = document.getElementById('results');
  const status = document.getElementById('status');
  out.textContent = '';
  status.textContent = 'running...';
  const started = performance.now();
  const response = await fetch('/execute?query=' + encodeURIComponent(
      document.getElementById('query').value));
  const reader = response.body.getReader();
  const decoder = new TextDecoder();
  let count = 0, buffer = '';
  while (true) {{
    const {{done, value}} = await reader.read();
    if (done) break;
    buffer += decoder.decode(value, {{stream: true}});
    const lines = buffer.split('\\n');
    buffer = lines.pop();
    for (const line of lines) {{
      if (!line) continue;
      out.textContent += line + '\\n';
      count += 1;
      status.textContent = count + ' results in ' +
          ((performance.now() - started) / 1000).toFixed(1) + 's';
    }}
  }}
  status.textContent = count + ' results in ' +
      ((performance.now() - started) / 1000).toFixed(1) + 's (done)';
  await renderTimeline();
}}
async function renderTimeline() {{
  const pane = document.getElementById('timeline');
  pane.textContent = '';
  let trace;
  try {{
    trace = await (await fetch('/trace.json')).json();
  }} catch (err) {{
    pane.textContent = '(no trace available)';
    return;
  }}
  if (trace.error) {{ pane.textContent = '(' + trace.error + ')'; return; }}
  const spans = trace.traceEvents.filter(e => e.ph === 'X' && e.name === 'attempt');
  if (!spans.length) {{ pane.textContent = '(no requests recorded)'; return; }}
  const t0 = Math.min(...spans.map(e => e.ts));
  const t1 = Math.max(...spans.map(e => e.ts + (e.dur || 0)));
  const total = Math.max(t1 - t0, 1);
  const labelWidth = 28;  // percent reserved for URL labels
  spans.sort((a, b) => a.ts - b.ts);
  for (const e of spans.slice(0, 400)) {{
    const row = document.createElement('div');
    row.className = 'tl-row';
    const label = document.createElement('span');
    label.className = 'tl-label';
    const url = (e.args && e.args.url) || '';
    label.textContent = url.split('/').filter(Boolean).slice(-1)[0] || url;
    label.title = url;
    const bar = document.createElement('div');
    bar.className = 'tl-bar';
    if (e.args && e.args.from_cache) bar.className += ' cache';
    else if (e.args && e.args.attempt > 1) bar.className += ' retry';
    if (e.args && e.args.error) bar.className += ' error';
    const left = labelWidth + ((e.ts - t0) / total) * (100 - labelWidth);
    const width = Math.max(((e.dur || 0) / total) * (100 - labelWidth), 0.15);
    bar.style.left = left + '%';
    bar.style.width = width + '%';
    bar.title = url + ' — ' + ((e.dur || 0) / 1000).toFixed(1) + ' ms' +
        (e.args && e.args.from_cache ? ' (cache)' : '');
    row.appendChild(label);
    row.appendChild(bar);
    pane.appendChild(row);
  }}
  const first = trace.traceEvents.find(e => e.ph === 'i' && e.name === 'first-result');
  if (first) {{
    const marker = document.createElement('div');
    marker.id = 'first-result-marker';
    marker.style.left = (labelWidth + ((first.ts - t0) / total) * (100 - labelWidth)) + '%';
    marker.title = 'first result';
    pane.appendChild(marker);
  }}
  if (spans.length > 400) {{
    const more = document.createElement('div');
    more.className = 'meta';
    more.textContent = '... and ' + (spans.length - 400) + ' more requests';
    pane.appendChild(more);
  }}
}}
let liveId = null, liveNext = 0, livePolling = false;
function liveRender(events) {{
  const pane = document.getElementById('live-events');
  for (const e of events) {{
    const row = document.createElement('div');
    const sign = document.createElement('span');
    sign.className = e.delta > 0 ? 'live-add' : 'live-del';
    sign.textContent = (e.delta > 0 ? '+' : '') + e.delta + ' ';
    row.appendChild(sign);
    const parts = Object.entries(e.binding).map(([k, v]) => '?' + k + '=' + v);
    row.appendChild(document.createTextNode(
        parts.join(' ') + (e.url ? '   [' + e.url.split('/').slice(-2).join('/') + ']' : '')));
    pane.appendChild(row);
  }}
  pane.scrollTop = pane.scrollHeight;
}}
async function liveSubscribe() {{
  const status = document.getElementById('live-status');
  document.getElementById('live-events').textContent = '';
  const query = document.getElementById('query').value;
  const response = await fetch('/subscribe?query=' + encodeURIComponent(query));
  if (!response.ok) {{
    status.textContent = 'subscribe failed: ' + await response.text();
    return;
  }}
  const opened = await response.json();
  liveId = opened.subscription;
  liveNext = opened.next;
  liveRender(opened.events);
  status.textContent = 'subscribed (' + liveId + ', ' +
      opened.events.length + ' initial results)';
  document.getElementById('live-subscribe').disabled = true;
  document.getElementById('live-close').disabled = false;
  livePolling = true;
  livePoll();
}}
async function livePoll() {{
  while (livePolling && liveId) {{
    let poll;
    try {{
      poll = await (await fetch('/subscribe?id=' + liveId +
          '&after=' + (liveNext - 1) + '&wait=5')).json();
    }} catch (err) {{ break; }}
    if (!livePolling) break;
    if (poll.events && poll.events.length) {{
      liveRender(poll.events);
      liveNext = poll.next;
    }}
    if (poll.closed) break;
  }}
}}
async function liveClose() {{
  livePolling = false;
  if (liveId) await fetch('/subscribe?id=' + liveId + '&close=1');
  liveId = null;
  document.getElementById('live-subscribe').disabled = false;
  document.getElementById('live-close').disabled = true;
  document.getElementById('live-status').textContent = 'closed';
}}
async function liveUpdate() {{
  const status = document.getElementById('live-status');
  const url = document.getElementById('live-url').value;
  const update = document.getElementById('live-update').value;
  if (!url || !update) {{
    status.textContent = 'need a document URL and an update';
    return;
  }}
  const response = await fetch('/update?url=' + encodeURIComponent(url),
      {{method: 'POST', body: update}});
  const text = await response.text();
  status.textContent = response.ok ? 'update applied: ' + text
                                   : 'update rejected: ' + text;
}}
</script>
</body>
</html>
"""


def render_page(universe: SolidBenchUniverse) -> str:
    """The static demo page with the 37 preset queries."""
    queries = discover_suite(universe)
    options = "".join(
        f'<option value="{query.name}">[SolidBench] {query.name}</option>'
        for query in queries
    )
    presets = {query.name: query.text for query in queries}
    return _PAGE_TEMPLATE.format(
        pod_count=universe.person_count,
        options=options,
        default_query=html.escape(queries[0].text),
        presets_json=json.dumps(presets),
    )


class DemoApp(ServiceSparqlApp):
    """Every route of the demo, over one running service.

    The page, ``/execute``, ``/trace.json`` and ``/status.json`` join the
    protocol routes in one routing table; ``/status.json`` is the
    ``/service/status`` handler under the demo's older name.  Each request
    runs on the host's event loop, where the service's admission control
    and shared caches live.
    """

    def __init__(self, universe: SolidBenchUniverse, host: ServiceHost) -> None:
        super().__init__(host.service)
        self._host = host
        self._page = render_page(universe).encode("utf-8")
        #: Tracer of the most recent ``/execute`` run, served at /trace.json.
        self._last_trace: Optional[Tracer] = None
        #: Why ``/execute`` records no trace, when it cannot: only an
        #: in-process service writes into the caller's tracer.
        self._untraced: Optional[str] = None
        if host.service.statistics()["mode"] != "single":
            self._untraced = "tracing is worker-local in sharded mode"
        self._routes.update(
            {
                "/": self._serve_page,
                "/execute": self._execute,
                "/trace.json": self._serve_trace,
                "/status.json": self._handle_status,
            }
        )

    async def handle(self, request: Request) -> Response:
        future = asyncio.run_coroutine_threadsafe(super().handle(request), self._host.loop)
        return await asyncio.wrap_future(future)

    async def _serve_page(self, request: Request) -> Response:
        return Response(200, {"content-type": "text/html; charset=utf-8"}, self._page)

    async def _execute(self, request: Request) -> Response:
        """The query's result lines, one JSON object each (NDJSON)."""
        query_text = parse_qs(urlsplit(request.url).query).get("query", [""])[0]
        try:
            query = parse_query(query_text)
        except SparqlParseError as error:
            return json_response({"error": str(error)}, 400)
        tracer = Tracer() if self._untraced is None else None
        traced = {"tracer": tracer} if tracer is not None else {}
        result = await self.service.run(query, **traced)
        self._last_trace = tracer
        variables = query.variables()
        lines = "".join(
            binding_to_cli_line(timed.binding, variables) + "\n" for timed in result.results
        )
        return Response(200, {"content-type": "application/x-ndjson"}, lines.encode("utf-8"))

    async def _serve_trace(self, request: Request) -> Response:
        """Chrome trace-event JSON for the most recent execution."""
        if self._last_trace is None:
            return json_response({"error": self._untraced or "no execution traced yet"}, 404)
        return json_response(
            {"traceEvents": chrome_trace_events(self._last_trace), "displayTimeUnit": "ms"}
        )


class DemoServer:
    """The demo's :class:`DemoApp` on the socket bridge.

    ``service`` is a started :class:`~repro.service.ServiceHost` the
    caller owns.  Without one the demo owns a host over the stack
    ``serve --workers 1`` builds with its defaults, started in
    :meth:`start` and stopped in :meth:`stop`.
    """

    def __init__(
        self,
        universe: SolidBenchUniverse,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[ServiceHost] = None,
    ) -> None:
        self._universe = universe
        self._owns_host = service is None
        if service is None:
            service = ServiceHost(ShardSpec(config=universe.config).build(universe))
        self._service_host = service
        self._bridge = RealHttpServer(DemoApp(universe, service), host, port)

    @property
    def universe(self) -> SolidBenchUniverse:
        return self._universe

    @property
    def service_host(self) -> ServiceHost:
        return self._service_host

    @property
    def url(self) -> str:
        return self._bridge.base_url + "/"

    def start(self) -> "DemoServer":
        if self._owns_host:
            self._service_host.start()
        self._bridge.start()
        return self

    def stop(self) -> None:
        self._bridge.stop()
        if self._owns_host:
            self._service_host.stop()

    def __enter__(self) -> "DemoServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


if __name__ == "__main__":
    from .cli import serve_main

    raise SystemExit(serve_main([]))
