"""Web-based demonstration interface (paper Fig. 3, §4.1).

The paper demonstrates the engine through a browser page with a query
editor, a dropdown of the 37 Discover queries, and a streaming result
list.  This module reproduces that experience locally:

* :func:`render_page` produces the static HTML page (editor + dropdown +
  results pane), and
* :class:`DemoServer` serves it plus a ``/execute`` endpoint that runs the
  engine against the simulated pods, streaming results as NDJSON — the
  same incremental display the demo's Web worker provides.

By default every ``/execute`` builds a fresh client and engine (the
paper's one-shot demo).  Pass a started
:class:`~repro.service.ServiceHost` to run in **service mode** instead:
executions go through the shared :class:`~repro.service.QueryService`
(so repeat queries hit the HTTP cache and parsed-document store), the
SPARQL protocol is exposed over real HTTP at ``/sparql``, and
``/status.json`` reports live service statistics.

Run ``python -m repro.webui`` and open the printed URL.
"""

from __future__ import annotations

import asyncio
import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .net.latency import SeededJitterLatency
from .net.message import Request
from .obs import Tracer, chrome_trace_events
from .sparql.parser import SparqlParseError, parse_query
from .sparql.results import binding_to_cli_line
from .solidbench.config import SolidBenchConfig
from .solidbench.queries import discover_suite
from .solidbench.universe import SolidBenchUniverse, build_universe

__all__ = ["render_page", "DemoServer"]

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


class DemoServer:
    """Serves the demo page and executes queries over the simulation."""

    def __init__(
        self,
        universe: Optional[SolidBenchUniverse] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        service=None,
    ) -> None:
        self._universe = universe if universe is not None else build_universe(
            SolidBenchConfig(scale=0.02)
        )
        self._host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._page = render_page(self._universe)
        #: Tracer of the most recent ``/execute`` run, served at /trace.json.
        self._last_trace: Optional[Tracer] = None
        #: A started :class:`~repro.service.ServiceHost` (service mode) or
        #: ``None`` (one-shot mode, the paper's original demo).
        self._service_host = service
        self._sparql_app = None
        #: Why ``/execute`` records no trace, when it cannot: only an
        #: in-process service writes into the caller's tracer.
        self._untraced: Optional[str] = None
        if service is not None:
            from .service import ServiceSparqlApp

            self._sparql_app = ServiceSparqlApp(service.service)
            if service.statistics()["mode"] != "single":
                self._untraced = "tracing is worker-local in sharded mode"

    @property
    def universe(self) -> SolidBenchUniverse:
        return self._universe

    @property
    def service_host(self):
        return self._service_host

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("server is not running")
        return f"http://{self._host}:{self._server.server_address[1]}/"

    def start(self) -> "DemoServer":
        demo = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args) -> None:
                pass

            def do_GET(self) -> None:
                parts = urlsplit(self.path)
                if parts.path == "/":
                    body = demo._page.encode("utf-8")
                    self.send_response(200)
                    self.send_header("content-type", "text/html; charset=utf-8")
                    self.send_header("content-length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                if parts.path == "/execute":
                    query_text = parse_qs(parts.query).get("query", [""])[0]
                    demo._execute(self, query_text)
                    return
                if parts.path == "/trace.json":
                    demo._serve_trace(self)
                    return
                if parts.path == "/status.json":
                    demo._serve_status(self)
                    return
                if demo._sparql_app is not None and parts.path in (
                    "/sparql",
                    "/service/status",
                    "/subscribe",
                ):
                    demo._serve_sparql(self)
                    return
                self.send_response(404)
                self.end_headers()

            def do_POST(self) -> None:
                parts = urlsplit(self.path)
                if demo._sparql_app is not None and parts.path in (
                    "/sparql",
                    "/update",
                ):
                    demo._serve_sparql(self)
                    return
                self.send_response(404)
                self.end_headers()

        self._server = ThreadingHTTPServer((self._host, self._requested_port), _Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def _execute(self, handler: BaseHTTPRequestHandler, query_text: str) -> None:
        try:
            query = parse_query(query_text)
        except SparqlParseError as error:
            body = json.dumps({"error": str(error)}).encode("utf-8")
            handler.send_response(400)
            handler.send_header("content-type", "application/json")
            handler.send_header("content-length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        tracer = Tracer() if self._untraced is None else None
        if self._service_host is not None:
            # Service mode: the shared engine, caches, and document store.
            traced = {"tracer": tracer} if tracer is not None else {}
            results = self._service_host.execute(query, **traced).results
        else:
            # One-shot mode: a fresh bare stack per request.
            engine = self._universe.engine(latency=SeededJitterLatency())
            results = engine.query(query, tracer=tracer).run_sync().results
        self._last_trace = tracer
        variables = query.variables()
        handler.send_response(200)
        handler.send_header("content-type", "application/x-ndjson")
        handler.end_headers()
        for timed in results:
            line = binding_to_cli_line(timed.binding, variables) + "\n"
            handler.wfile.write(line.encode("utf-8"))
            handler.wfile.flush()

    def _serve_status(self, handler: BaseHTTPRequestHandler) -> None:
        """The schema-2 status document (or the one-shot marker)."""
        from .service.status import STATUS_SCHEMA_VERSION, build_status

        if self._service_host is None:
            document = {
                "schema": STATUS_SCHEMA_VERSION,
                "mode": "one-shot",
                "service": None,
            }
        else:
            document = build_status(self._service_host.service)
        body = json.dumps(document).encode("utf-8")
        handler.send_response(200)
        handler.send_header("content-type", "application/json")
        handler.send_header("content-length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _serve_sparql(self, handler: BaseHTTPRequestHandler) -> None:
        """Bridge real HTTP to the simulated SPARQL-protocol app."""
        length = int(handler.headers.get("content-length") or 0)
        request = Request(
            handler.command,
            f"http://service.local{handler.path}",
            {k.lower(): v for k, v in handler.headers.items()},
            handler.rfile.read(length) if length else b"",
        )
        future = asyncio.run_coroutine_threadsafe(
            self._sparql_app.handle(request), self._service_host.loop
        )
        response = future.result()
        handler.send_response(response.status)
        for name, value in response.headers.items():
            if name.lower() != "content-length":
                handler.send_header(name, value)
        handler.send_header("content-length", str(len(response.body)))
        handler.end_headers()
        handler.wfile.write(response.body)

    def _serve_trace(self, handler: BaseHTTPRequestHandler) -> None:
        """Chrome trace-event JSON for the most recent execution."""
        tracer = self._last_trace
        if tracer is None:
            reason = self._untraced or "no execution traced yet"
            body = json.dumps({"error": reason}).encode("utf-8")
            handler.send_response(404)
        else:
            body = json.dumps(
                {"traceEvents": chrome_trace_events(tracer), "displayTimeUnit": "ms"}
            ).encode("utf-8")
            handler.send_response(200)
        handler.send_header("content-type", "application/json")
        handler.send_header("content-length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DemoServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main() -> int:
    server = DemoServer(port=8765)
    server.start()
    print(f"Demo UI running at {server.url} — Ctrl-C to stop")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
