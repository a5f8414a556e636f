"""Command-line SPARQL link-traversal client (paper Fig. 2).

Mirrors ``comunica-sparql-link-traversal-solid``: takes seed URLs and a
SPARQL query, runs traversal-based execution, and prints one JSON object
per result as results stream in::

    repro-sparql-ltqp --simulate 0.02 --discover 6.5
    repro-sparql-ltqp --simulate 0.02 SEED_URL "SELECT ..." --lenient
    repro-sparql-ltqp --simulate 0.02 --discover 1.5 --waterfall

``repro-sparql-ltqp serve`` instead starts the long-lived
:class:`~repro.service.QueryService` behind the demo web UI and a real
SPARQL-protocol endpoint (see :func:`serve_main`)::

    repro-sparql-ltqp serve --simulate 0.02 --port 8765

``repro-sparql-ltqp watch`` runs a *standing* query: the initial
traversal results stream out as ``+1`` events, then each SPARQL Update
from ``--updates FILE`` (one JSON object per line: ``{"url": ...,
"update": ...}``) is applied to its pod document and the signed result
changes print as they happen (see :func:`watch_main`)::

    repro-sparql-ltqp watch --discover 1.5 --updates edits.jsonl

Since the session has no network, queries run against a simulated
SolidBench environment (``--simulate SCALE``); the engine itself is
transport-agnostic and would run unchanged against real pods.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import Optional

import json
import math

from .bench.waterfall import build_waterfall, render_waterfall
from .obs import Tracer, render_trace_summary, write_chrome_trace
from .ltqp.engine import EngineConfig, TraversalPolicy
from .ltqp.guided import SubwebSpecification
from .net.faults import FaultPlan
from .net.latency import NoLatency, SeededJitterLatency
from .net.resilience import NetworkPolicy
from .sparql.parser import parse_query
from .sparql.results import binding_to_cli_line
from .ltqp.links import QUEUE_POLICIES
from .solidbench.config import SolidBenchConfig
from .solidbench.queries import discover_query
from .solidbench.universe import build_universe

__all__ = [
    "main",
    "build_arg_parser",
    "serve_main",
    "build_serve_arg_parser",
    "watch_main",
    "build_watch_arg_parser",
]


def _add_universe_args(parser: argparse.ArgumentParser) -> None:
    """The simulated environment every command runs against."""
    parser.add_argument(
        "--simulate",
        type=float,
        default=0.02,
        metavar="SCALE",
        help="SolidBench universe scale (default 0.02 ≈ 31 pods)",
    )
    parser.add_argument("--bench-seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--no-latency", action="store_true", help="disable simulated network latency"
    )


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    """What to ask: seeds + query text, or a predefined Discover query."""
    parser.add_argument(
        "seeds", nargs="*", help="seed URLs followed by the SPARQL query text"
    )
    parser.add_argument(
        "--query", help="SPARQL query text (alternative to trailing positional)"
    )
    parser.add_argument(
        "--discover",
        metavar="T.V",
        help="use a predefined SolidBench Discover query, e.g. 1.5 or 8.5",
    )


def _subweb_file(path: str) -> SubwebSpecification:
    """``--subweb PATH``, read once where the arguments are parsed."""
    try:
        return SubwebSpecification.from_file(path)
    except (OSError, ValueError, KeyError) as error:
        raise argparse.ArgumentTypeError(f"cannot read subweb spec {path!r}: {error}") from None


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Queue discipline, guided traversal and the hardening budgets —
    applied to the one query ``main`` runs or to every query ``serve``
    answers (see :func:`_engine_config`)."""
    parser.add_argument(
        "--queue-policy",
        choices=sorted(QUEUE_POLICIES),
        default="fifo",
        help="link queue order, a score taken once per link: fifo = "
        "breadth-first (default), lifo = depth-first, priority = "
        "shallowest-link-first, fair = an origin's n-th link before any "
        "origin's later ones (starvation-resistant), guided = by provenance, "
        "links from the query's predicates promoted",
    )
    parser.add_argument(
        "--subweb",
        metavar="PATH",
        type=_subweb_file,
        help="subweb-specification JSON file scoping traversal to declared "
        "sources (guided traversal; pruned links are reported in the "
        "completeness stats)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=0,
        metavar="N",
        help="drop links more than N hops from a seed (0 = unbounded)",
    )
    parser.add_argument(
        "--max-origin-derefs",
        type=int,
        default=0,
        metavar="N",
        help="per-origin dereference budget per query: refuse further links "
        "from an origin after N documents (0 = unbounded)",
    )
    parser.add_argument(
        "--max-doc-bytes",
        type=int,
        default=0,
        metavar="B",
        help="per-document size cap in bytes: abort transfers and refuse "
        "parses over B (0 = unbounded)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sparql-ltqp",
        description="Link-traversal SPARQL querying over (simulated) Solid pods",
    )
    _add_query_args(parser)
    _add_universe_args(parser)
    _add_engine_args(parser)
    parser.add_argument(
        "--idp",
        default="void",
        help="identity provider: 'void' for anonymous, or a person index to log in as",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        default=True,
        help="ignore fetch/parse errors (the default; see --strict)",
    )
    parser.add_argument(
        "--strict",
        action="store_false",
        dest="lenient",
        help="raise on fetch/parse errors instead of skipping documents",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject transient 503 faults on fraction P of URLs (deterministic)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=42, help="seed for the injected fault plan"
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="disable retries/backoff/circuit breaking (the pre-resilience client)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-request timeout in seconds (default from NetworkPolicy)",
    )
    parser.add_argument("--waterfall", action="store_true", help="print the resource waterfall")
    parser.add_argument("--stats", action="store_true", help="print execution statistics")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a span trace and write Chrome trace-event JSON to PATH "
        "(open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--trace-summary",
        action="store_true",
        help="print a flamegraph-style text summary of the recorded trace",
    )
    parser.add_argument("--limit", type=int, default=0, help="stop after N results (0 = all)")
    parser.add_argument(
        "--format",
        choices=["cli", "json", "xml", "csv", "tsv"],
        default="cli",
        help="result format: cli = streaming JSON lines (Fig. 2); others buffer",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan (algebra, join order, extractors) and exit",
    )
    return parser


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sparql-ltqp serve",
        description="Host the demo web UI and a SPARQL endpoint over one "
        "long-lived QueryService with shared cross-query caches",
    )
    _add_universe_args(parser)
    _add_engine_args(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="queries traversing at once; more wait in the admission queue",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=32,
        help="admission queue length; past it submissions get a 503",
    )
    parser.add_argument(
        "--max-documents",
        type=int,
        default=0,
        metavar="N",
        help="default per-query link budget (0 = unbounded)",
    )
    parser.add_argument(
        "--max-duration",
        type=float,
        default=0.0,
        metavar="S",
        help="default per-query time budget in seconds (0 = unbounded)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the service over N worker processes (1 = in-process); "
        "each worker owns its own caches and document store",
    )
    parser.add_argument(
        "--routing",
        choices=["query", "origin"],
        default="query",
        help="shard routing key: 'query' spreads distinct queries, "
        "'origin' pins queries to the shard owning their seed's pod",
    )
    parser.add_argument(
        "--store-path",
        default=None,
        metavar="PATH",
        help="persist the HTTP cache and parsed-document store to PATH "
        "(a SQLite file; with --workers N, a directory holding one file "
        "per shard); restarting against the same path starts warm",
    )
    return parser


def build_watch_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sparql-ltqp watch",
        description="Run a standing (live) query: print initial results as "
        "+1 events, then signed result changes as pod documents change",
    )
    _add_query_args(parser)
    _add_universe_args(parser)
    parser.add_argument(
        "--updates",
        metavar="FILE",
        help="JSON-lines file of edits to apply, one {\"url\": ..., "
        "\"update\": ...} object per line ('-' reads stdin); each update "
        "is PATCHed to its pod owner-authenticated and the resulting "
        "signed events print before the next edit applies",
    )
    return parser


def _resolve_query(args, universe) -> Optional[tuple[str, list[str]]]:
    """Query text and seeds from ``--discover``, ``--query`` or the
    trailing positional; ``None`` (after the error line) without a query."""
    if args.discover:
        template_text, _, variant_text = args.discover.partition(".")
        named = discover_query(universe, int(template_text), int(variant_text or "1"))
        print(f"# {named.name}: {named.description}", file=sys.stderr)
        return named.text, list(named.seeds)
    positional = list(args.seeds)
    query_text = args.query
    if query_text is None:
        if not positional:
            print("error: no query given (use --discover or pass a query)", file=sys.stderr)
            return None
        query_text = positional.pop()
    return query_text, positional


def _latency(args):
    return NoLatency() if args.no_latency else SeededJitterLatency(seed=args.bench_seed)


def watch_main(argv: Optional[list[str]] = None) -> int:
    """``repro-sparql-ltqp watch``: one standing query over the simulation.

    Change flow is the full live path, through the same
    :class:`~repro.service.QueryService` ``serve`` hosts: the edit is a
    real owner-authenticated PATCH against the simulated Solid server
    (:meth:`~repro.service.QueryService.apply_update`), whose change
    listener notifies the standing query if it reads the document; the
    drain re-dereferences the changed document (conditional request),
    diffs it against what the growing source holds of it, and pushes the
    signed delta through the retained pipeline.
    """
    from .service import QueryService, SharedResources

    args = build_watch_arg_parser().parse_args(argv)
    universe = build_universe(SolidBenchConfig(scale=args.simulate, seed=args.bench_seed))
    resolved = _resolve_query(args, universe)
    if resolved is None:
        return 2
    query_text, seeds = resolved
    variables = parse_query(query_text).variables()

    def emit(events) -> None:
        for event in events:
            sign = f"+{event.delta}" if event.delta > 0 else str(event.delta)
            line = f"{sign} {binding_to_cli_line(event.binding, variables)}"
            if event.url:
                line += f"  # {event.url}"
            print(line, flush=True)

    edits: list[dict] = []
    if args.updates:
        stream = sys.stdin if args.updates == "-" else open(args.updates)
        with stream:
            for raw in stream:
                raw = raw.strip()
                if raw:
                    edits.append(json.loads(raw))

    async def run() -> int:
        service = QueryService(
            SharedResources.for_universe(universe, latency=_latency(args))
        )
        subscription = await service.subscribe(query_text, seeds=seeds or None)
        events = subscription.events
        emit(events)
        print(f"# {len(events)} initial results; watching", file=sys.stderr)
        for edit in edits:
            seen = len(events)
            try:
                await service.apply_update(edit["url"], edit["update"])
            except RuntimeError as error:
                print(f"# {error}", file=sys.stderr)
                continue
            emit(events[seen:])
        await subscription.close()
        size = sum(subscription.current_results().values())
        print(
            f"# {len(edits)} edits applied; {size} current results "
            f"({len(events)} events total)",
            file=sys.stderr,
        )
        await service.stop()
        return 0

    return asyncio.run(run())


def _engine_config(
    args, network: Optional[NetworkPolicy] = None, **traversal
) -> EngineConfig:
    """The :class:`EngineConfig` the :func:`_add_engine_args` flags spell,
    for a stack builder to split (``universe.engine``, ``ShardSpec``).

    ``--max-doc-bytes`` installs the same bound on both sides of the
    dereference: the network client aborts oversized transfers
    (``max_response_bytes``) and the dereferencer refuses oversized
    bodies arriving from cache or store (``max_parse_bytes``).
    """
    config = EngineConfig(
        traversal=TraversalPolicy(
            queue_policy=args.queue_policy,
            max_depth=args.max_depth,
            max_origin_derefs=args.max_origin_derefs,
            subweb=args.subweb,
            **traversal,
        ),
        network=network if network is not None else NetworkPolicy(),
    )
    if args.max_doc_bytes:
        config.network.max_response_bytes = args.max_doc_bytes
        config.traversal.max_parse_bytes = args.max_doc_bytes
    return config


def build_service_stack(args):
    """Wire universe → service stack → host → web UI.

    Returns the (unstarted) :class:`~repro.webui.DemoServer` whose
    :class:`~repro.service.ServiceHost` is already running.  Split from
    :func:`serve_main` so tests can drive the stack without blocking.
    The flags become one :class:`~repro.service.ShardSpec`; ``--workers``
    only picks who builds it — every worker process, or this one.
    """
    from .service import ServiceHost, ShardedQueryService, ShardSpec
    from .webui import DemoServer

    config = SolidBenchConfig(scale=args.simulate, seed=args.bench_seed)
    universe = build_universe(config)
    spec = ShardSpec(
        config=config,
        latency=_latency(args),
        engine=_engine_config(
            args, max_documents=args.max_documents, max_duration=args.max_duration
        ),
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
        store_path=args.store_path,
    )
    if args.workers > 1:
        service = ShardedQueryService(spec, workers=args.workers, routing=args.routing)
    else:
        service = spec.build(universe)
    host = ServiceHost(service).start()
    return DemoServer(universe, host=args.host, port=args.port, service=host)


def serve_main(argv: Optional[list[str]] = None) -> int:
    """``repro-sparql-ltqp serve``: one service behind UI + endpoint.

    SIGTERM (and Ctrl-C) trigger a *graceful* shutdown: stop accepting
    HTTP, drain in-flight queries for a few seconds, and report whatever
    was still running when the deadline hit.
    """
    import signal
    import threading

    args = build_serve_arg_parser().parse_args(argv)
    server = build_service_stack(args)
    server.start()
    print(f"Demo UI running at {server.url} — Ctrl-C to stop", file=sys.stderr)
    print(
        f"SPARQL endpoint at {server.url}sparql — "
        f"status at {server.url}status.json",
        file=sys.stderr,
    )
    if args.workers > 1:
        print(
            f"Sharded over {args.workers} workers ({args.routing} routing)",
            file=sys.stderr,
        )
    if args.store_path:
        print(f"Persistent store at {args.store_path}", file=sys.stderr)
    shutdown = threading.Event()

    def _on_sigterm(signum, frame):  # noqa: ARG001 — signal handler shape
        print("SIGTERM received; draining...", file=sys.stderr)
        shutdown.set()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        shutdown.wait()
    except KeyboardInterrupt:
        print("Interrupted; draining...", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
        pending = server.service_host.stop()
        if pending:
            print(
                f"# {len(pending)} queries still in flight at shutdown:",
                file=sys.stderr,
            )
            for snapshot in pending:
                print(f"#   {json.dumps(snapshot)}", file=sys.stderr)
        else:
            print("# drained cleanly", file=sys.stderr)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "watch":
        return watch_main(argv[1:])
    args = build_arg_parser().parse_args(argv)

    universe = build_universe(
        SolidBenchConfig(scale=args.simulate, seed=args.bench_seed)
    )
    resolved = _resolve_query(args, universe)
    if resolved is None:
        return 2
    query_text, seeds = resolved

    auth_headers: Optional[dict[str, str]] = None
    if args.idp != "void":
        person_index = int(args.idp)
        session = universe.idp.login(universe.webid(person_index))
        auth_headers = session.headers
        print(f"# logged in as {session.webid}", file=sys.stderr)

    if args.fault_rate > 0:
        universe.internet.install_fault_plan(
            FaultPlan.transient(rate=args.fault_rate, seed=args.fault_seed)
        )
        print(
            f"# fault injection: transient 503s on {args.fault_rate:.0%} of URLs "
            f"(seed {args.fault_seed})",
            file=sys.stderr,
        )

    network = NetworkPolicy.no_retry() if args.no_retry else NetworkPolicy()
    if args.timeout is not None:
        network.request_timeout = args.timeout
    engine = universe.engine(
        config=_engine_config(args, network=network),
        latency=_latency(args),
        auth_headers=auth_headers,
        lenient=args.lenient,
    )

    query = parse_query(query_text)
    variables = query.variables()

    # The waterfall and its footer (--stats) are trace-driven: any of these
    # flags turns tracing on for this run (the engine is a strict no-op
    # when tracer is None).
    tracer: Optional[Tracer] = None
    if args.trace or args.trace_summary or args.waterfall or args.stats:
        tracer = Tracer()

    def emit_observability(execution) -> None:
        if tracer is not None and args.waterfall:
            print(
                render_waterfall(build_waterfall(tracer), show_via=True),
                file=sys.stderr,
            )
        if tracer is not None and args.trace:
            events = write_chrome_trace(tracer, args.trace)
            print(f"# trace: {events} events -> {args.trace}", file=sys.stderr)
        if tracer is not None and args.trace_summary:
            print(render_trace_summary(tracer), file=sys.stderr)
        if args.stats:
            _print_stats_footer(build_waterfall(tracer), execution.stats)

    if args.explain:
        from .ltqp.explain import explain_plan

        print(explain_plan(query, seeds=seeds, extractors=engine.extractors))
        return 0

    if args.format != "cli":
        from .sparql.results import (
            results_to_csv,
            results_to_sparql_json,
            results_to_sparql_xml,
            results_to_tsv,
        )

        execution = engine.query(query, seeds=seeds or None, tracer=tracer).run_sync()
        bindings = execution.bindings
        if args.limit:
            bindings = bindings[: args.limit]
        renderers = {
            "json": results_to_sparql_json,
            "xml": results_to_sparql_xml,
            "csv": results_to_csv,
            "tsv": results_to_tsv,
        }
        print(renderers[args.format](variables, bindings), end="")
        print(f"# {len(bindings)} results", file=sys.stderr)
        emit_observability(execution)
        return 0

    execution = engine.query(query, seeds=seeds or None, tracer=tracer)

    async def run() -> int:
        count = 0
        start = time.monotonic()
        async for binding in execution:
            print(binding_to_cli_line(binding, variables), flush=True)
            count += 1
            if args.limit and count >= args.limit:
                await execution.cancel()
                break
        elapsed = time.monotonic() - start
        print(f"# {count} results in {elapsed:.2f}s", file=sys.stderr)
        return count

    asyncio.run(run())

    emit_observability(execution)
    return 0


def _print_stats_footer(waterfall, stats) -> None:
    """The ``--stats`` footer: the waterfall's summary, the latency of its
    network rows, the deepest the link queue got, and the run's own
    statistics — every number read from a book the run already keeps."""
    summary = waterfall.summary()
    print(
        f"# requests={summary['requests']} bytes={summary['total_bytes']} "
        f"depth={summary['max_depth']} parallelism={summary['max_parallelism']} "
        f"retries={summary['retries']}",
        file=sys.stderr,
    )
    latencies = waterfall.network_latencies()
    queue_max = max((sample.queue_length for sample in stats.queue_samples), default=0)
    print(
        f"# network={len(latencies)} latency_p50={_nearest_rank(latencies, 0.5):.4f}s "
        f"latency_p95={_nearest_rank(latencies, 0.95):.4f}s queue_max={queue_max}",
        file=sys.stderr,
    )
    print(
        f"# triples discovered={stats.triples_discovered} stored={stats.triples_stored}",
        file=sys.stderr,
    )
    print(f"# completeness: {json.dumps(stats.completeness())}", file=sys.stderr)


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of an ascending list by nearest rank; 0.0 when empty."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
