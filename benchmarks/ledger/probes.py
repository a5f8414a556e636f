"""Layer probes: one timed loop per layer, over this universe's own data.

Each probe calls one layer's public function over documents, quads and
result rows of the universe the workloads run against (same seed, same
scale) for at least half a second — five slices of a tenth, the median
slice reported — and gives units of work per second.  A probe is the
before/after for a change to that layer alone; whether the change matters
is read from the end-to-end metrics.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import time

from repro.ltqp.extractors import build_query_context
from repro.ltqp.links import Link, QueuePolicyContext, build_queue, queue_factory_for
from repro.ltqp.pipeline import compile_pipeline
from repro.ltqp.stats import TimedResult
from repro.net import Request
from repro.rdf import Dataset
from repro.rdf.terms import intern_iri
from repro.rdf.turtle import parse_turtle
from repro.service import DocumentStore
from repro.service.docstore import decode_stored_document, encode_stored_document
from repro.service.wire import decode_results, encode_results
from repro.solidbench import SolidBenchConfig, build_universe, discover_query, discover_suite
from repro.sparql.eval import SnapshotEvaluator
from repro.sparql.parser import parse_query
from repro.storage import SqliteBackend

import measure
from workloads import WORK_DIR

#: Links pushed then popped per queue-discipline round.
QUEUE_LINKS = 10_000

#: Quads appended between two ``Pipeline.advance`` calls, as the engine's
#: micro-batching does.
DISPATCH_CHUNK = 200


def _each(items, work):
    """A ``sliced_rate`` step: the next item through ``work``, one unit."""
    cycle = itertools.cycle(items)

    def step() -> int:
        work(next(cycle))
        return 1

    return step


def _get_step(universe, urls):
    """GET the next 500 documents straight from their origin app."""
    cycle = itertools.cycle(urls)

    async def batch() -> int:
        for _ in range(500):
            await universe.internet.dispatch(Request("GET", next(cycle), {}, b""))
        return 500

    return lambda: asyncio.run(batch())


def _queue_step(policy: str, links, context):
    def step() -> int:
        queue = build_queue(queue_factory_for(policy), context)
        for link in links:
            queue.push(link)
        while not queue.empty:
            queue.pop()
        return len(links)

    return step


def _growing_dataset_step(quads, where=None):
    """Append the next chunk of quads (and advance a plan over them)."""
    state = {}

    def restart() -> None:
        state["dataset"] = Dataset()
        state["pipeline"] = compile_pipeline(where) if where is not None else None
        state["at"] = 0

    restart()

    def step() -> int:
        if state["at"] >= len(quads):
            restart()
        chunk = quads[state["at"] : state["at"] + DISPATCH_CHUNK]
        state["at"] += len(chunk)
        dataset = state["dataset"]
        for quad in chunk:
            dataset.add(quad)
        if state["pipeline"] is not None:
            state["pipeline"].advance(dataset)
        return len(chunk)

    return step


def run_probes(seed: int, scale: float, slice_seconds: float = 0.1) -> dict[str, float]:
    """Every probe metric, by name (the tests shorten ``slice_seconds``)."""

    def sliced_rate(step) -> float:
        return measure.sliced_rate(step, slice_seconds=slice_seconds)

    universe = build_universe(SolidBenchConfig(scale=scale, seed=seed))
    suite = discover_suite(universe)
    urls = [
        pod.document_url(path)
        for pod in universe.pods.values()
        for path in pod.document_paths()
    ]
    metrics: dict[str, float] = {}

    get_step = _get_step(universe, urls)
    for _ in range(0, len(urls), 500):
        get_step()  # the first GET of a document renders it; time the served ones
    metrics["solid.server.get_per_s"] = sliced_rate(get_step)

    documents = [
        (pod.document_url(path), pod.serialize_document(path))
        for pod in universe.pods.values()
        for path in pod.document_paths()
    ]
    cycle = itertools.cycle(documents)

    def parse_next() -> int:
        url, text = next(cycle)
        return len(parse_turtle(text, base_iri=url))

    metrics["rdf.turtle.triples_per_s"] = sliced_rate(parse_next)
    metrics["rdf.terms.intern_per_s"] = sliced_rate(_each(urls, intern_iri))
    metrics["sparql.parser.queries_per_s"] = sliced_rate(
        _each([query.text for query in suite], parse_query)
    )

    links = [
        Link(url=f"{urls[i % len(urls)]}?{i}", parent_url=urls[0], depth=1 + i % 4, via="match")
        for i in range(QUEUE_LINKS)
    ]
    discover_2 = parse_query(discover_query(universe, 2, 1).text)
    context = QueuePolicyContext(query=build_query_context(discover_2.where))
    for policy in ("fifo", "priority", "fair", "guided"):
        metrics[f"ltqp.links.push_pop_per_s.{policy}"] = sliced_rate(
            _queue_step(policy, links, context)
        )

    oracle = universe.oracle_dataset()
    quads = list(oracle.quads())
    metrics["ltqp.pipeline.dispatch_quads_per_s"] = sliced_rate(
        _growing_dataset_step(quads, discover_2.where)
    )
    metrics["rdf.dataset.append_quads_per_s"] = sliced_rate(_growing_dataset_step(quads))

    store = DocumentStore()
    stored = [
        store.put(pod.document_url(document.path), "probe", document.triples)
        for pod in universe.pods.values()
        for document in pod.documents()
    ]
    metrics["service.docstore.codec_docs_per_s"] = sliced_rate(
        _each(stored, lambda document: decode_stored_document(encode_stored_document(document)))
    )

    rows = [
        TimedResult(binding=binding, elapsed=0.0)
        for binding in SnapshotEvaluator(oracle).select(
            parse_query(discover_query(universe, 8, 1).text)
        )
    ]
    block = encode_results(rows)
    metrics["service.wire.encode_rows_per_s"] = sliced_rate(
        lambda: len(encode_results(rows)["rows"])
    )
    metrics["service.wire.decode_rows_per_s"] = sliced_rate(lambda: len(decode_results(block)))

    work = WORK_DIR / f"probe-{seed}-{time.time_ns()}"
    backend = SqliteBackend(str(work / "probe.sqlite"))
    try:
        encoded = [(document.url, encode_stored_document(document)) for document in stored]
        for url, raw in encoded:
            backend.put("documents", url, raw)
        backend.flush()
        metrics["storage.sqlite.put_per_s"] = sliced_rate(
            _each(encoded, lambda item: backend.put("documents", item[0], item[1]))
        )
        backend.flush()
        metrics["storage.sqlite.get_per_s"] = sliced_rate(
            _each(encoded, lambda item: backend.get("documents", item[0]))
        )
    finally:
        backend.close()
        shutil.rmtree(work, ignore_errors=True)
    return metrics
