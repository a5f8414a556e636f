"""The ledger's six workloads.

Every workload drives the program through its public entry points with
program defaults (``EngineConfig()``, fifo queue, default extractors);
the harness chooses only the latency model, the store sizes and the
inputs.  All inputs derive from ``seed``: it is the universe seed and,
through ``discover_suite``, selects the persons queried.

A workload is a fixed list of *ops* run in whole *passes* (closed loop:
each client task sends its next op only when the previous one has
answered — the CLI, web UI and service callers all wait for a reply).
Every op's answer is compared with the oracle multiset computed in
set-up; a mismatch, an exception, a refusal or an incomplete
``completeness()`` makes the op *failed*.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter
import random
import shutil
import time
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from repro.ltqp.stats import ExecutionStats
from repro.obs import Tracer
from repro.net import HttpCache, NoLatency, Request, RequestLog, SeededJitterLatency
from repro.rdf.namespaces import SNVOC
from repro.rdf.terms import Literal, Variable, intern_iri, term_to_ntriples
from repro.service import DocumentStore, QueryService, SharedResources
from repro.solidbench import SolidBenchConfig, build_universe, discover_suite
from repro.sparql.bindings import Binding
from repro.sparql.eval import SnapshotEvaluator
from repro.sparql.parser import parse_query
from repro.storage import SqliteBackend

from measure import HostSpeed, symmetric_difference_size

#: SolidBench scale of every workload: 31 pods / ~3.2k files / ~72k triples.
SCALE = 0.02

#: Scratch space for ``service_spill``'s SQLite file and the storage probes —
#: inside the benchmark's own directory, removed when the run ends.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: The repo's "realistic RTT" band (bench E6): 20-80 ms per document.
REALISTIC_RTT = dict(seed=9, min_rtt_seconds=0.02, max_rtt_seconds=0.08)


@dataclasses.dataclass(slots=True)
class Sample:
    """One timed op."""

    op: str
    wall_s: float
    ttfr_s: float
    failed: bool
    traced: bool
    started_at: float


class Workload:
    """Set-up, a warm-up op, whole passes of ops, and cumulative counters."""

    name = ""
    #: Concurrent closed-loop client tasks (never more than ``nproc`` = 2).
    clients = 1
    #: Passes run per second of ``--seconds``, calibrated on the 2-core host
    #: so a run measures for about that long.  Pass counts are a function of
    #: ``--seconds`` alone — never of measured speed — so the parent and a
    #: change do identical work.
    passes_per_second = 1 / 12

    def __init__(self, seed: int, scale: float = SCALE) -> None:
        self.seed = seed
        self.scale = scale
        #: Harness timers of the set-up stages, seconds.
        self.build_s = 0.0
        self.oracle_s = 0.0
        #: Cumulative counters (see :meth:`counters`).
        self.counts: dict[str, float] = {}
        self.mismatches: list[str] = []
        #: Correctness checks made beyond the per-op ones.
        self.checks = 0
        #: The two halves of each ``live_edits`` op, seconds.
        self.patch_s: list[float] = []
        self.drain_s: list[float] = []
        self.host = HostSpeed()

    # -- set-up ---------------------------------------------------------

    async def _build(self):
        """A fresh universe with its suite and oracle multisets."""
        self.host.mark()
        started = time.perf_counter()
        universe = build_universe(SolidBenchConfig(scale=self.scale, seed=self.seed))
        suite = discover_suite(universe)
        # The simulated Solid server renders each representation lazily and
        # keeps it until the next write; render them all now so no timed op
        # pays for the simulation's own serialization.
        for pod in universe.pods.values():
            self.host.mark()
            paths = pod.document_paths() + sorted(pod.container_paths())
            for path in paths:
                await universe.internet.dispatch(Request("GET", pod.base_url + path, {}, b""))
        self.host.mark()
        built = time.perf_counter()
        evaluator = SnapshotEvaluator(universe.oracle_dataset())
        oracle = {
            query.query_id: Counter(evaluator.select(parse_query(query.text)))
            for query in suite
        }
        self.build_s = built - started
        self.oracle_s = time.perf_counter() - built
        self.host.mark()
        return universe, suite, oracle

    async def setup(self, traced: bool) -> None:
        raise NotImplementedError

    async def warm_up(self) -> None:
        """One untimed op before the first timed one."""
        raise NotImplementedError

    def tracer_for_pass(self) -> Tracer:
        """The tracer a traced pass records into."""
        return Tracer(clock=time.perf_counter)

    async def run_pass(self, tracer) -> list[Sample]:
        raise NotImplementedError

    async def finish(self) -> int:
        """End-of-run checks and clean-up; returns extra failed checks."""
        return 0

    # -- bookkeeping ----------------------------------------------------

    def _bump(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _count_execution(self, stats: ExecutionStats) -> None:
        self._bump("documents", stats.documents_fetched)
        self._bump("triples", stats.triples_discovered)
        self._bump("results", stats.result_count)

    def _count_log(self, log: RequestLog, start: int = 0) -> int:
        records = log.records
        for record in records[start:]:
            self._bump("requests")
            if not record.from_cache:
                self._bump("origin_requests")
            if record.is_retry:
                self._bump("retries")
        return len(records)

    def counters(self) -> dict[str, float]:
        """Cumulative counts so far; the runner takes per-pass deltas."""
        return dict(self.counts)

    def _judge(self, op: str, got: dict, expected: dict, stats: ExecutionStats) -> bool:
        """True when the op *failed*; records why."""
        difference = symmetric_difference_size(got, expected)
        if difference:
            self.mismatches.append(
                f"{self.name} {op}: result multiset differs from the oracle "
                f"(symmetric difference {difference})"
            )
            return True
        if not stats.completeness()["complete"]:
            self.mismatches.append(f"{self.name} {op}: completeness() not complete")
            return True
        return False


def _resource_counts(resources: SharedResources) -> dict[str, float]:
    """The shared caches' and storage tiers' public counters, flattened."""
    statistics = resources.statistics()
    cache, store = statistics["http_cache"], statistics["document_store"]
    counts = {f"cache_{key}": cache[key] for key in ("hits", "misses", "revalidations")}
    counts.update({f"docstore_{key}": store[key] for key in ("hits", "misses", "parses", "diffs")})
    for key in ("evictions", "backend_reads"):
        counts[f"tier_{key}"] = cache["storage"][key] + store["storage"][key]
    for key in ("gets", "puts", "flushes", "file_bytes"):
        counts[f"sqlite_{key}"] = statistics["storage"].get(key, 0)
    return counts


# -- one-shot query workloads --------------------------------------------------


class QueryWorkload(Workload):
    """Ops are Discover queries; subclasses say which and how they run."""

    #: The single-pod templates; template 8 is the multi-pod crawl.
    templates: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    #: Variants (seed persons) of each template that a pass runs.
    variants = 5

    async def setup(self, traced: bool) -> None:
        self.universe, suite, self.oracle = await self._build()
        self.ops = [
            query
            for query in suite
            if query.template in self.templates and query.variant <= self.variants
        ]
        self.warm_query = suite[0]

    async def warm_up(self) -> None:
        await self.run_op(self.warm_query, None)

    async def run_pass(self, tracer) -> list[Sample]:
        async def client(ops):
            return [await self._timed_op(query, tracer) for query in ops]

        lanes = await asyncio.gather(
            *(client(self.ops[lane :: self.clients]) for lane in range(self.clients))
        )
        return [sample for lane in lanes for sample in lane]

    async def _timed_op(self, query, tracer) -> Sample:
        op = f"Discover {query.query_id}"
        self.host.mark()
        started = time.perf_counter()
        try:
            ttfr_s, got, stats = await self.run_op(query, tracer)
        except Exception as error:  # noqa: BLE001 — an op that raised is a failed op
            wall_s = time.perf_counter() - started
            self.mismatches.append(f"{self.name} {op}: raised {error!r}")
            return Sample(op, wall_s, wall_s, True, tracer is not None, started)
        wall_s = time.perf_counter() - started
        failed = self._judge(op, got, self.oracle[query.query_id], stats)
        # An empty answer has no first result: its TTFR is its wall.
        if ttfr_s is None:
            ttfr_s = wall_s
        return Sample(op, wall_s, ttfr_s, failed, tracer is not None, started)

    async def run_op(self, query, tracer):
        """Run one query; returns ``(ttfr_s or None, result multiset, stats)``."""
        raise NotImplementedError


class ColdEngineWorkload(QueryWorkload):
    """A fresh cold engine (own client, no caches) per query."""

    latency = NoLatency()

    async def run_op(self, query, tracer):
        engine = self.universe.engine(latency=self.latency)
        started = time.perf_counter()
        execution = engine.query(query.text, seeds=query.seeds, tracer=tracer)
        first_at = None
        async for _ in execution:
            if first_at is None:
                first_at = time.perf_counter()
        self._count_execution(execution.stats)
        self._count_log(engine.client.log)
        ttfr_s = first_at - started if first_at is not None else None
        return ttfr_s, Counter(execution.bindings), execution.stats


class DiscoverCpu(ColdEngineWorkload):
    name = "discover_cpu"
    passes_per_second = 4 / 12


class CrawlCpu(ColdEngineWorkload):
    name = "crawl_cpu"
    templates = (8,)


class DiscoverNet(ColdEngineWorkload):
    name = "discover_net"
    clients = 2
    latency = SeededJitterLatency(**REALISTIC_RTT)
    #: At ~1.2 s of RTT chain per query the full 33 would take 21 s a pass.
    variants = 3


class ServiceWarm(QueryWorkload):
    """One ``QueryService`` whose caches the set-up fill pass has filled."""

    name = "service_warm"
    clients = 2
    passes_per_second = 4 / 12

    def _resources(self) -> SharedResources:
        return SharedResources.for_universe(self.universe, latency=NoLatency())

    async def setup(self, traced: bool) -> None:
        await super().setup(traced)
        self.resources = self._resources()
        self.service = QueryService(self.resources, max_concurrent=self.clients)
        self._log_cursor = 0
        # The fill pass: every document the suite reaches enters the HTTP
        # cache and the parsed-document store.  It is also the warm-up.
        for query in self.ops:
            self.host.mark()
            await self.run_op(query, None)
        self.resources.flush()
        self.counts.clear()

    async def warm_up(self) -> None:
        return None

    async def run_pass(self, tracer) -> list[Sample]:
        # The shared client's tracer is engine-level state that each
        # execution saves and restores; with two executions in flight the
        # first to finish would switch the other's fetch spans off, so the
        # pass owns the setting.
        self.resources.client.tracer = tracer
        try:
            return await super().run_pass(tracer)
        finally:
            self.resources.client.tracer = None

    async def run_op(self, query, tracer):
        handle = self.service.submit(query.text, seeds=query.seeds, tracer=tracer)
        result = await handle.wait()
        stats = result.stats
        self._count_execution(stats)
        ttfr_s = (
            stats.first_result_at - handle.submitted_at
            if stats.first_result_at is not None
            else None
        )
        return ttfr_s, Counter(result.bindings), stats

    def counters(self) -> dict[str, float]:
        self._log_cursor = self._count_log(self.resources.client.log, self._log_cursor)
        return {**self.counts, **_resource_counts(self.resources)}

    async def finish(self) -> int:
        errors = self.service.shutdown_errors()
        self.mismatches.extend(f"{self.name}: shutdown error {e}" for e in errors)
        self.resources.close()
        return len(errors)


class ServiceSpill(ServiceWarm):
    """``service_warm`` with a working set larger than the in-memory tiers."""

    name = "service_spill"
    passes_per_second = 3 / 12
    #: In-memory LRU bound of each tier, against ~3.3k documents reached.
    memory_entries = 256

    def _resources(self) -> SharedResources:
        self._work = WORK_DIR / f"spill-{self.seed}-{time.time_ns()}"
        backend = SqliteBackend(str(self._work / "store.sqlite"))
        return SharedResources.for_universe(
            self.universe,
            latency=NoLatency(),
            storage=backend,
            http_cache=HttpCache(max_entries=self.memory_entries, backend=backend),
            document_store=DocumentStore(
                max_documents=self.memory_entries, backend=backend
            ),
        )

    async def finish(self) -> int:
        try:
            return await super().finish()
        finally:
            shutil.rmtree(self._work, ignore_errors=True)


# -- standing queries under edits ---------------------------------------------


class _LiveSide:
    """One private universe, its service and its standing queries."""

    def __init__(self, universe, tracer) -> None:
        self.universe = universe
        self.tracer = tracer
        self.resources = SharedResources.for_universe(universe, latency=NoLatency())
        self.service = QueryService(self.resources, max_concurrent=2)
        #: Per standing query: (text, webid, message -> current row, the
        #: seeded edit order of its messages, subscription).
        self.pods: list[tuple] = []
        self.edits = 0
        self.first_event_at: Optional[float] = None

    def stamp(self, events) -> None:
        if events and self.first_event_at is None:
            self.first_event_at = time.perf_counter()


class LiveEdits(Workload):
    name = "live_edits"
    passes_per_second = 10 / 12
    subscriptions = 16
    edits_per_pass = 100
    #: A one-shot run of the edited pod's query every this many edits.
    one_shot_every = 50

    def _query_text(self, webid: str) -> str:
        return (
            f"PREFIX snvoc: <{SNVOC.base}>\n"
            f"SELECT ?message ?c WHERE {{ ?message snvoc:hasCreator <{webid}> ; "
            f"snvoc:content ?c }}"
        )

    async def _open_side(self, tracer) -> _LiveSide:
        # Edits mutate the pods, so each side owns its universe.
        side = _LiveSide((await self._build())[0], tracer)
        evaluator = SnapshotEvaluator(side.universe.oracle_dataset())
        rng = random.Random(self.seed)
        for person in range(side.universe.person_count):
            webid = side.universe.webid(person)
            text = self._query_text(webid)
            rows = list(evaluator.select(parse_query(text)))
            if not rows:
                continue
            # message IRI -> its current row; the harness's own model of
            # the pod, advanced on every edit it sends.
            state = {row[Variable("message")].value: row for row in rows}
            order = sorted(state)
            rng.shuffle(order)
            subscription = await side.service.subscribe(
                text, seeds=(webid,), tracer=tracer
            )
            subscription.live.add_listener(side.stamp)
            if symmetric_difference_size(subscription.current_results(), Counter(rows)):
                self.mismatches.append(f"{self.name}: initial results of {webid} wrong")
            side.pods.append((text, webid, state, order, subscription))
            if len(side.pods) == self.subscriptions:
                break
        return side

    async def setup(self, traced: bool) -> None:
        self.sides = {False: await self._open_side(None)}
        if traced:
            # The tracer is bound when a subscription opens, so the traced
            # passes run against a second, identical side.
            self.tracer = Tracer(clock=time.perf_counter)
            self.sides[True] = await self._open_side(self.tracer)

    def tracer_for_pass(self) -> Tracer:
        return self.tracer

    async def warm_up(self) -> None:
        for side in self.sides.values():
            await self._edit(side)
        self.counts.clear()
        self.patch_s.clear()
        self.drain_s.clear()

    async def _patch(self, side: _LiveSide, url: str, update: str) -> None:
        parts = urlsplit(url)
        app = side.universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
        headers = {"content-type": "application/sparql-update"}
        headers.update(app.login_owner(parts.path))
        response = await side.universe.internet.dispatch(
            Request("PATCH", url, headers, update.encode("utf-8"))
        )
        if response.status >= 400:
            raise RuntimeError(f"PATCH rejected: HTTP {response.status} for {url}")

    async def _edit(self, side: _LiveSide) -> Sample:
        """One owner-authenticated content edit and its signed maintenance."""
        index = side.edits
        side.edits += 1
        text, webid, state, order, subscription = side.pods[index % len(side.pods)]
        message = order[(index // len(side.pods)) % len(order)]
        content = Variable("c")
        old = state[message][content]
        new = Literal(f"ledger edit {index}")
        update = (
            f"DELETE DATA {{ <{message}> <{SNVOC.content.value}> {term_to_ntriples(old)} }} ;\n"
            f"INSERT DATA {{ <{message}> <{SNVOC.content.value}> {term_to_ntriples(new)} }}"
        )
        op = f"edit {index}"
        traced = side.tracer is not None
        events_before = len(subscription.events)
        side.first_event_at = None
        self.host.mark()
        started = time.perf_counter()
        try:
            await self._patch(side, message.split("#", 1)[0], update)
            patched = time.perf_counter()
            await side.service.drain_subscriptions()
        except Exception as error:  # noqa: BLE001 — an op that raised is a failed op
            wall_s = time.perf_counter() - started
            self.mismatches.append(f"{self.name} {op}: raised {error!r}")
            return Sample(op, wall_s, wall_s, True, traced, started)
        ended = time.perf_counter()
        state[message] = Binding({Variable("message"): intern_iri(message), content: new})
        self.patch_s.append(patched - started)
        self.drain_s.append(ended - patched)
        events = len(subscription.events) - events_before
        self._bump("edits")
        self._bump("events", events)
        failed = events != 2
        if failed:
            self.mismatches.append(
                f"{self.name} {op}: {events} signed events, expected -1/+1"
            )
        first = side.first_event_at if side.first_event_at is not None else ended
        sample = Sample(op, ended - started, first - started, failed, traced, started)
        if side.edits % self.one_shot_every == 0:
            await self._one_shot(side, text, webid, state)
        return sample

    async def _one_shot(self, side: _LiveSide, text, webid, state) -> None:
        """A fresh run of the edited pod's query must see every edit so far."""
        self.checks += 1
        op = f"one-shot after edit {side.edits - 1}"
        try:
            result = await side.service.run(text, seeds=(webid,))
        except Exception as error:  # noqa: BLE001
            self.mismatches.append(f"{self.name} {op}: raised {error!r}")
            self._bump("failed_checks")
            return
        if self._judge(op, Counter(result.bindings), Counter(state.values()), result.stats):
            self._bump("failed_checks")

    async def run_pass(self, tracer) -> list[Sample]:
        side = self.sides[tracer is not None]
        # Refreshes reach the shared client outside any execution, which is
        # what installs the client's tracer; the pass installs it instead.
        side.resources.client.tracer = tracer
        try:
            return [await self._edit(side) for _ in range(self.edits_per_pass)]
        finally:
            side.resources.client.tracer = None

    def counters(self) -> dict[str, float]:
        counts = dict(self.counts)
        for key in ("requests", "origin_requests", "retries"):
            counts[key] = 0.0
        for side in self.sides.values():
            # The harness's PATCH bypasses the client; everything in its
            # log is the program's own traffic (conditional refetches).
            records = side.resources.client.log.records
            counts["requests"] += len(records)
            counts["origin_requests"] += sum(not r.from_cache for r in records)
            counts["retries"] += sum(r.is_retry for r in records)
            for key, value in _resource_counts(side.resources).items():
                counts[key] = counts.get(key, 0.0) + value
        return counts

    async def finish(self) -> int:
        """Every standing result must equal a fresh oracle over the final pods."""
        failed = int(self.counts.get("failed_checks", 0))
        for side in self.sides.values():
            final = dataclasses.replace(side.universe, _oracle=None)
            evaluator = SnapshotEvaluator(final.oracle_dataset())
            for text, webid, state, _, subscription in side.pods:
                self.checks += 1
                expected = Counter(evaluator.select(parse_query(text)))
                difference = symmetric_difference_size(
                    subscription.current_results(), expected
                ) + symmetric_difference_size(Counter(state.values()), expected)
                if difference:
                    failed += 1
                    self.mismatches.append(
                        f"{self.name}: standing results of {webid} differ from the "
                        f"final-state oracle (symmetric difference {difference})"
                    )
                await subscription.close()
            errors = side.service.shutdown_errors()
            self.mismatches.extend(f"{self.name}: shutdown error {e}" for e in errors)
            failed += len(errors)
            side.resources.close()
        return failed


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (DiscoverCpu, CrawlCpu, DiscoverNet, ServiceWarm, ServiceSpill, LiveEdits)
}
