"""The paper's evaluation as one table: configuration × query → counts and times.

Every figure and count-shaped claim of the demo paper (E1–E14 of EXPERIMENTS.md)
plus the guided-traversal table is one :class:`Experiment` in :data:`EXPERIMENTS`.
Its :class:`Config` s each go through :func:`repro.bench.run_query` in one loop;
the five claims that are not a traversal run (CLI output, generator statistics,
a pipeline-only re-ordering feed, a cache shared by two runs, the federation
baseline) bring a ``measure`` function that returns their rows.  ``expect``
asserts the shape: who is complete, who touches more pods, who follows fewer
links.  Seconds are reported, never compared with another host's — speed lives
in the ledger (``BENCHMARK.json``).

    PYTHONPATH=src python benchmarks/experiments.py [ID ...] [--scale 0.02] [--seed 42]

No ids: run everything and write ``EXPERIMENTS.json``; with ids, print only.
``--scale 1.0`` is the paper's 1,531 pods.
"""

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from collections import Counter, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro import ltqp, net
from repro.bench import QueryRunReport, oracle_bindings, queue_sparkline, render_table
from repro.bench import render_waterfall, run_query
from repro.cli import main as cli_main
from repro.federation import FederatedQueryEngine, attach_pod_endpoints
from repro.ltqp.guided import SubwebSpecification
from repro.ltqp.pipeline import compile_pipeline, total_work
from repro.obs import TickClock, Tracer
from repro.rdf import Dataset, Literal, NamedNode, Quad, Variable
from repro.rdf.namespaces import SNVOC
from repro.service import SharedResources
from repro.solidbench import PAPER_SCALE_TARGETS, Fragmentation, SolidBenchConfig
from repro.solidbench import build_universe, discover_query, discover_suite
from repro.sparql import parse_query

OUTPUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.json"


@dataclass
class Config:
    """One row of work: a universe, a query (or the suite) and an engine."""

    label: str
    query: tuple = ()  # discover_query's (template, variant[, person_index]); () = all 37
    universe: dict = field(default_factory=dict)  # SolidBenchConfig; scale multiplies --scale
    extractors: Optional[Callable[[], list]] = None  # None: the paper's Solid-aware stack
    engine: Optional[ltqp.EngineConfig] = None
    latency: Optional[net.LatencyModel] = None
    ticks: bool = False  # trace on a TickClock: every time is an event count, not seconds


#: One execution: its config's label, its universe's statistics, its QueryRunReport.
Run = namedtuple("Run", "label universe_stats report")


@dataclass
class Context:
    """``--scale`` / ``--seed`` and the universes built for them so far."""

    scale: float
    seed: int
    universes: dict[SolidBenchConfig, tuple] = field(default_factory=dict)

    def universe(self, scale: float = 1.0, **overrides) -> tuple:
        """``(universe, its statistics)`` at ``scale`` × ``--scale``, at most the paper's 1.0.
        Paper-shaped pods (no published source index) unless ``overrides`` say otherwise: the
        paper's figures are full crawls."""
        overrides.setdefault("emit_hints", False)
        config = SolidBenchConfig(scale=min(1.0, self.scale * scale), seed=self.seed, **overrides)
        if config not in self.universes:
            universe = build_universe(config)
            self.universes[config] = (universe, universe.statistics())
        return self.universes[config]

    def run(self, config: Config) -> list[Run]:
        """The one loop body: a config's query (or the suite) through ``run_query``."""
        universe, stats = self.universe(**config.universe)
        one = config.query
        queries = [discover_query(universe, *one)] if one else discover_suite(universe)
        return [
            Run(config.label, stats, run_query(
                universe, query,
                extractors=config.extractors() if config.extractors else None,
                engine_config=config.engine, latency=config.latency,
                tracer=Tracer(clock=TickClock()) if config.ticks else None,
            ))
            for query in queries
        ]


@dataclass
class Experiment:
    id: str
    paper_ref: str
    expect: Callable[[list[Run], list[dict]], Optional[dict]]  # asserts; may return a summary
    configs: list[Config] = field(default_factory=list)
    measure: Optional[Callable[[Context], list[dict]]] = None  # rows of what is not a traversal
    columns: tuple[str, ...] = ()  # beyond the common ten, by name in COLUMNS
    figure: Optional[Callable[[list[Run]], str]] = None  # the paper's waterfall, after the table


def pods_touched(report: QueryRunReport) -> set[str]:
    found = (re.search(r"/pods/(\d+)/", row.url) for row in report.waterfall.rows)
    return {match.group(1) for match in found if match}


def queue_lengths(report: QueryRunReport) -> list[int]:
    return [sample.queue_length for sample in report.execution.stats.queue_samples]


#: Row columns by name: the first ten go in every row, the rest on request.
COLUMNS: dict[str, Callable[[Run], object]] = {
    "config": lambda run: run.label,
    "query": lambda run: run.report.query.name,
    "results": lambda run: run.report.result_count,
    "oracle": lambda run: run.report.oracle_count,
    "complete": lambda run: run.report.complete,
    "documents": lambda run: run.report.documents_fetched,
    "links": lambda run: run.report.links_queued,
    "requests": lambda run: run.report.waterfall.request_count,
    "wall_s": lambda run: run.report.total_time,
    "ttfr_s": lambda run: run.report.time_to_first_result,
    "pods_touched": lambda run: len(pods_touched(run.report)),
    "depth": lambda run: run.report.waterfall.max_depth,
    "parallelism": lambda run: run.report.waterfall.max_parallelism,
    "origins": lambda run: run.report.waterfall.origins,
    "bytes": lambda run: run.report.waterfall.total_bytes,
    "queue_peak": lambda run: max(queue_lengths(run.report)),
    "queue": lambda run: queue_sparkline(run.report.execution.stats.queue_samples, width=40),
    "replans": lambda run: run.report.execution.stats.replans,
    "links_pruned": lambda run: run.report.execution.stats.links_pruned,
    "pods": lambda run: run.universe_stats["pods"],
    "files": lambda run: run.universe_stats["files"],
    "triples": lambda run: run.universe_stats["triples"],
}


def row_of(run: Run, extra: tuple[str, ...]) -> dict:
    row = {name: COLUMNS[name](run) for name in (*list(COLUMNS)[:10], *extra)}
    return {name: round(v, 4) if isinstance(v, float) else v for name, v in row.items()}


def pick(runs: list[Run], label: str) -> QueryRunReport:
    (report,) = [run.report for run in runs if run.label == label]
    return report


def policy(**traversal) -> ltqp.EngineConfig:
    return ltqp.EngineConfig(traversal=ltqp.TraversalPolicy(**traversal))


def cli_lines(ctx: Context) -> list[dict]:
    """E1: our ``comunica-sparql-link-traversal-solid`` on Discover 1.5."""
    stdout = io.StringIO()
    argv = ["--simulate", str(ctx.scale), "--bench-seed", str(ctx.seed),
            "--discover", "1.5", "--no-latency", "--lenient"]
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 0
    return [{"line": line} for line in stdout.getvalue().strip().splitlines()]


def expect_cli(runs, rows):
    bindings = [json.loads(row["line"]) for row in rows]
    assert bindings, "Discover 1.5 must produce results"
    assert all(bindings), "empty binding printed"
    # Typed literals keep the "value"^^datatype rendering of the paper's figure.
    typed = [binding["messageId"] for binding in bindings]
    assert all(value.startswith('"') and "^^" in value for value in typed)


def expect_webui_query(runs, rows):
    report = pick(runs, "jitter")
    assert report.result_count > 0
    assert report.complete is True
    assert report.total_time < 30.0  # "in the order of seconds"
    for binding in report.execution.bindings:
        assert Variable("forumId") in binding
        title = binding[Variable("forumTitle")].value
        assert title.startswith(("Wall of ", "Album ")), title


def expect_single_pod_waterfall(runs, rows):
    report = pick(runs, "single-pod")
    waterfall = report.waterfall
    # Fig. 4 targets one person's pod, starting at the seed WebID document.
    assert len(pods_touched(report)) == 1
    assert waterfall.rows[0].short_name == "card"
    # Dependency chain card → pod root → container → dated file.
    assert waterfall.max_depth >= 3
    dated = [row for row in waterfall.rows if re.search(r"\d{4}-\d{2}-\d{2}$", row.short_name)]
    assert dated, "expected date-fragmented message documents in the waterfall"
    assert waterfall.max_parallelism >= 2  # requests overlap, as in the browser
    assert report.complete is True


def expect_multi_pod_waterfall(runs, rows):
    multi, single = pick(runs, "multi-pod"), pick(runs, "single-pod")
    assert len(pods_touched(multi)) > 1
    assert len(pods_touched(single)) == 1
    assert multi.waterfall.request_count > single.waterfall.request_count
    # External (non-pod) origins are reached, like "Germany" in the figure.
    assert multi.waterfall.origins >= 2
    assert multi.complete is True


def dataset_statistics(ctx: Context) -> list[dict]:
    """E5: per-pod ratios at 2.5 × ``--scale``, extrapolated to the paper's 1,531 pods."""
    _, stats = ctx.universe(scale=2.5)
    factor = PAPER_SCALE_TARGETS["pods"] / stats["pods"]
    rows = []
    for name, paper in PAPER_SCALE_TARGETS.items():
        measured = stats[name] * (1 if "_per_" in name else factor)
        rows.append({"quantity": name, "paper": round(paper, 1), "generated": round(stats[name], 1),
                     "extrapolated": round(measured, 1),
                     "deviation": round(abs(measured - paper) / paper, 4)})
    twice = [build_universe(SolidBenchConfig(scale=0.01, seed=123, emit_hints=False)).statistics()
             for _ in range(2)]
    rows.append({"quantity": "same seed, same universe", "generated": twice[0] == twice[1]})
    return rows


def expect_dataset_statistics(runs, rows):
    *quantities, deterministic = rows
    deviation = {row["quantity"]: row["deviation"] for row in quantities}
    tolerance = 0.15
    assert deviation["files_per_pod"] < tolerance
    assert deviation["triples_per_file"] < tolerance
    if quantities[0]["generated"] == PAPER_SCALE_TARGETS["pods"]:  # --scale 1.0
        assert deviation["files"] < tolerance
        assert deviation["triples"] < tolerance
    assert deterministic["generated"] is True


def expect_ttfr(runs, rows):
    reports = [run.report for run in runs]
    streaming = [r for r in reports if r.result_count and r.time_to_first_result is not None]
    assert streaming, "no streaming results at all"
    # First results arrive before the query completes (pipelining).
    assert all(r.time_to_first_result < r.total_time for r in streaming)
    # Nielsen threshold: most queries show first results < 1 s.
    under_threshold = sum(1 for r in streaming if r.time_to_first_result < 1.0)
    assert under_threshold / len(streaming) >= 0.75
    by_template = {r.query.template: r for r in reports}
    assert by_template[8].total_time > by_template[1].total_time
    assert by_template[2].result_times[0] < by_template[2].total_time / 2


def expect_query_suite(runs, rows):
    reports = [run.report for run in runs]
    assert len(reports) == 37
    incomplete = [r.query.name for r in reports if r.complete is not True]
    assert not incomplete, f"incomplete queries: {incomplete}"
    # The demo expects queries to show answers: most templates have data.
    with_results = sum(1 for r in reports if r.result_count > 0)
    assert with_results / len(reports) >= 0.9
    assert all(r.streaming for r in reports)  # through the monotonic pipeline


EXTRACTOR_STACKS: dict[str, Optional[Callable[[], list]]] = {
    "solid-aware": None,  # the engine's default: cMatch + LDP + storage + type index
    "cmatch-only": lambda: [ltqp.MatchIriExtractor()],
    "call": lambda: [ltqp.AllIriExtractor()],
    "type-index": lambda: [ltqp.MatchIriExtractor(), ltqp.StorageExtractor(),
                           ltqp.TypeIndexExtractor(), ltqp.ScopedLdpContainerExtractor()],
    "ldp-crawl": lambda: [ltqp.MatchIriExtractor(), ltqp.StorageExtractor(),
                          ltqp.LdpContainerExtractor()],
}


def expect_extractor_ablation(runs, rows):
    by_label = {run.label: run.report for run in runs}
    solid_aware, call = by_label["d1.5 solid-aware"], by_label["d1.5 call"]
    # Blind cAll answers completely too, but follows far more links.
    assert solid_aware.complete is True
    assert call.complete is True
    assert call.links_queued > solid_aware.links_queued
    # cMatch alone cannot discover pod structure → incomplete.
    assert by_label["d1.5 cmatch-only"].result_count < solid_aware.result_count
    assert by_label["d8.4 solid-aware"].complete is True
    assert by_label["d8.4 call"].links_queued > by_label["d8.4 solid-aware"].links_queued
    # Type-index scoping (the pruning of [14]) skips irrelevant subtrees
    # (noise/, settings/, comments/ for a posts-only query), still complete.
    with_index, without_index = by_label["d1.5 type-index"], by_label["d1.5 ldp-crawl"]
    assert with_index.complete is True
    assert without_index.complete is True
    assert with_index.documents_fetched < without_index.documents_fetched


def expect_queue_evolution(runs, rows):
    single, multi = pick(runs, "d1.5 fifo"), pick(runs, "d8.4 fifo")
    # The queue drains: traversal terminates.
    assert queue_lengths(single)[-1] == queue_lengths(multi)[-1] == 0
    assert multi.links_queued > single.links_queued
    assert max(queue_lengths(multi)) >= max(queue_lengths(single))
    # FIFO (paper default), LIFO (depth-first) and priority ordering all
    # terminate with identical answers; only arrival order differs.
    disciplines = ("fifo", "lifo", "priority")
    answers = {frozenset(pick(runs, f"d2.1 {d}").execution.bindings) for d in disciplines}
    assert len(answers) == 1


def skewed_quads(popular=300, selective=3) -> list[Quad]:
    """Every message has content + 2 tags; only 3 are by ex:me, and those creator
    edges arrive early, as they would from a seed profile document."""

    def n(suffix):
        return NamedNode(f"http://x/{suffix}")

    def message(i):
        return [Quad(n(f"m{i}"), n("content"), Literal(f"t{i}"), n("g")),
                Quad(n(f"m{i}"), n("tag"), n(f"tag{i % 5}"), n("g")),
                Quad(n(f"m{i}"), n("tag"), n(f"tag{(i + 1) % 5}"), n("g"))]

    messages = [message(i) for i in range(popular)]
    creators = [Quad(n(f"m{i}"), n("creator"), n("me"), n("g")) for i in range(selective)]
    return sum(messages[:30], []) + creators + sum(messages[30:], [])


def adaptive_feed(ctx: Context) -> list[dict]:
    """E10: a static plan vs BGP re-ordering, both from the same adversarial textual
    order.  Both are ``compile_pipeline(where, bgp_order=list)`` fed the same chunks;
    the static one is fed through its operator tree (``root.apply``), below the
    ``Pipeline`` that re-orders, the other through ``Pipeline.advance``."""
    # Textual order joins the two unselective patterns (content × tag) first.
    query = parse_query(
        "PREFIX ex: <http://x/>\n"
        "SELECT ?m ?c ?t WHERE { ?m ex:content ?c . ?m ex:tag ?t . ?m ex:creator ex:me }"
    )
    quads = skewed_quads()
    static = compile_pipeline(query.where, bgp_order=list)
    reordering = compile_pipeline(query.where, bgp_order=list)
    dataset, static_rows, reordered_rows = Dataset(), Counter(), Counter()
    for start in range(0, len(quads), 30):
        chunk = quads[start:start + 30]
        for quad in chunk:
            dataset.add(quad)
        for binding, count in static.root.apply(static.router.batch(chunk), dataset):
            static_rows[binding] += count
        reordered_rows.update(reordering.advance(dataset))
    assert static_rows == reordered_rows
    return [
        {"plan": "static textual order", "results": sum(static_rows.values()),
         "intermediate_bindings": total_work(static.root), "replans": static.replans},
        {"plan": "re-ordering (every pipeline)", "results": sum(reordered_rows.values()),
         "intermediate_bindings": total_work(reordering.root), "replans": reordering.replans},
    ]


def expect_adaptive(runs, rows):
    static, reordering = rows
    assert static["replans"] == 0 and reordering["replans"] >= 1
    assert reordering["intermediate_bindings"] < static["intermediate_bindings"]
    assert pick(runs, "default").complete


def cold_warm_cache(ctx: Context) -> list[dict]:
    """E11: Discover 1.5 twice through two shared stacks over one ``HttpCache``."""
    universe, _ = ctx.universe()
    query = discover_query(universe, 1, 5)
    cache, latency = net.HttpCache(default_max_age=3600), net.SeededJitterLatency(seed=11)
    rows, answers = [], []
    for label in ("cold", "warm"):
        log = net.RequestLog()
        engine = SharedResources.for_universe(
            universe, latency=latency, log=log, http_cache=cache
        ).engine
        execution = engine.query(query.text, seeds=query.seeds).run_sync()
        answers.append(set(execution.bindings))
        rows.append({
            "run": label, "results": len(execution), "requests": len(log),
            "ok_requests": sum(1 for record in log.records if record.ok),
            "from_cache": sum(1 for record in log.records if record.from_cache),
            "wall_s": round(execution.stats.total_time, 4),
        })
    assert answers[0] == answers[1]
    return rows


def expect_cache(runs, rows):
    cold, warm = rows
    assert cold["from_cache"] == 0
    # Nearly all: failed fetches like 404 vocabulary documents are not cached.
    assert warm["from_cache"] >= 0.9 * warm["ok_requests"]
    assert warm["wall_s"] <= cold["wall_s"]


def expect_fragmentation(runs, rows):
    assert len({run.report.result_count for run in runs}) == 1  # answers invariant
    assert all(run.report.complete for run in runs)
    # Coarser layout → fewer requests; file counts track granularity.
    requests = {run.label: run.report.waterfall.request_count for run in runs}
    files = {run.label: run.universe_stats["files"] for run in runs}
    assert requests["single"] < requests["dated"] <= requests["per-resource"]
    assert files["single"] < files["dated"]


def expect_scale_invariance(runs, rows):
    assert all(run.report.complete for run in runs)
    # Universe grows ~4×...
    assert runs[-1].universe_stats["pods"] >= 3 * runs[0].universe_stats["pods"]
    assert runs[-1].universe_stats["triples"] >= 3 * runs[0].universe_stats["triples"]
    # ...while the single-pod query's cost stays flat (±25 % for per-person
    # activity noise across regenerated universes).
    requests = [run.report.waterfall.request_count for run in runs]
    assert all(abs(count - requests[0]) / requests[0] < 0.25 for count in requests[1:])


def federation_baseline(ctx: Context) -> list[dict]:
    """E14: a FedX-style engine given a SPARQL endpoint per pod and the full source list."""
    rows = []
    for scale in (0.5, 1.0):
        universe, stats = ctx.universe(scale=scale)
        query = discover_query(universe, 1, 1, person_index=3)
        client = universe.client(latency=net.NoLatency())
        federation = FederatedQueryEngine(client, attach_pod_endpoints(universe))
        results, fed_stats = federation.execute_sync(query.text)
        rows.append({
            "engine": "federation", "pods": stats["pods"],
            "requests": fed_stats.total_requests, "ask_probes": fed_stats.ask_probes,
            "complete": set(results) == oracle_bindings(universe, query),
        })
    return rows


def expect_federation(runs, rows):
    (small_ltqp, large_ltqp), (small, large) = [run.report for run in runs], rows
    assert small["complete"] and small_ltqp.complete
    assert large["complete"] and large_ltqp.complete
    # Federation probes every endpoint; its cost grows with the universe.
    assert large["ask_probes"] > small["ask_probes"]
    assert large["requests"] > small["requests"] * 1.5
    # LTQP's cost tracks the single relevant pod, not the universe.
    small_requests = small_ltqp.waterfall.request_count
    large_requests = large_ltqp.waterfall.request_count
    assert abs(large_requests - small_requests) / small_requests < 0.25
    assert large_requests < large["requests"]


#: What the pods of the two right-hand columns publish: their source index (the default).
PUBLISHING = {"emit_hints": True}
#: Sources are pods (origin + 2 path segments); foreign pods are admitted only via the
#: predicates SolidBench links them with — exactly the reachability the answers need.
ADMITTING = ("likes", "hasPost", "hasComment", "hasReply", "hasModerator")
DECLARED_SPEC = SubwebSpecification(
    origins="declared", source_depth=2,
    admit_origins_via=tuple(SNVOC[name].value for name in ADMITTING),
)


def expect_guided(runs, rows):
    """One query set, four columns: the paper's crawl; the same engine on pods that publish
    their index (what selection buys); that plus a caller's spec (what the spec prunes); and
    that under guided order (what the order ranks).  100 % recall throughout; with a
    TickClock and no latency every number replays exactly."""
    paper, default, spec, guided = (
        [run.report for run in runs if run.label == label]
        for label in ("paper fifo", "default fifo", "default fifo+spec", "default guided+spec")
    )
    assert len(paper) == len(default) == len(spec) == len(guided) == 37
    columns = list(zip(paper, default, spec, guided))
    lost = [p.query.name for p, *others in columns
            if any(Counter(p.execution.bindings) != Counter(o.execution.bindings) for o in others)]

    def mean_ratio(pairs):
        ratios = [a / b for a, b in pairs if a and b]
        return round(sum(ratios) / len(ratios), 3)

    summary = {
        "paper_derefs_total": sum(p.documents_fetched for p in paper),
        "default_derefs_total": sum(d.documents_fetched for d in default),
        "spec_derefs_total": sum(s.documents_fetched for s in spec),
        "guided_derefs_total": sum(g.documents_fetched for g in guided),
        "selection_deref_ratio_mean": mean_ratio(
            (p.documents_fetched, d.documents_fetched) for p, d, _, _ in columns),
        # The spec prunes: fifo with and without it.
        "spec_deref_ratio_mean": mean_ratio(
            (d.documents_fetched, s.documents_fetched) for _, d, s, _ in columns),
        "order_and_spec_deref_ratio_mean": mean_ratio(
            (d.documents_fetched, g.documents_fetched) for _, d, _, g in columns),
        "default_ttfr_ratio_mean": mean_ratio(
            (d.time_to_first_result, p.time_to_first_result) for p, d, _, _ in columns),
        # The order ranks: guided against fifo, both under the spec.
        "order_ttfr_ratio_mean": mean_ratio(
            (g.time_to_first_result, s.time_to_first_result) for _, _, s, g in columns),
        "guided_ttfr_ratio_mean": mean_ratio(
            (g.time_to_first_result, d.time_to_first_result) for _, d, _, g in columns),
        "all_identical": not lost,
    }
    assert not lost, f"rows lost against the paper-shaped crawl on {lost}"
    assert summary["selection_deref_ratio_mean"] >= 1.5
    assert summary["spec_deref_ratio_mean"] >= 1.0
    # Order never decides which documents are fetched, only when.
    assert summary["spec_derefs_total"] == summary["guided_derefs_total"]
    assert summary["default_ttfr_ratio_mean"] <= 1.0
    return summary


EXPERIMENTS = [
    Experiment("E1", "Fig. 2: CLI execution of Discover 1.5", expect_cli, measure=cli_lines),
    Experiment("E2", "Fig. 3: demo UI query Discover 6.x", expect_webui_query,
               [Config("jitter", (6, 4), latency=net.SeededJitterLatency(seed=7))]),
    Experiment("E3", "Fig. 4: resource waterfall of Discover 1.5", expect_single_pod_waterfall,
               [Config("single-pod", (1, 5), latency=net.SeededJitterLatency(seed=4))],
               columns=("pods_touched", "depth", "parallelism", "origins"),
               figure=lambda runs: render_waterfall(runs[0].report.waterfall, max_rows=25)),
    Experiment("E4", "Fig. 5: resource waterfall of Discover 8.x", expect_multi_pod_waterfall,
               [Config("multi-pod", (8, 4), latency=net.SeededJitterLatency(seed=5)),
                Config("single-pod", (1, 5))],
               columns=("pods_touched", "depth", "parallelism", "origins"),
               figure=lambda runs: render_waterfall(runs[0].report.waterfall, max_rows=25)),
    Experiment("E5", "§4.2: SolidBench dataset statistics", expect_dataset_statistics,
               measure=dataset_statistics),
    Experiment("E6", "§1/§5: time to first result per template, 20-80 ms RTT", expect_ttfr,
               [Config(f"template {t}", (t, 1), latency=net.SeededJitterLatency(
                   seed=9, min_rtt_seconds=0.02, max_rtt_seconds=0.08)) for t in range(1, 9)]),
    Experiment("E7", "§4.2: the 37 default Discover queries", expect_query_suite,
               [Config("suite")], columns=("depth",)),
    Experiment("E8", "§2 / [14]: link-extraction ablation", expect_extractor_ablation,
               [Config(f"d1.5 {stack}", (1, 5), extractors=build)
                for stack, build in EXTRACTOR_STACKS.items()]
               + [Config(f"d8.4 {stack}", (8, 4), extractors=EXTRACTOR_STACKS[stack])
                  for stack in ("solid-aware", "cmatch-only", "call")]),
    Experiment("E9", "§5 / [34]: link queue evolution and disciplines", expect_queue_evolution,
               [Config(f"d{t}.{v} {discipline}", (t, v), engine=policy(queue_policy=discipline))
                for t, v, discipline in ((1, 5, "fifo"), (8, 4, "fifo"), (2, 1, "fifo"),
                                         (2, 1, "lifo"), (2, 1, "priority"))],
               columns=("queue_peak", "queue")),
    Experiment("E10", "§5 / [29,30]: adaptive query planning", expect_adaptive,
               [Config("default", (8, 4))], measure=adaptive_feed, columns=("replans",)),
    Experiment("E11", "Fig. 4 '(disk cache)': cold vs warm HTTP cache", expect_cache,
               measure=cold_warm_cache),
    Experiment("E12", "[14]: fragmentation strategies (Discover 2.1)", expect_fragmentation,
               [Config(mode.value, (2, 1), universe={"scale": 0.5, "fragmentation": mode})
                for mode in Fragmentation], columns=("files", "bytes")),
    # E13/E14 fix the seed person by index so the query's own pod stays
    # comparable while the universe around it grows.
    Experiment("E13", "§1: universe grows, single-pod cost does not", expect_scale_invariance,
               [Config(f"scale x{factor}", (1, 1, 3), universe={"scale": factor})
                for factor in (0.5, 1.0, 2.0)], columns=("pods", "triples")),
    Experiment("E14", "§1: federated SPARQL vs link traversal (Discover 1)", expect_federation,
               [Config(f"ltqp x{factor}", (1, 1, 3), universe={"scale": factor})
                for factor in (0.5, 1.0)], measure=federation_baseline, columns=("pods",)),
    Experiment("guided", "DESIGN §4g: paper crawl / source selection / + a spec / + guided order",
               expect_guided,
               [Config("paper fifo", ticks=True, engine=policy(queue_policy="fifo")),
                Config("default fifo", universe=PUBLISHING, ticks=True,
                       engine=policy(queue_policy="fifo")),
                Config("default fifo+spec", universe=PUBLISHING, ticks=True,
                       engine=policy(queue_policy="fifo", subweb=DECLARED_SPEC)),
                Config("default guided+spec", universe=PUBLISHING, ticks=True,
                       engine=policy(queue_policy="guided", subweb=DECLARED_SPEC))],
               columns=("links_pruned",)),
]


def main(argv: Optional[list[str]] = None) -> int:
    known = [experiment.id for experiment in EXPERIMENTS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", metavar="ID", help=f"default all: {' '.join(known)}")
    parser.add_argument("--scale", type=float, default=0.02, help="1.0 = the paper's 1,531 pods")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    args = parser.parse_args(argv)
    if unknown := set(args.ids) - set(known):
        parser.error(f"unknown experiment {', '.join(unknown)} (known: {' '.join(known)})")

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=OUTPUT.parent, capture_output=True, text=True
    )
    stamp = {
        "commit": git.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "scale": args.scale,
        "seed": args.seed,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    ctx = Context(args.scale, args.seed)
    finished = {}
    for experiment in EXPERIMENTS:
        if args.ids and experiment.id not in args.ids:
            continue
        print(f"\n{'=' * 72}\n{experiment.id} / {experiment.paper_ref}")
        runs = [run for config in experiment.configs for run in ctx.run(config)]
        measured = experiment.measure(ctx) if experiment.measure else []
        run_rows = [row_of(run, experiment.columns) for run in runs]
        for table in filter(None, (run_rows, measured)):
            print(render_table(table))
        if experiment.figure:
            print(experiment.figure(runs))
        # A broken expectation ends the run with its traceback: exit status 1.
        summary = experiment.expect(runs, measured)
        if summary:
            print(summary)
        finished[experiment.id] = {
            "paper_ref": experiment.paper_ref,
            "rows": run_rows + measured,
            "summary": summary,
        }
    if not args.ids:
        OUTPUT.write_text(json.dumps({"stamp": stamp, "experiments": finished}, indent=1) + "\n")
        print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
