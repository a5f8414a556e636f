"""The performance ledger: one command, every workload, every metric.

Two ways in:

* the benchmark contract — ``run.py --workload NAME --seed N --seconds S
  --trace 0|1`` runs one workload in this process and prints, as the last
  line, one JSON object with ``correct``, ``attempted``, ``failed`` and the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics that
  ``BENCHMARK.json`` names;
* the ledger — ``run.py [--seed N] [--workload NAME] [--traced] [--out
  FILE]`` runs every workload in its own child process, one after the
  other, prints every metric by name with its unit, and writes the stamped
  result set that ``compare.py`` reads.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse
import asyncio
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC_PATH = REPO / "BENCHMARK.json"

#: The default seed (7 is the held-out seed a later claim must also hold on).
DEFAULT_SEED = 42

#: A further pass may start only while the timed region is within this
#: multiple of ``--seconds`` — a guard for a host far slower than the one
#: the pass counts were calibrated on; on that host it never fires.
OVERRUN_GUARD = 1.5

#: Counts that must not depend on whether a tracer is attached:
#: metric name -> the workload counter it is the per-op mean of.
INVARIANT_COUNTS = {
    "net.client.origin_requests_per_op": "origin_requests",
    "ltqp.engine.documents": "documents",
    "ltqp.engine.triples": "triples",
    "ltqp.live.events": "events",
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Make ``repro`` importable from the checkout this file lives in."""
    source = REPO / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- one workload, in this process ---------------------------------------------


async def _drive(workload, passes: int, seconds: float, traced: bool, tamper) -> dict:
    """Set up, warm up, run the passes; returns the raw measurements."""
    from measure import GcObserver, LoopLagObserver, SpanRollup, at_reference_speed

    host = workload.host
    await workload.setup(traced)
    if tamper is not None:
        tamper(workload)
    await workload.warm_up()
    host.mark()
    setup_raw_s = time.perf_counter() - PROCESS_STARTED - host.spent_s
    setup_s = at_reference_speed(
        setup_raw_s,
        min(1.0, (time.process_time() - host.spent_s) / setup_raw_s),
        host.overall_factor(),
    )

    # A traced run alternates untraced and traced passes of identical work;
    # the untraced ones are the base of the tracing-overhead ratio.
    plan = [False] * passes
    if traced:
        plan = [False, True] * max(1, passes // 2)
    samples = []
    reference_wall_s = []  # each op's wall at the reference host speed
    deltas: dict[bool, dict[str, float]] = {False: {}, True: {}}
    reference_pass_s = {False: 0.0, True: 0.0}
    total_cpu_s = 0.0
    rollup, gc_watch, lag_watch = SpanRollup(), GcObserver(), LoopLagObserver()
    region_started = time.perf_counter()
    for index, trace_pass in enumerate(plan):
        overrun = time.perf_counter() - region_started > OVERRUN_GUARD * seconds
        if overrun and index >= (2 if traced else 1) and not trace_pass:
            break
        tracer = workload.tracer_for_pass() if trace_pass else None
        spans_before = len(tracer) if tracer is not None else 0
        before = workload.counters()
        host.mark()
        kernel_before = host.spent_s
        cpu_before = time.process_time()
        started = time.perf_counter()
        if trace_pass:
            with gc_watch:
                async with lag_watch:
                    batch = await workload.run_pass(tracer)
        else:
            batch = await workload.run_pass(None)
        host.mark()
        kernel_s = host.spent_s - kernel_before
        wall_s = time.perf_counter() - started - kernel_s
        cpu_s = time.process_time() - cpu_before - kernel_s
        # The pass's CPU utilisation says how much of an interval in it
        # scales with host speed (all of it without latency, a quarter of
        # it when two clients wait on simulated round trips).
        utilisation = max(0.0, min(1.0, cpu_s / wall_s))
        factors = [
            host.factor(sample.started_at, sample.started_at + sample.wall_s) for sample in batch
        ]
        batch_reference_s = [
            at_reference_speed(sample.wall_s, utilisation, factor)
            for sample, factor in zip(batch, factors)
        ]
        batch_wall_s = sum(sample.wall_s for sample in batch)
        # Pass totals take the ops' own correction, weighted by their wall,
        # so a speed change inside the pass is followed.
        reference_pass_s[trace_pass] += wall_s * sum(batch_reference_s) / batch_wall_s
        total_cpu_s += cpu_s
        samples.extend(batch)
        reference_wall_s.extend(batch_reference_s)
        bucket = deltas[trace_pass]
        for key, value in workload.counters().items():
            bucket[key] = bucket.get(key, 0.0) + value - before.get(key, 0.0)
        if tracer is not None:
            rollup.add(tracer, since=spans_before)
    final_counters = workload.counters()
    extra_failed = await workload.finish()
    return {
        "setup_s": setup_s,
        "samples": samples,
        "reference_wall_s": reference_wall_s,
        "deltas": deltas,
        "reference_pass_s": reference_pass_s,
        "cpu_s": total_cpu_s,
        "host_speed_factor": host.overall_factor(),
        "rollup": rollup,
        "gc": gc_watch,
        "lag": lag_watch,
        "final_counters": final_counters,
        "extra_failed": extra_failed,
    }


def _per_op(counts: dict, key: str, ops: int) -> float:
    return counts.get(key, 0.0) / ops


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _drift(walls: list) -> float:
    """Median op of the last quarter of the run over that of the first."""
    from measure import median

    quarter = max(1, len(walls) // 4)
    return median(walls[-quarter:]) / median(walls[:quarter])


def _traced_metrics(raw: dict, base_wall_ms: list, traced_wall_ms: list) -> dict:
    """The span-, observer- and overhead-derived per-layer metrics."""
    from measure import median

    rollup = raw["rollup"]
    ops = len(traced_wall_ms)

    def per_op(*names: str) -> float:
        return rollup.get(*names) / ops

    def count(name: str) -> float:
        return rollup.count.get(name, 0) / ops

    return {
        "rdf.turtle.parse_s": per_op("parse"),
        "rdf.turtle.triples": rollup.args.get("triples", 0.0) / ops,
        "ltqp.dereference.self_s": per_op("dereference"),
        "net.client.fetch_s": per_op("fetch", "attempt", "backoff"),
        "ltqp.extractors.extract_s": per_op("extract"),
        "ltqp.extractors.links": rollup.args.get("links", 0.0) / ops,
        "ltqp.engine.queue_wait_s": per_op("queue-wait"),
        "sparql.planner.plan_s": per_op("plan"),
        "ltqp.pipeline.advance_s": per_op("advance-batch", "apply-batch"),
        "ltqp.pipeline.join_s": per_op("join"),
        "ltqp.pipeline.finalize_s": per_op("finalize"),
        "ltqp.pipeline.advance_batches": count("advance-batch") + count("apply-batch"),
        "service.docstore.diff_s": per_op("diff"),
        "ltqp.live.refresh_self_s": per_op("refresh"),
        "ltqp.live.refreshes": count("refresh"),
        "obs.trace.unattributed_s": max(0.0, rollup.root_s - rollup.busy_s()) / ops,
        "obs.trace.attributed_share": rollup.busy_s() / rollup.root_s,
        "obs.trace.overhead_ratio": median(traced_wall_ms) / median(base_wall_ms),
        "runtime.gc_s": raw["gc"].seconds / ops,
        "runtime.gc_gen2_collections": raw["gc"].gen2 / ops,
        "runtime.loop_lag_ms_p90": raw["lag"].p90_ms(),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float | None = None,
    passes: int | None = None,
    sizes: dict | None = None,
    probes: bool = True,
    tamper=None,
) -> dict:
    """Run one workload here; returns the full result, every metric by name.

    ``scale``, ``passes`` and ``sizes`` (workload attributes to override)
    shrink the run for the toy-size tests; ``tamper(workload)`` runs after
    set-up (the tests corrupt the oracle with it).
    """
    _import_program()
    from measure import median, p90_or_zero
    from workloads import SCALE, WORKLOADS

    scale = SCALE if scale is None else scale
    workload = WORKLOADS[name](seed, scale)
    for attribute, value in (sizes or {}).items():
        setattr(workload, attribute, value)
    if passes is None:
        passes = max(1, round(seconds * workload.passes_per_second))
    raw = asyncio.run(_drive(workload, passes, seconds, traced, tamper))

    samples = raw["samples"]
    base = [sample for sample in samples if not sample.traced]
    ops = len(base)
    wall_ms = [sample.wall_s * 1000.0 for sample in base]
    ttfr_ms = [sample.ttfr_s * 1000.0 for sample in base]
    reference_wall_ms = [
        wall_s * 1000.0
        for wall_s, sample in zip(raw["reference_wall_s"], samples)
        if not sample.traced
    ]
    counts = raw["deltas"][False]
    failed = sum(sample.failed for sample in samples) + raw["extra_failed"]
    attempted = len(samples) + workload.checks

    # Timings at the reference host speed (see measure.HostSpeed); the
    # per-layer list below is as measured.
    end_to_end = {
        "setup_s": raw["setup_s"],
        "wall_ms_p50": median(reference_wall_ms),
        "ops_per_s": ops / raw["reference_pass_s"][False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {
        metric: _per_op(counts, counter, ops) for metric, counter in INVARIANT_COUNTS.items()
    }
    per_layer.update(
        {
            "harness.host_speed_factor": raw["host_speed_factor"],
            "harness.cpu_ms_per_op": raw["cpu_s"] * 1000.0 / len(samples),
            "harness.wall_ms_p50": median(wall_ms),
            "harness.wall_ms_p90": p90_or_zero(wall_ms),
            "harness.ttfr_ms_p50": median(ttfr_ms),
            "harness.ttfr_ms_p90": p90_or_zero(ttfr_ms),
            "harness.ttfr_under_1s_share": sum(t < 1000.0 for t in ttfr_ms) / ops,
            "harness.failed_share": failed / attempted,
            "net.client.requests": _per_op(counts, "requests", ops),
            "net.client.retries": _per_op(counts, "retries", ops),
            "ltqp.links.results_per_doc": (
                counts.get("results", 0.0) / counts["documents"] if counts.get("documents") else 0.0
            ),
            "net.cache.hit_rate": _rate(counts.get("cache_hits", 0), counts.get("cache_misses", 0)),
            "net.cache.revalidations": _per_op(counts, "cache_revalidations", ops),
            "service.docstore.hit_rate": _rate(
                counts.get("docstore_hits", 0), counts.get("docstore_misses", 0)
            ),
            "service.docstore.parses": _per_op(counts, "docstore_parses", ops),
            "service.docstore.diffs": _per_op(counts, "docstore_diffs", ops),
            "storage.tier.evictions": _per_op(counts, "tier_evictions", ops),
            "storage.tier.backend_reads": _per_op(counts, "tier_backend_reads", ops),
            "storage.sqlite.gets": _per_op(counts, "sqlite_gets", ops),
            "storage.sqlite.puts": _per_op(counts, "sqlite_puts", ops),
            "storage.sqlite.flushes": _per_op(counts, "sqlite_flushes", ops),
            "storage.sqlite.file_bytes": raw["final_counters"].get("sqlite_file_bytes", 0.0),
            "solid.server.patch_s": median(workload.patch_s),
            "ltqp.live.drain_s": median(workload.drain_s),
            "ltqp.live.maintain_drift_ratio": _drift(wall_ms) if workload.patch_s else 0.0,
            "solidbench.build_s": workload.build_s,
            "sparql.eval.oracle_s": workload.oracle_s,
        }
    )
    consistent = True
    if traced:
        traced_wall_ms = [sample.wall_s * 1000.0 for sample in samples if sample.traced]
        per_layer.update(_traced_metrics(raw, wall_ms, traced_wall_ms))
        for metric, counter in INVARIANT_COUNTS.items():
            if _per_op(raw["deltas"][True], counter, len(traced_wall_ms)) != per_layer[metric]:
                consistent = False
                workload.mismatches.append(
                    f"{name}: {metric} differs between untraced and traced passes"
                )
        if probes:
            from probes import run_probes

            per_layer.update(run_probes(seed, scale))
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "passes": passes,
        "ops": ops,
        "clients": workload.clients,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and consistent,
        "mismatches": workload.mismatches[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "shares": raw["rollup"].shares(),
    }


# -- reporting -----------------------------------------------------------------


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_result(result: dict, spec: dict) -> None:
    units = _units(spec)
    print(
        f"== {result['workload']}  seed {result['seed']}  scale {result['scale']}  "
        f"{result['passes']} passes, {result['ops']} ops, {result['clients']} client(s)  "
        f"{'traced' if result['traced'] else 'untraced'}"
    )
    groups = ["per_layer"] if result["traced"] else ["end_to_end", "per_layer"]
    for group in groups:
        for name, value in result[group].items():
            samples = f"  (n={result['ops']})" if "_p50" in name or "_p90" in name else ""
            print(f"  {name:<40} {value:>16.6g} {units.get(name, ''):<6}{samples}")
    if result["shares"]:
        shares = ", ".join(f"{name} {share:.0%}" for name, share in result["shares"])
        print(f"  self-time shares of the root spans: {shares}")
    for line in result["mismatches"]:
        print(f"  FAILED {line}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")


def contract_line(result: dict, spec: dict) -> str:
    """The last line the benchmark contract asks for."""
    group = "per_layer" if result["traced"] else "end_to_end"
    metrics = {
        m["name"]: {"value": result[group][m["name"]], "unit": m["unit"]} for m in spec[group]
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- the ledger: every workload, each in its own child, one at a time ----------


def _stamp(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _run_child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORK_DIR

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    result_file = WORK_DIR / f"result-{name}-{int(traced)}-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--result-file", str(result_file),
    ]  # fmt: skip
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        with open(result_file, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        result_file.unlink(missing_ok=True)


def run_ledger(names: list[str], seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    _import_program()
    ledger = {"stamp": _stamp(seed, seconds), "workloads": {}}
    for name in names:
        result = _run_child(name, seed, seconds, False)
        print_result(result, spec)
        entry = {
            key: result[key]
            for key in ("scale", "passes", "ops", "clients", "attempted", "failed", "correct",
                        "mismatches", "end_to_end", "per_layer")
        }  # fmt: skip
        if traced:
            second = _run_child(name, seed, seconds, True)
            print_result(second, spec)
            for metric in INVARIANT_COUNTS:
                if second["per_layer"][metric] != result["per_layer"][metric]:
                    second["correct"] = False
                    second["mismatches"].append(
                        f"{name}: {metric} differs between the untraced and the traced run"
                    )
            entry["per_layer"] = second["per_layer"]
            entry["shares"] = second["shares"]
            entry["attempted"] += second["attempted"]
            entry["failed"] += second["failed"]
            entry["correct"] = entry["correct"] and second["correct"]
            entry["mismatches"] += second["mismatches"]
        ledger["workloads"][name] = entry
    return ledger


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract mode: one workload, here")
    parser.add_argument("--traced", action="store_true", help="ledger mode: add the traced run")
    parser.add_argument("--out", help="ledger mode: write the stamped result set here")
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result, spec)
        if args.result_file:
            with open(args.result_file, "w", encoding="utf-8") as handle:
                json.dump(result, handle)
        print(contract_line(result, spec))
        return 0

    selected = [args.workload] if args.workload else names
    ledger = run_ledger(selected, args.seed, args.seconds, args.traced, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1)
            handle.write("\n")
    return 0 if all(entry["correct"] for entry in ledger["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
