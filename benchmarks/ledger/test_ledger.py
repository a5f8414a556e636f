"""Tests of the ledger itself, at toy size.

Run explicitly (benchmarks are outside ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import compare
import measure
import run

SPEC = run.load_spec()
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}

#: One variant of each template, 20 edits a pass, tiers small enough to
#: spill at this scale, and a tenth of the RTT.
TOY_SIZES = {"variants": 1, "edits_per_pass": 20, "memory_entries": 32}
TOY_LATENCY = dict(seed=9, min_rtt_seconds=0.002, max_rtt_seconds=0.008)


def toy_run(name: str, traced: bool, **kwargs) -> dict:
    run._import_program()
    from repro.net import SeededJitterLatency

    sizes = dict(TOY_SIZES)
    if name == "discover_net":
        sizes["latency"] = SeededJitterLatency(**TOY_LATENCY)
    return run.run_workload(
        name, run.DEFAULT_SEED, 1.0, traced, scale=0.005, passes=2, sizes=sizes,
        probes=False, **kwargs,
    )  # fmt: skip


@pytest.fixture(scope="module")
def probe_metrics():
    run._import_program()
    from probes import run_probes

    return run_probes(run.DEFAULT_SEED, 0.005, slice_seconds=0.005)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_produces_exactly_the_listed_metrics(name, probe_metrics):
    result = toy_run(name, traced=True)
    assert result["correct"], result["mismatches"]
    assert result["failed"] == 0
    assert result["attempted"] >= result["ops"] >= 1
    assert set(result["end_to_end"]) == END_TO_END
    assert set(result["per_layer"]) | set(probe_metrics) == PER_LAYER
    assert not set(result["per_layer"]) & set(probe_metrics)
    for value in list(result["end_to_end"].values()) + list(result["per_layer"].values()):
        assert isinstance(value, (int, float))
    # End-to-end metrics are never 0: the driver takes ratios of them.
    assert all(value > 0 for value in result["end_to_end"].values())
    # The breakdown is complete: named self times cover the root spans.  Not
    # asserted on the two service workloads: they run two executions on one
    # loop, and at toy size what the engine does between spans (worker
    # wake-ups, one drain task per result) is most of a warm query.
    if not name.startswith("service_"):
        assert result["per_layer"]["obs.trace.attributed_share"] >= 0.9
    if name == "service_warm":
        assert result["per_layer"]["service.docstore.parses"] == 0
        assert result["per_layer"]["storage.sqlite.gets"] == 0
    if name == "service_spill":
        assert result["per_layer"]["service.docstore.parses"] == 0
        assert result["per_layer"]["storage.tier.backend_reads"] > 0
    if name == "live_edits":
        assert result["per_layer"]["ltqp.live.events"] == 2
        assert result["per_layer"]["service.docstore.diffs"] == 1
    line = json.loads(run.contract_line({**result, "per_layer": {**result["per_layer"], **probe_metrics}}, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == PER_LAYER


def test_metric_and_workload_names_are_well_formed():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = WORKLOAD_NAMES + sorted(END_TO_END) + sorted(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.fullmatch(name), name
    assert "setup_s" in END_TO_END
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_p90_refuses_fewer_than_a_hundred_samples():
    with pytest.raises(ValueError):
        measure.p90([1.0] * 99)
    assert measure.p90(list(range(100))) == 90
    assert measure.p90_or_zero([1.0] * 99) == 0.0


def test_a_wrong_oracle_fails_ops():
    def corrupt(workload):
        victim = workload.ops[0].query_id
        workload.oracle[victim] = {}

    result = toy_run("discover_cpu", traced=False, tamper=corrupt)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["per_layer"]["harness.failed_share"] > 0
    assert any("symmetric difference" in line for line in result["mismatches"])


def _ledger(end_to_end: dict, commit: str) -> dict:
    entry = {"attempted": 10, "failed": 0, "correct": True, "end_to_end": end_to_end}
    return {
        "stamp": {"commit": commit, "seed": run.DEFAULT_SEED},
        "workloads": {name: copy.deepcopy(entry) for name in WORKLOAD_NAMES},
    }


def _worsened(values: dict, factor_of_bound: float) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        step = 1 + factor_of_bound * metric["bound"]
        value = values[metric["name"]]
        out[metric["name"]] = value * step if metric["better"] == "lower" else value / step
    return out


def test_compare_flags_a_regression_beyond_the_bound_only():
    base = {metric["name"]: 100.0 for metric in SPEC["end_to_end"]}
    parent = _ledger(base, "aaaa")
    _, passed = compare.compare(parent, _ledger(_worsened(base, 0.5), "bbbb"), SPEC)
    assert passed
    lines, passed = compare.compare(parent, _ledger(_worsened(base, 1.5), "bbbb"), SPEC)
    assert not passed
    assert sum("OUTSIDE BOUND" in line for line in lines) == len(WORKLOAD_NAMES) * len(END_TO_END)
    # An improvement passes against a parent, but two sets of one commit must agree.
    _, passed = compare.compare(_ledger(_worsened(base, 1.5), "aaaa"), _ledger(base, "bbbb"), SPEC)
    assert passed
    _, passed = compare.compare(_ledger(_worsened(base, 1.5), "aaaa"), _ledger(base, "aaaa"), SPEC)
    assert not passed
    failing = _ledger(base, "bbbb")
    failing["workloads"][WORKLOAD_NAMES[0]]["failed"] = 1
    _, passed = compare.compare(parent, failing, SPEC)
    assert not passed


def test_the_harness_never_tunes_the_collector():
    forbidden = ["gc." + call for call in ("disable", "freeze", "set_threshold", "collect")]
    for path in Path(__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for call in forbidden:
            assert call not in text, f"{path.name} calls {call}"
