"""One home per claim: the paper's figures come from one table-driven
runner, speed from the ledger, contracts from the tests beside this one.
These tests keep a second home from growing back."""

import json
import re

from .test_examples import ROOT, run

RUNNER = ROOT / "benchmarks" / "experiments.py"


def runner_ids() -> list[str]:
    return re.findall(r'^    Experiment\("(\w+)"', RUNNER.read_text(), re.MULTILINE)


def test_benchmarks_holds_the_ledger_and_the_runner_only():
    entries = {path.name for path in (ROOT / "benchmarks").iterdir()}
    assert entries - {"__pycache__"} == {"ledger", "experiments.py"}
    assert not list(ROOT.glob("BENCH_*.json"))


def test_every_experiment_heading_is_a_runner_id_with_committed_rows():
    headings = re.findall(r"^## (E\d+) ", (ROOT / "EXPERIMENTS.md").read_text(), re.MULTILINE)
    assert len(headings) == 14
    assert runner_ids() == headings + ["guided"]
    committed = json.loads((ROOT / "EXPERIMENTS.json").read_text())["experiments"]
    assert list(committed) == runner_ids()
    assert all(entry["rows"] for entry in committed.values())


def test_runner_reproduces_two_cheap_experiments():
    # A universe small enough for tier-1; every shape must hold there too.
    finished = run(str(RUNNER), "E3", "E8", "--scale", "0.005")
    assert finished.returncode == 0, (finished.stdout + finished.stderr)[-2000:]
    assert "E3 / Fig. 4" in finished.stdout and "E8 / §2" in finished.stdout
