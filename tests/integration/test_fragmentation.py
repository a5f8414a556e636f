"""Fragmentation invariance: answers don't depend on document layout.

SolidBench can fragment a person's messages per creation date (default),
into a single document, or one document per message.  The fragmentation
changes *where* message IRIs live and how many requests traversal needs —
but never the answers.  ([14] studies exactly this design axis.)
"""

import pytest

from repro.bench.harness import run_query
from repro.solidbench import Fragmentation, SolidBenchConfig, build_universe, discover_query
from repro.solid.index import INDEX_PATH

SCALE = 0.01
SEED = 21


@pytest.fixture(scope="module")
def universes():
    """Default pods — each publishes its source index — in every layout."""
    return {
        mode: build_universe(SolidBenchConfig(scale=SCALE, seed=SEED, fragmentation=mode))
        for mode in Fragmentation
    }


class TestFragmentationInvariance:
    @pytest.mark.parametrize("template", [1, 2, 6])
    def test_answers_equal_across_fragmentations(self, universes, template):
        """Oracle-equal in every layout, on pods whose index says what to
        skip: under ``SINGLE`` the root-level ``posts`` / ``comments``
        documents are summary units of their own, so pruning the root
        listing loses nothing (it used to lose Discover 1 and 2 entirely,
        with ``complete: true``)."""
        answers = {}
        for mode, universe in universes.items():
            query = discover_query(universe, template, 1)
            report = run_query(universe, query, check_oracle=True)
            assert report.complete is True, f"{mode}: incomplete"
            assert report.execution.stats.pruned_by_rule.get("hint:infra"), mode
            # Compare value-level answers (IRIs differ across layouts, the
            # projected literals must not).
            answers[mode] = report.result_count
        assert len(set(answers.values())) == 1, answers

    def test_request_counts_order_by_granularity(self, universes):
        """SINGLE needs strictly fewer requests; PER_RESOURCE at least as
        many as DATED (equal when every message has a unique date)."""
        requests = {}
        for mode, universe in universes.items():
            query = discover_query(universe, 2, 1)
            report = run_query(universe, query, check_oracle=False)
            requests[mode] = report.waterfall.request_count
        assert requests[Fragmentation.SINGLE] < requests[Fragmentation.DATED]
        assert requests[Fragmentation.DATED] <= requests[Fragmentation.PER_RESOURCE]

    def test_file_counts_order_by_granularity(self, universes):
        files = {mode: u.statistics()["files"] for mode, u in universes.items()}
        assert files[Fragmentation.SINGLE] < files[Fragmentation.DATED]
        assert files[Fragmentation.DATED] <= files[Fragmentation.PER_RESOURCE]

    def test_triple_totals_identical(self, universes):
        """Of the content: the index summarizes one unit per container or
        root-level document, so its own size follows the layout."""
        totals = {
            mode: sum(
                len(document.triples)
                for pod in universe.pods.values()
                for document in pod.documents()
                if document.path != INDEX_PATH
            )
            for mode, universe in universes.items()
        }
        assert len(set(totals.values())) == 1
