"""Source selection runs in every execution — sound, and independent of
queue order and of timing.

On default pods (each publishes its source index) the engine prunes what
the index declares irrelevant or redundant, whatever the queue discipline:

* the answer is the oracle's, for every Discover query, in every pod
  layout, under every registered ``queue_policy``;
* the *set* of documents a single-pod query dereferences, and what it
  prunes by which rule, is the same under every discipline and every
  latency model — the links of a document that advertises its index wait
  for that index, so neither pop order nor which response lands first can
  let an entry link slip through unjudged;
* an index that never arrives (its fetch fails for good, is not found, or
  is pruned by the caller's own spec) costs nothing but the saving: the
  links that waited for it go ahead unjudged and the crawl is the paper's.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro

from repro.bench.harness import oracle_bindings
from repro.cli import build_arg_parser, build_serve_arg_parser
from repro.ltqp import QUEUE_POLICIES, EngineConfig, TraversalPolicy
from repro.ltqp.guided import SubwebRule, SubwebSpecification
from repro.net import NoLatency, SeededJitterLatency
from repro.net.faults import FaultPlan, FaultRule
from repro.rdf.namespaces import SNVOC
from repro.solidbench import (
    Fragmentation,
    SolidBenchConfig,
    build_universe,
    discover_query,
    discover_suite,
)
from repro.solid.index import INDEX_PATH

POLICIES = sorted(QUEUE_POLICIES)
LATENCIES = {
    "none": NoLatency(),
    "2-8ms": SeededJitterLatency(seed=9, min_rtt_seconds=0.002, max_rtt_seconds=0.008),
    "20-80ms": SeededJitterLatency(seed=9, min_rtt_seconds=0.02, max_rtt_seconds=0.08),
}


def execute(universe, query, latency=None, **traversal):
    """Run ``query``; returns ``(execution, set of URLs that answered 200)``."""
    engine = universe.engine(
        config=EngineConfig(traversal=TraversalPolicy(**traversal)),
        latency=latency if latency is not None else NoLatency(),
    )
    execution = engine.query(query.text, seeds=query.seeds).run_sync()
    fetched = {record.url for record in engine.client.log.records if record.status == 200}
    return execution, fetched


def test_the_policies_under_test_are_the_registry():
    assert POLICIES == ["fair", "fifo", "guided", "lifo", "priority"]
    assert TraversalPolicy().queue_policy == "fifo"
    assert SolidBenchConfig().emit_hints is True
    for parser in (build_arg_parser(), build_serve_arg_parser()):
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert "--emit-hints" not in flags and "--queue-policy" in flags


class TestSoundOnDefaultPods:
    @pytest.fixture(scope="class")
    def universes(self):
        return {
            mode: build_universe(SolidBenchConfig(scale=0.005, seed=7, fragmentation=mode))
            for mode in Fragmentation
        }

    @pytest.mark.parametrize("mode", list(Fragmentation), ids=lambda mode: mode.value)
    def test_every_query_is_oracle_equal_under_every_order(self, universes, mode):
        universe = universes[mode]
        suite = discover_suite(universe)
        assert len(suite) == 37
        pruned = 0
        for query in suite:
            expected = oracle_bindings(universe, query)
            for policy in POLICIES:
                execution, _ = execute(universe, query, queue_policy=policy)
                assert set(execution.bindings) == expected, (query.name, policy)
                report = execution.stats.completeness()
                assert report["complete"], (query.name, policy)
                # Every pruned link is attributed, by rule and by origin.
                assert report["spec_restricted"] == (report["links_pruned"] > 0)
                assert sum(report["pruned_by_rule"].values()) == report["links_pruned"]
                assert sum(report["pruned_by_origin"].values()) == report["links_pruned"]
                assert all(rule.startswith("hint:") for rule in report["pruned_by_rule"])
                pruned += report["links_pruned"]
        assert pruned > 0


class TestIndependentOfOrderAndTiming:
    @pytest.mark.parametrize("template", range(1, 8))
    def test_one_document_set_under_every_order_and_latency(self, small_universe, template):
        query = discover_query(small_universe, template, 1)
        reference, documents = execute(small_universe, query)
        assert reference.stats.links_pruned > 0
        # The realistic band is slow (a second a run): two templates carry it.
        latencies = LATENCIES if template in (1, 5) else ("none", "2-8ms")
        for policy in POLICIES:
            for name in latencies:
                execution, fetched = execute(
                    small_universe, query, LATENCIES[name], queue_policy=policy
                )
                assert fetched == documents, (policy, name)
                assert execution.stats.pruned_by_rule == reference.stats.pruned_by_rule
                assert Counter(execution.bindings) == Counter(reference.bindings)

    def test_a_multi_pod_crawl_too(self, tiny_universe):
        """Each pod's entry links wait for that pod's index, so Discover 8
        fetches one document set as well (a cross-pod link that lands before
        its pod's card is judged with whatever is known then — here it
        points into containers the query needs either way)."""
        query = discover_query(tiny_universe, 8, 1)
        reference, documents = execute(tiny_universe, query)
        assert reference.stats.pruned_by_rule == {"hint:infra": 2 * tiny_universe.person_count}
        for policy in ("lifo", "guided", "fair"):
            for name in ("none", "2-8ms"):
                execution, fetched = execute(
                    tiny_universe, query, LATENCIES[name], queue_policy=policy
                )
                assert fetched == documents, (policy, name)
                assert execution.stats.pruned_by_rule == reference.stats.pruned_by_rule

    def test_it_is_the_wait_that_makes_it_so(self, small_universe):
        """Depth-first pops the index link *last* of the seed's links: were
        its siblings not parked until it arrives, the root listing would be
        fetched unjudged and the whole pod crawled.  Card, index and the 31
        documents it lists under ``posts/`` — no container listing."""
        query = discover_query(small_universe, 1, 1)
        fifo, _ = execute(small_universe, query, queue_policy="fifo")
        lifo, _ = execute(small_universe, query, queue_policy="lifo")
        assert lifo.stats.documents_fetched == fifo.stats.documents_fetched == 33


class TestAnIndexThatNeverArrives:
    """``paper`` is the same universe built without indexes: the fallback."""

    @pytest.fixture(scope="class")
    def universes(self):
        return {
            publishing: build_universe(
                SolidBenchConfig(scale=0.005, seed=7, emit_hints=publishing)
            )
            for publishing in (True, False)
        }

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "status, counter", [(503, "documents_abandoned"), (404, "documents_failed")]
    )
    def test_a_faulted_index_falls_back_to_the_full_crawl(
        self, universes, policy, status, counter
    ):
        query = discover_query(universes[True], 1, 1)
        paper, paper_documents = execute(universes[False], query)
        universes[True].internet.install_fault_plan(
            FaultPlan([FaultRule(kind="status", status=status, url_pattern=INDEX_PATH)])
        )
        try:
            execution, documents = execute(universes[True], query, queue_policy=policy)
        finally:
            universes[True].internet.install_fault_plan(None)
        assert len(paper.bindings) > 0
        assert Counter(execution.bindings) == Counter(paper.bindings)
        assert documents == paper_documents
        assert execution.stats.links_pruned == 0
        # The one document lost is the index: given up on for good (503,
        # retries spent) or simply not there (404).
        assert getattr(execution.stats, counter) == getattr(paper.stats, counter) + 1

    def test_an_index_the_callers_spec_denies_is_not_waited_for(self, universes):
        spec = SubwebSpecification(
            rules=(SubwebRule(match="**/settings/cardinality", action="deny", label="index"),)
        )
        query = discover_query(universes[True], 1, 1)
        paper, paper_documents = execute(universes[False], query)
        execution, documents = execute(universes[True], query, subweb=spec)
        assert Counter(execution.bindings) == Counter(paper.bindings)
        assert documents == paper_documents
        # Linked twice: by the card's advertisement and by the settings/ listing.
        assert execution.stats.pruned_by_rule == {"spec:index": 2}
        assert execution.stats.completeness()["complete"]

    def test_links_left_waiting_by_a_bounded_run_are_not_reported_pruned(self, universes):
        """``max_documents=1`` stops after the seed: its links still wait for
        the index, like links left in the queue — neither is a prune."""
        query = discover_query(universes[True], 1, 1)
        execution, _ = execute(universes[True], query, max_documents=1)
        assert execution.stats.documents_fetched == 1
        assert execution.stats.links_pruned == 0


class TestExistsBodiesAreSelected:
    """An EXISTS body reads the web like any other pattern: the containers
    it needs are not pruned, so ``FILTER EXISTS {inner}`` answers what the
    join with ``inner`` does and ``FILTER NOT EXISTS {inner}`` the rest.
    The forum containers hold none of the outer pattern's predicates — the
    selector pruned them when its scopes never saw the body."""

    #: (template, variant) → rows of the outer pattern joined with ``inner``.
    JOINED = {(6, 1): 21, (6, 2): 48, (6, 3): 46, (6, 4): 31, (7, 1): 48, (7, 2): 36}
    #: ... and rows of the outer pattern alone.
    ALL = {(6, 1): 63, (6, 2): 79, (6, 3): 93, (6, 4): 72, (7, 1): 77, (7, 2): 85}

    def rows(self, universe, seeds, where):
        text = (
            f"PREFIX snvoc: <{SNVOC.base}>\n"
            f"SELECT DISTINCT ?message ?messageId WHERE {{ {where} }}"
        )
        execution = universe.fast_engine().query(text, seeds=seeds).run_sync()
        assert execution.stats.completeness()["complete"]
        return set(execution.bindings)

    @pytest.mark.parametrize("template, variant", sorted(JOINED))
    def test_exists_is_the_join_and_not_exists_the_rest(self, small_universe, template, variant):
        seeds = discover_query(small_universe, template, variant).seeds
        outer = f"?message snvoc:hasCreator <{seeds[0]}> ; snvoc:id ?messageId ."
        inner = "?forum snvoc:containerOf ?message ; snvoc:title ?t ."
        if template == 7:
            inner += " ?forum snvoc:hasModerator ?m . ?m snvoc:firstName ?f ."
        everything = self.rows(small_universe, seeds, outer)
        joined = self.rows(small_universe, seeds, f"{outer} {inner}")
        assert (len(joined), len(everything)) == (
            self.JOINED[template, variant],
            self.ALL[template, variant],
        )
        assert self.rows(small_universe, seeds, f"{outer} FILTER EXISTS {{ {inner} }}") == joined
        assert (
            self.rows(small_universe, seeds, f"{outer} FILTER NOT EXISTS {{ {inner} }}")
            == everything - joined
        )


def test_exists_is_interpreted_in_the_query_layer_and_the_plan_only():
    """Whoever else needs an EXISTS body asks ``repro.sparql`` for it
    (``exists_patterns`` / ``read_patterns``) instead of walking one."""
    src = Path(repro.__file__).parent
    naming = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative.startswith("sparql/") or relative == "ltqp/pipeline.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, (ast.Attribute, ast.alias)):
                name = node.attr if isinstance(node, ast.Attribute) else node.name
            else:
                continue
            if name == "ExistsExpr":
                naming.append(f"{relative}:{node.lineno}")
    assert naming == []
