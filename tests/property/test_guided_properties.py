"""Property tests for queue-discipline equivalence and guided traversal.

The invariant that makes the queue discipline an *optimization knob*
rather than a semantics knob: at equal budgets, every discipline —
including ``guided`` with no spec and no hints — must yield the result
multiset that fifo yields; traversal saturates the same reachable
document set regardless of pop order.  With a subweb specification the
answer is the *spec-restricted* one: still order-independent (the
defer/release machinery re-queues links whose source is admitted later),
and equal to the unrestricted answer whenever the spec only excludes
non-contributing documents.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ltqp import EngineConfig, TraversalPolicy
from repro.ltqp.guided import SubwebRule, SubwebSpecification
from repro.obs import TickClock, Tracer
from repro.rdf.namespaces import SNVOC
from repro.solidbench import SolidBenchConfig, build_universe, discover_query

#: (template, variant) pairs that exercise distinct traversal shapes:
#: single-pod fan-out, forum hops, cross-pod likes.
QUERIES = [(1, 1), (2, 1), (3, 1), (5, 1), (6, 1)]

DISCIPLINES = ["lifo", "priority", "fair", "guided"]


@pytest.fixture(scope="module")
def hinted_universe():
    """Tiny universe whose pods publish cardinality-hint documents."""
    return build_universe(SolidBenchConfig(scale=0.01, seed=7, emit_hints=True))


def run(universe, template, variant, tracer=None, **config_kwargs):
    query = discover_query(universe, template, variant)
    engine = universe.fast_engine(config=EngineConfig(traversal=TraversalPolicy(**config_kwargs)))
    return engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()


def multiset(execution) -> list[str]:
    return sorted(repr(binding) for binding in execution.bindings)


#: The bench-style spec: content scoped per pod (source = origin + 2 path
#: segments), foreign sources admitted only when reached via these
#: predicates — exactly how SolidBench data links pods together.
def declared_spec() -> SubwebSpecification:
    return SubwebSpecification(
        origins="declared",
        source_depth=2,
        admit_origins_via=(
            SNVOC.likes.value,
            SNVOC.hasPost.value,
            SNVOC.hasComment.value,
            SNVOC.hasReply.value,
            SNVOC.hasModerator.value,
        ),
    )


class TestDisciplineEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        discipline=st.sampled_from(DISCIPLINES),
        query=st.sampled_from(QUERIES),
    )
    def test_every_discipline_matches_fifo(self, tiny_universe, discipline, query):
        template, variant = query
        fifo = run(tiny_universe, template, variant, queue_policy="fifo")
        other = run(tiny_universe, template, variant, queue_policy=discipline)
        assert multiset(other) == multiset(fifo)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        discipline=st.sampled_from(DISCIPLINES),
        query=st.sampled_from(QUERIES),
    )
    def test_hinted_guided_matches_unhinted_fifo(
        self, tiny_universe, hinted_universe, discipline, query
    ):
        # Hints prune infrastructure and irrelevant containers, never
        # answer-contributing documents: the hinted universe must answer
        # exactly like the plain one, under every discipline.
        template, variant = query
        plain = run(tiny_universe, template, variant, queue_policy="fifo")
        hinted = run(hinted_universe, template, variant, queue_policy=discipline)
        assert multiset(hinted) == multiset(plain)


class TestSpecRestrictedAnswer:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=st.sampled_from(QUERIES))
    def test_declared_origins_spec_preserves_discover_answers(
        self, hinted_universe, query
    ):
        # The Discover answers live entirely in sources reachable through
        # the admit predicates, so the spec-restricted answer equals the
        # full answer — while links_pruned shows the spec did engage.
        template, variant = query
        full = run(hinted_universe, template, variant, queue_policy="fifo")
        guided = run(
            hinted_universe,
            template,
            variant,
            queue_policy="guided",
            subweb=declared_spec(),
        )
        assert multiset(guided) == multiset(full)
        assert guided.stats.completeness()["spec_restricted"]

    def test_deny_rule_restricts_the_answer(self, hinted_universe):
        # Denying the posts containers removes exactly the post results.
        full = run(hinted_universe, 1, 1, queue_policy="fifo")
        spec = SubwebSpecification(
            rules=(SubwebRule(match="**/posts/**", action="deny", label="no-posts"),)
        )
        restricted = run(
            hinted_universe, 1, 1, queue_policy="guided", subweb=spec
        )
        assert set(multiset(restricted)) < set(multiset(full))
        report = restricted.stats.completeness()
        assert report["spec_restricted"]
        assert any(rule.startswith("spec:") for rule in report["pruned_by_rule"])


class TestGuidedCostPinned:
    """What guiding buys, as counts on a tick clock: variant 1 of every
    single-pod template, fifo vs guided + the declared-origins spec on the
    hinted scale-0.02 / seed-42 universe.  No latency and a TickClock make
    dereference counts and times-to-first-result (in trace events) exact
    replay properties; the rows are those of the ``guided`` experiment in
    ``EXPERIMENTS.json``."""

    #: template → (results, fifo derefs, guided derefs, fifo TTFR ticks,
    #: guided TTFR ticks, links pruned).  The two TTFR columns count clock
    #: reads, and were re-pinned when the growing source became plan-aware
    #: (PR 20): a document that keeps no quad no longer flushes the pipeline
    #: before the first result, so fewer ``advance-batch`` spans read the
    #: clock on the way there (template 7 fifo 1.687 → 1.407).  The four
    #: count columns did not move.
    PINNED = {
        1: (26, 102, 29, 1.609, 0.157, 8),
        2: (70, 110, 74, 0.361, 0.236, 5),
        3: (52, 177, 137, 2.897, 0.329, 8),
        4: (25, 157, 98, 0.385, 0.271, 29),
        5: (18, 143, 46, 1.589, 0.179, 24),
        6: (7, 100, 33, 1.505, 0.583, 6),
        7: (1, 117, 60, 1.407, 1.282, 7),
    }

    @pytest.fixture(scope="class")
    def universe(self):
        return build_universe(SolidBenchConfig(scale=0.02, seed=42, emit_hints=True))

    @pytest.mark.parametrize("template", sorted(PINNED))
    def test_dereferences_ttfr_and_pruning_are_exact(self, universe, template):
        fifo = run(universe, template, 1, Tracer(clock=TickClock()), queue_policy="fifo")
        guided = run(
            universe, template, 1, Tracer(clock=TickClock()),
            queue_policy="guided", subweb=declared_spec(),
        )
        assert multiset(guided) == multiset(fifo)
        assert (
            len(fifo.bindings),
            fifo.stats.documents_fetched,
            guided.stats.documents_fetched,
            round(fifo.stats.time_to_first_result, 4),
            round(guided.stats.time_to_first_result, 4),
            guided.stats.links_pruned,
        ) == self.PINNED[template]
