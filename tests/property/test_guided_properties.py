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
def hinted_universe(tiny_universe):
    """Default pods: each publishes its cardinality-hint document."""
    assert tiny_universe.config.emit_hints
    return tiny_universe


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
        self, paper_tiny_universe, hinted_universe, discipline, query
    ):
        # Hints prune infrastructure and irrelevant containers, never
        # answer-contributing documents: the hinted universe must answer
        # exactly like the plain one, under every discipline.
        template, variant = query
        plain = run(paper_tiny_universe, template, variant, queue_policy="fifo")
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
    """What source selection buys, and what guided order plus a caller's
    spec add to it, as counts on a tick clock: variant 1 of every
    single-pod template as the three columns of the ``guided`` experiment
    in ``EXPERIMENTS.json`` — the paper's fifo crawl of pods that publish
    nothing, the same fifo engine on default pods (each publishes its
    source index), and default pods under guided order + the
    declared-origins spec — on the scale-0.02 / seed-42 universe.  No
    latency and a TickClock make dereference counts and
    times-to-first-result (in trace events) exact replay properties."""

    #: template → (results; dereferences paper / default / guided+spec;
    #: TTFR ticks paper / default / guided+spec; links pruned default /
    #: guided+spec).  The paper columns are the full crawl of pods that
    #: publish nothing.  On default pods the index lists each relevant unit's
    #: members, so the unit's container listing is never fetched (one or two
    #: fewer documents per template) and the first dated document is one
    #: level nearer the seed (an earlier TTFR).
    PINNED = {
        1: (26, 101, 33, 28, 1.607, 0.151, 0.133, 2, 8),
        2: (70, 109, 75, 72, 0.359, 0.217, 0.208, 2, 5),
        3: (52, 176, 140, 135, 2.883, 2.179, 0.281, 2, 8),
        4: (25, 156, 123, 96, 0.383, 0.243, 0.243, 2, 29),
        5: (18, 142, 66, 45, 1.587, 0.177, 0.159, 2, 24),
        6: (7, 99, 35, 31, 1.503, 0.561, 0.555, 2, 6),
        7: (1, 116, 63, 58, 1.405, 1.269, 1.254, 2, 7),
    }

    @pytest.fixture(scope="class")
    def universes(self):
        return {
            publishing: build_universe(
                SolidBenchConfig(scale=0.02, seed=42, emit_hints=publishing)
            )
            for publishing in (False, True)
        }

    @pytest.mark.parametrize("template", sorted(PINNED))
    def test_dereferences_ttfr_and_pruning_are_exact(self, universes, template):
        def ticked(publishing, **policy):
            return run(universes[publishing], template, 1, Tracer(clock=TickClock()), **policy)

        paper = ticked(False, queue_policy="fifo")
        default = ticked(True, queue_policy="fifo")
        guided = ticked(True, queue_policy="guided", subweb=declared_spec())
        assert multiset(default) == multiset(guided) == multiset(paper)
        assert paper.stats.links_pruned == 0
        assert (
            len(paper.bindings),
            *(e.stats.documents_fetched for e in (paper, default, guided)),
            *(round(e.stats.time_to_first_result, 4) for e in (paper, default, guided)),
            default.stats.links_pruned,
            guided.stats.links_pruned,
        ) == self.PINNED[template]
