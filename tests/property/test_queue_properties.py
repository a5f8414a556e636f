"""Property test: every score discipline pops in its reference-model order.

``LinkQueue`` is one heap keyed by a per-policy score function; the guided
policy's scores move while links wait (result-contribution boosts) and
are refreshed by the queue's one re-score mechanism.  The reference model
below keeps no heap and no staleness flag: it re-scores *every* pending
link at *every* pop and takes the minimum, ties broken by push order.  If
a score tuple is transcribed wrong, or a boost fails to trigger a
re-score, the two pop sequences diverge.  (``fair`` is a rotation, not a
score; its order is pinned by the unit tests in ``tests/ltqp``.)
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltqp.extractors import QueryContext
from repro.ltqp.links import (
    EXTRACTOR_RANK,
    Link,
    LinkProvenance,
    QueuePolicyContext,
    build_queue,
    queue_factory_for,
)
from repro.rdf import NamedNode

QUERY_PREDICATE = "http://x/likes"
CONTAINERS = ["https://a.example/pods/1/posts/", "https://a.example/pods/1/noise/",
              "https://b.example/pods/2/posts/"]
ENTITIES = {CONTAINERS[0]: 7, CONTAINERS[2]: 3}


class Hints:
    """Duck-typed stand-in for CardinalityHints: entities per container."""

    def pod_for(self, url):
        return self

    def container_for(self, url):
        count = ENTITIES.get(url[: url.rfind("/") + 1])
        return SimpleNamespace(entities=count) if count else None


def reference_score(policy, link, seq, boosts):
    kind = link.provenance.extractor if link.provenance else link.via
    rank = EXTRACTOR_RANK.get(kind, 9)
    if policy == "guided":
        joins = link.provenance is not None and link.provenance.predicate == QUERY_PREDICATE
        tier = 2.5 if joins and rank > 2.5 else rank
        container = link.url[: link.url.rfind("/") + 1]
        return (tier, -boosts.get(container, 0), link.depth, -ENTITIES.get(container, 0))
    return {"fifo": (), "lifo": (-seq,), "priority": (link.depth, rank)}[policy]


links = st.builds(
    lambda container, name, depth, kind, predicate, bare: Link(
        url=f"{container}{name}",
        depth=depth,
        via=kind,
        provenance=None if bare else LinkProvenance(extractor=kind, predicate=predicate),
    ),
    st.sampled_from(CONTAINERS),
    st.integers(0, 9),
    st.integers(0, 3),
    st.sampled_from(sorted(EXTRACTOR_RANK) + ["third-party"]),
    st.sampled_from([None, QUERY_PREDICATE, "http://x/other"]),
    st.booleans(),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), links),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("requeue"), st.none()),
        st.tuples(st.just("contribute"), st.sampled_from(CONTAINERS)),
    ),
    max_size=60,
)


@pytest.mark.parametrize("policy", ["fifo", "lifo", "priority", "guided"])
@settings(max_examples=150, deadline=None)
@given(operations=operations)
def test_pop_order_matches_reference_model(policy, operations):
    context = QueuePolicyContext(
        query=QueryContext(predicates=frozenset({NamedNode(QUERY_PREDICATE)})), hints=Hints()
    )
    queue = build_queue(queue_factory_for(policy), context)
    pending, seen, boosts, popped, seq = [], set(), {}, [], 0
    for action, argument in operations + [("pop", None)] * len(operations):
        if action == "push":
            assert queue.push(argument) == (argument.url not in seen)
            if argument.url not in seen:
                seen.add(argument.url)
                seq += 1
                pending.append((seq, argument))
        elif action == "requeue" and popped:
            retry = dataclasses.replace(popped.pop(), attempts=1)
            queue.requeue(retry)
            seq += 1
            pending.append((seq, retry))
        elif action == "contribute" and policy == "guided":
            queue.note_result_contribution(argument + "some-post")
            boosts[argument] = boosts.get(argument, 0) + 1
        elif action == "pop" and pending:
            expected = min(
                pending, key=lambda e: (reference_score(policy, e[1], e[0], boosts), e[0])
            )
            pending.remove(expected)
            got = queue.pop()
            assert (got.url, got.attempts) == (expected[1].url, expected[1].attempts)
            popped.append(got)
        assert len(queue) == len(pending)
    assert queue.empty
