"""Property test: every queue discipline pops in its reference-model order.

``LinkQueue`` is one heap keyed by a per-policy score taken once, when a
link is admitted (push or requeue).  The reference model below keeps no
heap and no running counters: it scores each admission from the history
of admissions before it and, at every pop, takes the minimum score over
the pending links, ties broken by admission order.  If a score tuple is
transcribed wrong — fair counting by URL instead of by origin, guided
losing its query-predicate promotion — the two pop sequences diverge.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltqp.extractors import QueryContext
from repro.ltqp.links import (
    EXTRACTOR_RANK,
    QUEUE_POLICIES,
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


def reference_score(policy, link, seq, history):
    """The score of ``link``, admitted ``seq``-th after the links in ``history``."""
    kind = link.provenance.extractor if link.provenance else link.via
    rank = EXTRACTOR_RANK.get(kind, 9)
    if policy == "guided":
        joins = link.provenance is not None and link.provenance.predicate == QUERY_PREDICATE
        return (2.5 if joins and rank > 2.5 else rank,)
    if policy == "fair":
        host = link.url.split("/")[2]
        return (sum(1 for earlier in history if earlier.url.split("/")[2] == host),)
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
    ),
    max_size=60,
)


@pytest.mark.parametrize("policy", sorted(QUEUE_POLICIES))
@settings(max_examples=150, deadline=None)
@given(operations=operations)
def test_pop_order_matches_reference_model(policy, operations):
    context = QueuePolicyContext(
        query=QueryContext(predicates=frozenset({NamedNode(QUERY_PREDICATE)}))
    )
    queue = build_queue(queue_factory_for(policy), context)
    pending, admitted, seen, popped = [], [], set(), []

    def admit(link):
        seq = len(admitted) + 1
        pending.append((reference_score(policy, link, seq, admitted), seq, link))
        admitted.append(link)

    for action, argument in operations + [("pop", None)] * len(operations):
        if action == "push":
            assert queue.push(argument) == (argument.url not in seen)
            if argument.url not in seen:
                seen.add(argument.url)
                admit(argument)
        elif action == "requeue" and popped:
            retry = dataclasses.replace(popped.pop(), attempts=1)
            queue.requeue(retry)
            admit(retry)
        elif action == "pop" and pending:
            expected = min(pending, key=lambda entry: entry[:2])
            pending.remove(expected)
            got = queue.pop()
            assert (got.url, got.attempts) == (expected[2].url, expected[2].attempts)
            popped.append(got)
        assert len(queue) == len(pending)
    assert queue.empty
