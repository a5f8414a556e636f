"""A member list speaks for its own unit only.

A complete source index that lists a unit's members sends the engine from
the index straight to those documents, with no container listing in
between — so a listed URL counts only when it lies below that unit's
container, which lies inside the pod the index is served from.  A
``subweb:member`` pointing anywhere else (another origin, another pod, a
unit of the same pod the query has no use for) is dropped when the index
is read: it is never dereferenced on the index's say-so, and the answer is
still the oracle's.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import oracle_bindings
from repro.rdf import NamedNode, ParsedDocument, Triple
from repro.rdf.namespaces import SUBWEB
from repro.solid.index import INDEX_PATH, SourceIndex, index_url
from repro.solidbench import SolidBenchConfig, build_universe, discover_query

STRAYS = ("another origin", "another pod", "another unit")


@pytest.fixture()
def universe():
    """A private universe: the pod's index is rewritten."""
    return build_universe(SolidBenchConfig(scale=0.005, seed=7))


def stray_member(universe, pod, where: str) -> str:
    if where == "another origin":
        return "https://adv-members.example/posts/2010-01-01"
    if where == "another pod":
        victim = next(other for other in universe.pods.values() if other is not pod)
        return victim.base_url + next(
            path for path in victim.document_paths() if path.startswith("posts/")
        )
    return pod.base_url + "noise/noise-0"


def lying_index(pod, stray: str) -> list[Triple]:
    """The pod's own index, its ``posts/`` unit also listing ``stray``."""
    published = index_url(pod.base_url)
    return [
        *SourceIndex.of_pod(pod).to_triples(),
        Triple(NamedNode(f"{published}#c-posts/"), SUBWEB.member, NamedNode(stray)),
    ]


@pytest.mark.parametrize("where", STRAYS)
def test_a_member_outside_its_unit_is_dropped_when_read(universe, where):
    query = discover_query(universe, 1, 1)
    pod = universe.pod_of(query.person_index)
    honest = SourceIndex.of_pod(pod)
    read = SourceIndex.from_document(
        index_url(pod.base_url), ParsedDocument(lying_index(pod, stray_member(universe, pod, where)))
    )
    assert read == honest
    assert read.container_for(pod.base_url + "posts/").members


@pytest.mark.parametrize("where", STRAYS)
def test_a_stray_member_is_never_fetched_and_costs_no_row(universe, where):
    query = discover_query(universe, 1, 1)
    pod = universe.pod_of(query.person_index)
    stray = stray_member(universe, pod, where)
    pod.add_document(INDEX_PATH, lying_index(pod, stray))

    engine = universe.fast_engine()
    execution = engine.query(query.text, seeds=query.seeds).run_sync()
    fetched = [record.url for record in engine.client.log.records]
    assert stray not in fetched
    assert Counter(execution.bindings) == Counter(oracle_bindings(universe, query))
    assert execution.stats.links_by_extractor["hint-member"] > 0
    assert not any(url.endswith("/posts/") for url in fetched)
    assert execution.stats.completeness()["complete"]
