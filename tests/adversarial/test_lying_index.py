"""A source index speaks for its own pod only (ROADMAP 3: with hints a
default, the lying-pod adversary is mandatory; arXiv:2210.04631).

The attack: a hostile origin publishes a ``subweb:cardinalityIndex``
document *about a victim's pod* — ``completeIndex true``, the victim's
root as ``infra``, and summaries that make every victim container look
irrelevant — and gets it absorbed before the crawl reaches the victim.
Taken at face value it prunes the victim out of the query.  It is not:
a declaration counts only when the declared base is a directory prefix
of the index document's own URL, so this one is turned away (and counted
in ``completeness()``) and the victim's rows are intact.

What a pod says about *itself* stays its own business: a pod whose index
hides its own content loses its own rows, attributed ``hint:*``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import oracle_bindings
from repro.ltqp import QUEUE_POLICIES, EngineConfig, TraversalPolicy
from repro.net.router import StaticApp
from repro.rdf.namespaces import PIM, SUBWEB
from repro.rdf.terms import Literal, NamedNode, Variable
from repro.rdf.triples import Triple
from repro.rdf.writer import serialize_turtle
from repro.solidbench import SolidBenchConfig, build_universe, discover_query
from repro.solid.index import INDEX_PATH

HOSTILE = "https://adv-liar-0.example"
NONSENSE = NamedNode(HOSTILE + "/vocab#Nothing")


def lying_index(about: str, url: str) -> list[Triple]:
    """A complete index for the pod at ``about``, served from ``url``:
    every container listed, none with a class or predicate a query uses."""
    index = NamedNode(url + "#index")
    triples = [
        Triple(index, SUBWEB.pod, NamedNode(about)),
        Triple(index, SUBWEB.completeIndex, Literal("true")),
        Triple(index, SUBWEB.infra, NamedNode(about)),
    ]
    for name in ("posts/", "comments/", "forums/", "noise/"):
        node = NamedNode(f"{url}#c-{name}")
        triples += [
            Triple(node, SUBWEB.container, NamedNode(about + name)),
            Triple(node, SUBWEB["class"], NONSENSE),
            Triple(node, SUBWEB.predicate, NONSENSE),
        ]
    return triples


@pytest.fixture()
def universe():
    """A private universe: the attack edits a benign document."""
    return build_universe(SolidBenchConfig(scale=0.005, seed=7))


def creators_pod(universe, query):
    """A pod other than the asker's that rows are drawn from."""
    home = universe.pod_of(query.person_index).base_url
    creators = {binding[Variable("creator")].value for binding in oracle_bindings(universe, query)}
    bases = sorted({webid.split("profile/card")[0] for webid in creators} - {home})
    assert bases, "Discover 8 must reach another pod"
    return bases[0]


@pytest.mark.parametrize("policy", sorted(QUEUE_POLICIES))
def test_a_hostile_index_for_a_victims_pod_is_rejected_mid_crawl(universe, policy):
    query = discover_query(universe, 8, 1)
    expected = oracle_bindings(universe, query)
    victim = creators_pod(universe, query)
    in_victim = {b for b in expected if victim in repr(b)}
    assert in_victim

    # The hostile origin: a storage root advertising "its" index, which
    # describes the victim's pod instead.
    app = StaticApp()
    root, index_url = HOSTILE + "/", HOSTILE + "/settings/cardinality"
    app.put("/", serialize_turtle([
        Triple(NamedNode(root + "#it"), SUBWEB.cardinalityIndex, NamedNode(index_url)),
    ]))
    app.put("/settings/cardinality", serialize_turtle(lying_index(victim, index_url)))
    universe.internet.register(HOSTILE, app)
    # Reached by a link, one hop from the seed.
    card = universe.pod_of(query.person_index).document("profile/card")
    card.triples.append(
        Triple(NamedNode(query.seeds[0] + "#me"), PIM.storage, NamedNode(root))
    )

    engine = universe.fast_engine(
        config=EngineConfig(traversal=TraversalPolicy(queue_policy=policy))
    )
    execution = engine.query(query.text, seeds=query.seeds).run_sync()
    fetched = [record.url for record in engine.client.log.records]
    assert index_url in fetched
    if policy == "guided":
        # Storage and hint links outrank data links there: the lie is in
        # before the crawl first touches the victim's pod.
        assert fetched.index(index_url) < min(
            position for position, url in enumerate(fetched) if url.startswith(victim)
        )
    assert set(execution.bindings) == expected
    assert in_victim <= set(execution.bindings)
    report = execution.stats.completeness()
    assert report["complete"]
    assert report["declarations_rejected"] == 1
    # What was pruned is what benign pods said of themselves — as without the attack.
    assert set(report["pruned_by_rule"]) == {"hint:infra"}
    assert set(report["pruned_by_origin"]) == {universe.config.host}


def test_a_pod_lying_about_itself_loses_its_own_rows_attributed(universe):
    query = discover_query(universe, 8, 1)
    expected = oracle_bindings(universe, query)
    victim = creators_pod(universe, query)
    (liar,) = [pod for pod in universe.pods.values() if pod.base_url == victim]
    liar.add_document(
        INDEX_PATH, lying_index(victim, victim + INDEX_PATH)
    )

    execution = universe.fast_engine().query(query.text, seeds=query.seeds).run_sync()
    got = Counter(execution.bindings)
    lost = expected - set(got)
    assert lost and all(victim in repr(binding) for binding in lost)
    assert set(got) == expected - lost
    report = execution.stats.completeness()
    assert report["declarations_rejected"] == 0
    assert report["spec_restricted"]
    assert report["pruned_by_rule"]["hint:irrelevant"] > 0
