"""Plugging in a custom link-extraction strategy (paper §3).

"we have implemented our approach as several small modules, which allows
modules to be enabled or disabled using a plug-and-play configuration
system for the flexible combination of techniques during experimentation"

This example writes a new extractor — one that follows ``snvoc:knows``
links to friends' WebIDs (a social-graph crawler) — combines it with the
standard stack, and compares traversal footprints across configurations.

Run:  python examples/custom_extractor.py
"""

from repro.ltqp import (
    LdpContainerExtractor,
    LinkExtractor,
    LinkProvenance,
    MatchIriExtractor,
    StorageExtractor,
    TypeIndexExtractor,
)
from repro.rdf import NamedNode, SNVOC
from repro.solidbench import SolidBenchConfig, build_universe, discover_query


class FriendExtractor(LinkExtractor):
    """Follow ``snvoc:knows`` edges to friends' WebIDs, up to a budget.

    Not part of the paper's stack — it demonstrates how a five-line module
    changes traversal behaviour: the engine starts exploring the social
    neighbourhood instead of staying inside the seed pod.
    """

    name = "friends"

    def __init__(self, max_friends: int = 10) -> None:
        self._budget = max_friends

    def discover(self, document_url, triples, context):
        provenance = LinkProvenance(extractor=self.name, predicate=SNVOC.knows.value)
        for triple in triples:
            if self._budget <= 0:
                return
            if triple.predicate == SNVOC.knows and isinstance(triple.object, NamedNode):
                self._budget -= 1
                yield triple.object.value, provenance


def run(universe, query, extractors, label):
    engine = universe.engine(extractors=extractors)
    result = engine.query(query.text, seeds=query.seeds).run_sync()
    print(f"{label:<22} results={len(result):4d}  documents={result.stats.documents_fetched:4d}  "
          f"links={result.stats.links_queued:4d}  by={result.stats.links_by_extractor}")
    return result


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
    query = discover_query(universe, template=2, variant=1)
    print(f"{query.name}: {query.description}\n")

    standard = [
        MatchIriExtractor(),
        LdpContainerExtractor(),
        StorageExtractor(),
        TypeIndexExtractor(),
    ]
    run(universe, query, standard, "standard stack")

    # Fresh instances: extractors may carry per-execution state.
    with_friends = [
        MatchIriExtractor(),
        LdpContainerExtractor(),
        StorageExtractor(),
        TypeIndexExtractor(),
        FriendExtractor(max_friends=5),
    ]
    run(universe, query, with_friends, "standard + friends")

    minimal = [MatchIriExtractor(), StorageExtractor(), TypeIndexExtractor()]
    run(universe, query, minimal, "no container crawl")


if __name__ == "__main__":
    main()
