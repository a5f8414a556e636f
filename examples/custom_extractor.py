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
    """Follow the first few ``snvoc:knows`` edges of each document to
    friends' WebIDs.

    Not part of the paper's stack — it demonstrates how a five-line module
    changes traversal behaviour: the engine starts exploring the social
    neighbourhood instead of staying inside the seed pod.

    It declares the one predicate it ``reads`` and takes that bucket of the
    parsed document, so the rest of the document is never looked at; and it
    keeps nothing between calls — an extractor instance serves every query
    of its engine.
    """

    name = "friends"

    def __init__(self, friends_per_document: int = 10) -> None:
        self._cap = friends_per_document

    def reads(self, context):
        return (SNVOC.knows,)

    def discover(self, document_url, document, context):
        provenance = LinkProvenance(extractor=self.name, predicate=SNVOC.knows.value)
        knows = document.select(self.reads(context))  # this bucket only, in document order
        friends = [triple.object for triple in knows if isinstance(triple.object, NamedNode)]
        for friend in friends[: self._cap]:
            yield friend.value, provenance


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

    with_friends = standard + [FriendExtractor(friends_per_document=2)]
    run(universe, query, with_friends, "standard + friends")

    minimal = [MatchIriExtractor(), StorageExtractor(), TypeIndexExtractor()]
    run(universe, query, minimal, "no container crawl")


if __name__ == "__main__":
    main()
