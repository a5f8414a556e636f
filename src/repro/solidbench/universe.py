"""Assembling the simulated SolidBench environment.

Ties everything together: generate the social network, fragment it into
pods, mount the pods on a :class:`~repro.solid.server.SolidServer`, stand
up the tag/place vocabulary origin (so links like ``dbpedia.org/Germany``
in the paper's Fig. 5 dereference to something), and expose factories for
clients, engines, and the ground-truth oracle dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.client import HttpClient
from ..net.latency import LatencyModel, NoLatency, SeededJitterLatency
from ..net.log import RequestLog
from ..net.resilience import NetworkPolicy
from ..net.router import Internet, StaticApp
from ..rdf.dataset import Dataset
from ..rdf.namespaces import DBPEDIA, RDFS, SNTAG
from ..rdf.terms import Literal, NamedNode
from ..rdf.triples import Triple
from ..rdf.writer import serialize_turtle
from ..solid.auth import IdentityProvider
from ..solid.pod import Pod
from ..solid.server import SolidServer
from ..ltqp.dereference import Dereferencer
from ..ltqp.engine import EngineConfig, LinkTraversalEngine
from ..ltqp.extractors import LinkExtractor
from .config import SolidBenchConfig
from .fragmenter import PodFragmenter
from .social import PLACE_NAMES, TAG_NAMES, SocialNetwork, generate_social_network

__all__ = ["SolidBenchUniverse", "build_universe"]


@dataclass
class SolidBenchUniverse:
    """A fully wired simulated Solid environment."""

    config: SolidBenchConfig
    network: SocialNetwork
    fragmenter: PodFragmenter
    pods: dict[int, Pod]
    server: SolidServer
    internet: Internet
    idp: IdentityProvider
    _oracle: Optional[Dataset] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------

    def webid(self, person_index: int) -> str:
        return self.fragmenter.webid(person_index)

    def pod_of(self, person_index: int) -> Pod:
        return self.pods[person_index]

    @property
    def person_count(self) -> int:
        return len(self.network.persons)

    # ------------------------------------------------------------------
    # client / engine factories
    # ------------------------------------------------------------------

    def client(
        self,
        latency: Optional[LatencyModel] = None,
        log: Optional[RequestLog] = None,
        cache=None,
        policy: Optional[NetworkPolicy] = None,
    ) -> HttpClient:
        return HttpClient(
            self.internet,
            latency=latency if latency is not None else SeededJitterLatency(seed=self.config.seed),
            log=log,
            cache=cache,
            policy=policy,
        )

    def engine(
        self,
        extractors: Optional[list[LinkExtractor]] = None,
        config: Optional[EngineConfig] = None,
        latency: Optional[LatencyModel] = None,
        auth_headers: Optional[dict[str, str]] = None,
        lenient: bool = True,
    ) -> LinkTraversalEngine:
        """The bare stack, built bottom-up: a client running
        ``config.network``, a dereferencer owning ``lenient`` and
        ``auth_headers``, an engine owning ``config.traversal`` and
        ``extractors`` — no HTTP cache, no document store (the shared
        stack is :class:`~repro.service.SharedResources`)."""
        config = config if config is not None else EngineConfig()
        client = self.client(latency=latency, policy=config.network)
        dereferencer = Dereferencer(client, lenient=lenient, extra_headers=auth_headers)
        return LinkTraversalEngine(dereferencer, extractors=extractors, traversal=config.traversal)

    def fast_engine(self, **kwargs) -> LinkTraversalEngine:
        """An engine with zero simulated latency (for tests)."""
        kwargs.setdefault("latency", NoLatency())
        return self.engine(**kwargs)

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------

    def oracle_dataset(self) -> Dataset:
        """Union of *all* generated documents, with per-document graphs.

        Evaluating a query here gives the complete answer over the whole
        universe — the completeness reference for LTQP executions.  Built
        once and kept until the server accepts a write, so it always
        answers over the pods as they are now, and a universe whose pods
        are being edited does not keep a copy of every document resident.
        """
        if self._oracle is None:
            dataset = Dataset()
            for pod in self.pods.values():
                for document in pod.documents():
                    graph = NamedNode(pod.document_url(document.path))
                    dataset.add_triples(document.triples, graph)
            dataset.take_changes()  # no pipeline reads the oracle
            self._oracle = dataset
            self.server.add_change_listener(self._forget_oracle)
        return self._oracle

    def _forget_oracle(self, url: str) -> None:
        """Server write listener: the cached oracle no longer holds."""
        self._oracle = None
        self.server.remove_change_listener(self._forget_oracle)

    # ------------------------------------------------------------------
    # statistics (bench E5)
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """Dataset statistics in the shape the paper reports (§4.2)."""
        file_count = 0
        triple_count = 0
        for pod in self.pods.values():
            paths = pod.document_paths()
            file_count += len(paths)
            triple_count += pod.triple_count()
        return {
            "pods": len(self.pods),
            "files": file_count,
            "triples": triple_count,
            "files_per_pod": file_count / max(1, len(self.pods)),
            "triples_per_file": triple_count / max(1, file_count),
        }


def _build_vocabulary_app(config: SolidBenchConfig) -> tuple[str, StaticApp]:
    """The external origin serving tag and place documents.

    SolidBench hosts a DBpedia/tag slice next to the pods; traversal
    reaches it through ``snvoc:hasTag`` / ``snvoc:isLocatedIn`` objects
    (the "Germany" request in the paper's Fig. 5).
    """
    origin = "https://solidbench.linkeddatafragments.org"
    app = StaticApp()
    for tag in TAG_NAMES:
        node = SNTAG[tag]
        triples = [
            Triple(node, RDFS.label, Literal(tag.replace("_", " "))),
        ]
        path = "/" + node.value.split(origin + "/", 1)[1] if node.value.startswith(origin) else None
        if path:
            app.put(path, serialize_turtle(triples))
    for place in PLACE_NAMES:
        node = DBPEDIA[place]
        triples = [Triple(node, RDFS.label, Literal(place))]
        if node.value.startswith(origin):
            path = "/" + node.value.split(origin + "/", 1)[1]
            app.put(path, serialize_turtle(triples))
    # The SNB vocabulary terms themselves are dereferenceable (the engine
    # follows predicate IRIs of matching triples under cMatch).
    from ..rdf.namespaces import RDF, SNVOC

    for local in (
        "Person", "Post", "Comment", "Forum", "hasCreator", "content", "id",
        "creationDate", "browserUsed", "hasTag", "isLocatedIn", "replyOf",
        "hasReply", "likes", "hasPost", "hasComment", "knows", "containerOf",
        "hasModerator", "title", "firstName", "lastName",
    ):
        node = SNVOC[local]
        triples = [Triple(node, RDFS.label, Literal(local))]
        if node.value.startswith(origin):
            path = "/" + node.value.split(origin + "/", 1)[1]
            app.put(path, serialize_turtle(triples))
    return origin, app


def build_universe(config: Optional[SolidBenchConfig] = None) -> SolidBenchUniverse:
    """Generate and wire a complete simulated SolidBench environment."""
    if config is None:
        config = SolidBenchConfig()
    network = generate_social_network(config)
    fragmenter = PodFragmenter(network)
    pods = fragmenter.build_all_pods()

    idp = IdentityProvider(config.host)
    server = SolidServer(config.host, idp=idp)
    for pod in pods.values():
        server.mount(pod)

    internet = Internet()
    internet.register(config.host, server)
    vocab_origin, vocab_app = _build_vocabulary_app(config)
    if vocab_origin != config.host:
        internet.register(vocab_origin, vocab_app)

    return SolidBenchUniverse(
        config=config,
        network=network,
        fragmenter=fragmenter,
        pods=pods,
        server=server,
        internet=internet,
        idp=idp,
    )
