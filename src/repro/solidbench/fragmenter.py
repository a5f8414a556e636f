"""Fragmenting the social network into Solid pods.

Mirrors SolidBench's pod layout (visible in the paper's Figs. 2-4):

==========================  ==================================================
``profile/card``            WebID profile: name, knows, likes, pim:storage,
                            solid:publicTypeIndex (paper Listing 2)
``settings/publicTypeIndex``  Type Index with Post/Comment/Forum registrations
                            (paper Listing 3)
``posts/<YYYY-MM-DD>``      posts fragmented by creation date (default)
``comments/<YYYY-MM-DD>``   comments fragmented by creation date
``forums/<id>``             the forums this person moderates
``noise/noise-<n>``         irrelevant documents (traversal chaff)
==========================  ==================================================

Alternative fragmentations (``SINGLE``, ``PER_RESOURCE``) change where
message IRIs live; everything else stays put.  Message IRIs are minted
first so cross-pod references (likes, replyOf) always point at the
document that actually serves the message.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..rdf.namespaces import DBPEDIA, FOAF, RDF, SNTAG, SNVOC
from ..rdf.terms import BlankNode, Literal, NamedNode, XSD_DATETIME, XSD_LONG
from ..rdf.triples import Triple
from ..solid.index import ADVERTISEMENT, INDEX_PATH, SourceIndex, index_url
from ..solid.pod import Pod
from .config import Fragmentation, SolidBenchConfig
from .social import MessageData, PersonData, SocialNetwork

__all__ = ["PodFragmenter"]


class PodFragmenter:
    """Builds one :class:`~repro.solid.pod.Pod` per person."""

    def __init__(self, network: SocialNetwork) -> None:
        self._network = network
        self._config: SolidBenchConfig = network.config
        self._message_iris: dict[int, str] = {}
        self._mint_message_iris()
        # Reverse reply index: SolidBench materializes ``hasReply`` backlinks
        # in the replied-to message's document so traversal can reach
        # comments stored in the commenters' pods (Discover template 3).
        self._replies_by_target: dict[int, list[int]] = {}
        for message in network.messages.values():
            if message.reply_of_id is not None:
                self._replies_by_target.setdefault(message.reply_of_id, []).append(
                    message.message_id
                )

    # ------------------------------------------------------------------
    # IRI minting
    # ------------------------------------------------------------------

    def pod_base(self, person: PersonData) -> str:
        return f"{self._config.host}/pods/{person.pod_name}/"

    def webid(self, person_index: int) -> str:
        person = self._network.persons[person_index]
        return self.pod_base(person) + "profile/card#me"

    def message_iri(self, message_id: int) -> str:
        return self._message_iris[message_id]

    def forum_iri(self, forum_id: int) -> str:
        forum = self._network.forums[forum_id]
        owner = self._network.persons[forum.owner_index]
        return f"{self.pod_base(owner)}forums/{forum_id}#forum"

    def _message_document_path(self, message: MessageData) -> str:
        kind_dir = "posts" if message.kind == "post" else "comments"
        fragmentation = self._config.fragmentation
        if fragmentation is Fragmentation.DATED:
            return f"{kind_dir}/{message.creation_day.isoformat()}"
        if fragmentation is Fragmentation.SINGLE:
            return kind_dir
        return f"{kind_dir}/{message.message_id}"

    def _mint_message_iris(self) -> None:
        for message in self._network.messages.values():
            creator = self._network.persons[message.creator_index]
            path = self._message_document_path(message)
            self._message_iris[message.message_id] = (
                f"{self.pod_base(creator)}{path}#{message.message_id}"
            )

    # ------------------------------------------------------------------
    # pod construction
    # ------------------------------------------------------------------

    def build_pod(self, person: PersonData) -> Pod:
        pod = Pod(self.pod_base(person), owner_name=person.name)
        self._add_message_documents(pod, person)
        self._add_forum_documents(pod, person)
        self._add_noise_documents(pod, person)
        if self._config.emit_hints:
            # Content documents are in place; the index summarizes them, so
            # it must be built before (only) the profile/type index.
            pod.add_document(
                INDEX_PATH, SourceIndex.of_pod(pod, ranges=self._hint_ranges()).to_triples()
            )
        pod.build_profile(extra_triples=self._profile_triples(person))
        pod.build_type_index(
            [
                (SNVOC.Post, "posts/", True),
                (SNVOC.Comment, "comments/", True),
                (SNVOC.Forum, "forums/", True),
            ]
        )
        return pod

    def build_all_pods(self) -> dict[int, Pod]:
        return {person.index: self.build_pod(person) for person in self._network.persons}

    def _hint_ranges(self) -> dict[str, set]:
        """Predicate ranges declared in hint documents, computed from the
        generated network so the declarations are accurate by construction
        (the summaries-are-authoritative trust model requires it)."""
        cached = getattr(self, "_hint_ranges_cache", None)
        if cached is not None:
            return cached
        kind_class = {"post": SNVOC.Post.value, "comment": SNVOC.Comment.value}
        # hasPost / hasComment are exact by construction: the like builder
        # picks the predicate from the liked message's kind.
        ranges: dict[str, set] = {
            SNVOC.hasPost.value: {SNVOC.Post.value},
            SNVOC.hasComment.value: {SNVOC.Comment.value},
        }
        container_classes = {
            kind_class[self._network.messages[message_id].kind]
            for forum in self._network.forums.values()
            for message_id in forum.message_ids
        }
        if container_classes:
            ranges[SNVOC.containerOf.value] = container_classes
        reply_classes = {
            kind_class[message.kind]
            for message in self._network.messages.values()
            if message.reply_of_id is not None
        }
        if reply_classes:
            ranges[SNVOC.hasReply.value] = reply_classes
        self._hint_ranges_cache = ranges
        return ranges

    # ------------------------------------------------------------------
    # document builders
    # ------------------------------------------------------------------

    def _profile_triples(self, person: PersonData) -> list[Triple]:
        me = NamedNode(self.webid(person.index))
        triples = [
            Triple(me, RDF.type, SNVOC.Person),
            Triple(me, SNVOC.id, _long_literal(person.ldbc_id)),
            Triple(me, SNVOC.firstName, Literal(person.first_name)),
            Triple(me, SNVOC.lastName, Literal(person.last_name)),
            Triple(me, SNVOC.isLocatedIn, DBPEDIA[person.city]),
            Triple(me, SNVOC.browserUsed, Literal(person.browser)),
        ]
        if self._config.emit_hints:
            triples.append(
                Triple(me, ADVERTISEMENT, NamedNode(index_url(self.pod_base(person))))
            )
        for friend_index in person.knows:
            friend = NamedNode(self.webid(friend_index))
            triples.append(Triple(me, SNVOC.knows, friend))
            triples.append(Triple(me, FOAF.knows, friend))
        for position, like in enumerate(self._network.likes_of(person.index)):
            like_node = BlankNode(f"like_{person.index}_{position}")
            triples.append(Triple(me, SNVOC.likes, like_node))
            predicate = SNVOC.hasPost if like.message_kind == "post" else SNVOC.hasComment
            triples.append(
                Triple(like_node, predicate, NamedNode(self.message_iri(like.message_id)))
            )
            triples.append(
                Triple(
                    like_node,
                    SNVOC.creationDate,
                    Literal(like.creation_date.isoformat(), datatype=XSD_DATETIME),
                )
            )
        return triples

    def _message_triples(self, message: MessageData) -> list[Triple]:
        iri = NamedNode(self.message_iri(message.message_id))
        creator = NamedNode(self.webid(message.creator_index))
        rdf_class = SNVOC.Post if message.kind == "post" else SNVOC.Comment
        triples = [
            Triple(iri, RDF.type, rdf_class),
            Triple(iri, SNVOC.hasCreator, creator),
            Triple(iri, SNVOC.content, Literal(message.content)),
            Triple(iri, SNVOC.id, _long_literal(message.message_id)),
            Triple(
                iri,
                SNVOC.creationDate,
                Literal(message.creation_date.isoformat(), datatype=XSD_DATETIME),
            ),
            Triple(iri, SNVOC.browserUsed, Literal(message.browser)),
        ]
        for tag in message.tags:
            triples.append(Triple(iri, SNVOC.hasTag, SNTAG[tag]))
        if message.place:
            triples.append(Triple(iri, SNVOC.isLocatedIn, DBPEDIA[message.place]))
        if message.reply_of_id is not None:
            triples.append(
                Triple(iri, SNVOC.replyOf, NamedNode(self.message_iri(message.reply_of_id)))
            )
        for reply_id in self._replies_by_target.get(message.message_id, ()):
            triples.append(Triple(iri, SNVOC.hasReply, NamedNode(self.message_iri(reply_id))))
        return triples

    def _add_message_documents(self, pod: Pod, person: PersonData) -> None:
        by_document: dict[str, list[Triple]] = {}
        for message in self._network.messages.values():
            if message.creator_index != person.index:
                continue
            path = self._message_document_path(message)
            by_document.setdefault(path, []).extend(self._message_triples(message))
        for path, triples in sorted(by_document.items()):
            pod.add_document(path, triples)

    def _add_forum_documents(self, pod: Pod, person: PersonData) -> None:
        for forum in self._network.forums_of(person.index):
            forum_node = NamedNode(self.forum_iri(forum.forum_id))
            triples = [
                Triple(forum_node, RDF.type, SNVOC.Forum),
                Triple(forum_node, SNVOC.id, _long_literal(forum.forum_id)),
                Triple(forum_node, SNVOC.title, Literal(forum.title)),
                Triple(forum_node, SNVOC.hasModerator, NamedNode(self.webid(person.index))),
            ]
            for message_id in forum.message_ids:
                triples.append(
                    Triple(forum_node, SNVOC.containerOf, NamedNode(self.message_iri(message_id)))
                )
            pod.add_document(f"forums/{forum.forum_id}", triples)

    def _add_noise_documents(self, pod: Pod, person: PersonData) -> None:
        # Noise is deterministic per person, independent of generation order.
        rng = random.Random(f"{self._config.seed}/noise/{person.index}")
        noise_ns = f"{self.pod_base(person)}noise/vocab#"
        for file_number in range(self._config.noise_files_per_person):
            path = f"noise/noise-{file_number}"
            document_iri = self.pod_base(person) + path
            triples = []
            for triple_number in range(self._config.noise_triples_per_file):
                subject = NamedNode(f"{document_iri}#entity{triple_number % 7}")
                predicate = NamedNode(f"{noise_ns}p{rng.randrange(12)}")
                triples.append(
                    Triple(subject, predicate, Literal(f"noise-{rng.randrange(1_000_000)}"))
                )
            pod.add_document(path, triples)


def _long_literal(value: int) -> Literal:
    return Literal(str(value), datatype=XSD_LONG)
