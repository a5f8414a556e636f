"""Unit tests for the pod fragmenter."""

import pytest

from repro.rdf import LDP, NamedNode, PIM, RDF, SNVOC, SOLID
from repro.solidbench.config import Fragmentation, SolidBenchConfig
from repro.solidbench.fragmenter import PodFragmenter
from repro.solid.index import INDEX_PATH
from repro.solidbench.social import generate_social_network


@pytest.fixture(scope="module")
def fragmenter():
    network = generate_social_network(SolidBenchConfig(scale=0.01, seed=3))
    return PodFragmenter(network)


@pytest.fixture(scope="module")
def pods(fragmenter):
    return fragmenter.build_all_pods()


class TestLayout:
    def test_standard_documents_present(self, pods):
        for pod in pods.values():
            assert pod.has_document("profile/card")
            assert pod.has_document("settings/publicTypeIndex")

    def test_posts_fragmented_by_date(self, pods):
        pod = next(iter(pods.values()))
        post_paths = [p for p in pod.document_paths() if p.startswith("posts/")]
        assert post_paths
        for path in post_paths:
            day = path.split("/", 1)[1]
            assert len(day) == 10 and day[4] == "-" and day[7] == "-"

    def test_noise_documents_present(self, pods, fragmenter):
        pod = next(iter(pods.values()))
        noise = [p for p in pod.document_paths() if p.startswith("noise/")]
        assert len(noise) == SolidBenchConfig(scale=0.01).noise_files_per_person

    def test_profile_links_follow_paper_listings(self, pods, fragmenter):
        pod = next(iter(pods.values()))
        profile = pod.document("profile/card")
        predicates = {t.predicate for t in profile.triples}
        assert PIM.storage in predicates          # Listing 2
        assert SOLID.publicTypeIndex in predicates

    def test_type_index_registers_post_comment_forum(self, pods):
        pod = next(iter(pods.values()))
        index = pod.document("settings/publicTypeIndex")
        classes = {t.object for t in index.triples if t.predicate == SOLID.forClass}
        assert classes == {SNVOC.Post, SNVOC.Comment, SNVOC.Forum}


class TestCrossPodLinks:
    def test_message_iris_point_into_creator_pod(self, fragmenter):
        network = fragmenter._network
        for message in list(network.messages.values())[:50]:
            iri = fragmenter.message_iri(message.message_id)
            creator = network.persons[message.creator_index]
            assert f"/pods/{creator.pod_name}/" in iri

    def test_likes_reference_other_pods(self, pods, fragmenter):
        network = fragmenter._network
        crossing = 0
        for person in network.persons:
            pod = pods[person.index]
            profile = pod.document("profile/card")
            for triple in profile.triples:
                if triple.predicate in (SNVOC.hasPost, SNVOC.hasComment):
                    if not triple.object.value.startswith(pod.base_url):
                        crossing += 1
        assert crossing > 0  # likes cross pod boundaries → multi-pod traversal

    def test_knows_links_are_webids(self, pods, fragmenter):
        pod = next(iter(pods.values()))
        profile = pod.document("profile/card")
        for triple in profile.triples:
            if triple.predicate == SNVOC.knows:
                assert triple.object.value.endswith("profile/card#me")

    def test_forum_container_of_matches_owner_posts(self, pods, fragmenter):
        network = fragmenter._network
        person = network.persons[0]
        pod = pods[0]
        forum_paths = [p for p in pod.document_paths() if p.startswith("forums/")]
        assert forum_paths
        for path in forum_paths:
            doc = pod.document(path)
            members = [t.object for t in doc.triples if t.predicate == SNVOC.containerOf]
            for member in members:
                assert f"/pods/{person.pod_name}/" in member.value


class TestFragmentationModes:
    def build(self, fragmentation):
        config = SolidBenchConfig(scale=0.01, seed=3, fragmentation=fragmentation)
        network = generate_social_network(config)
        fragmenter = PodFragmenter(network)
        return network, fragmenter, fragmenter.build_all_pods()

    def test_single_mode_one_document_per_kind(self):
        _, _, pods = self.build(Fragmentation.SINGLE)
        pod = next(iter(pods.values()))
        post_paths = [p for p in pod.document_paths() if p.startswith("posts")]
        assert post_paths == ["posts"]

    def test_per_resource_mode_one_document_per_message(self):
        network, _, pods = self.build(Fragmentation.PER_RESOURCE)
        person = network.persons[0]
        pod = pods[0]
        posts = network.posts_of(0)
        post_paths = [p for p in pod.document_paths() if p.startswith("posts/")]
        assert len(post_paths) == len(posts)

    def test_total_triples_invariant_across_fragmentations(self):
        """Content triples: the published index has a summary per container
        or root-level document, so its size legitimately follows the layout."""
        totals = []
        for mode in Fragmentation:
            _, _, pods = self.build(mode)
            totals.append(
                sum(
                    len(document.triples)
                    for pod in pods.values()
                    for document in pod.documents()
                    if document.path != INDEX_PATH
                )
            )
        assert len(set(totals)) == 1
