"""Unit tests for universe assembly and statistics."""

import asyncio

from repro.net import NoLatency, Request
from repro.rdf import SNTAG
from repro.rdf.terms import Literal, NamedNode, intern_iri, term_to_ntriples
from repro.solidbench import build_universe
from repro.solidbench.config import PAPER_SCALE_TARGETS, SolidBenchConfig


class TestUniverse:
    def test_pods_served_over_internet(self, tiny_universe):
        client = tiny_universe.client(latency=NoLatency())
        webid = tiny_universe.webid(0)
        response = asyncio.run(client.fetch(webid))
        assert response.status == 200
        assert "publicTypeIndex" in response.text

    def test_vocabulary_origin_serves_tags(self, tiny_universe):
        client = tiny_universe.client(latency=NoLatency())
        tag_url = SNTAG["Albert_Einstein"].value
        response = asyncio.run(client.fetch(tag_url))
        assert response.status == 200

    def test_oracle_dataset_covers_all_documents(self, tiny_universe):
        oracle = tiny_universe.oracle_dataset()
        stats = tiny_universe.statistics()
        assert len(oracle) == stats["triples"]
        graph_count = sum(1 for _ in oracle.graph_names())
        assert graph_count == stats["files"]

    def test_oracle_is_cached(self, tiny_universe):
        assert tiny_universe.oracle_dataset() is tiny_universe.oracle_dataset()

    def test_oracle_follows_writes_to_the_pods(self):
        universe = build_universe(SolidBenchConfig(scale=0.005, seed=7))
        webid = universe.webid(0)
        name = NamedNode("http://xmlns.com/foaf/0.1/name")
        stale = universe.oracle_dataset()
        (old,) = [q.object for q in stale.match(intern_iri(webid), name, None)]
        url = webid.split("#", 1)[0]
        server = universe.server
        headers = {"content-type": "application/sparql-update"}
        headers.update(server.login_owner(url[len(server.origin):]))
        update = (
            f"DELETE DATA {{ <{webid}> <{name.value}> {term_to_ntriples(old)} }} ;\n"
            f'INSERT DATA {{ <{webid}> <{name.value}> "Renamed" }}'
        )
        response = asyncio.run(
            universe.internet.dispatch(Request("PATCH", url, headers, update.encode("utf-8")))
        )
        assert response.status < 300, response.body
        fresh = universe.oracle_dataset()
        assert fresh is not stale
        assert [q.object for q in fresh.match(intern_iri(webid), name, None)] == [Literal("Renamed")]
        # Built again, it is cached again until the next write.
        assert universe.oracle_dataset() is fresh

    def test_statistics_ratios_close_to_paper(self, small_universe):
        # §4.2: 158,233 files / 1,531 pods and 3,556,159 triples / 158,233 files.
        stats = small_universe.statistics()
        assert stats["files_per_pod"] == (
            stats["files"] / stats["pods"]
        )
        paper_files_per_pod = PAPER_SCALE_TARGETS["files_per_pod"]
        paper_triples_per_file = PAPER_SCALE_TARGETS["triples_per_file"]
        assert abs(stats["files_per_pod"] - paper_files_per_pod) / paper_files_per_pod < 0.15
        assert (
            abs(stats["triples_per_file"] - paper_triples_per_file) / paper_triples_per_file < 0.15
        )

    def test_person_count_scales(self):
        assert SolidBenchConfig(scale=1.0).person_count == 1531
        assert SolidBenchConfig(scale=0.1).person_count == 153

    def test_idp_issues_usable_sessions(self, tiny_universe):
        session = tiny_universe.idp.login(tiny_universe.webid(1))
        assert tiny_universe.idp.resolve(session.token) == tiny_universe.webid(1)
