"""Every setting reaches every door.

Each setting has one home — the layer that acts on it — and every front
door builds its stack bottom-up through one of two builders, so a setting
given at a door must show in the *behaviour* of the stack behind it:

=============  ==========================================================
door           what builds the stack
=============  ==========================================================
``bare``       ``universe.engine(config=, lenient=, auth_headers=)``
``service``    ``QueryService(SharedResources.for_universe(..., config=))``
``shard``      ``ShardSpec(...).build()`` — the function a worker process
               calls, run in-process (it regenerates its own universe)
``serve``      ``cli.build_service_stack(args)`` from ``serve`` flags
=============  ==========================================================

A door is left out of a setting only where it has no spelling for it (and
this suite pins that it still has none): ``ShardSpec`` carries no auth
headers, and ``serve`` has no ``--strict`` / ``--no-retry`` / ``--idp``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, NamedTuple, Optional

import pytest

from repro.cli import build_serve_arg_parser, build_service_stack
from repro.ltqp import (
    DereferenceError,
    EngineConfig,
    ExecutionResult,
    LinkTraversalEngine,
    NetworkPolicy,
    TraversalPolicy,
)
from repro.net import NoLatency
from repro.net.faults import FaultPlan
from repro.service import QueryService, ShardSpec, SharedResources
from repro.solidbench import SolidBenchConfig, build_universe, discover_query
from repro.solidbench.adversary import AdversaryPlan, deploy_adversary

CONFIG = SolidBenchConfig(scale=0.005, seed=7)
READ_CAP = 64 * 1024

DOORS = ("bare", "service", "shard", "serve")
#: (setting, door) pairs the door cannot spell.
UNSPELLABLE = {
    ("auth", "shard"),
    ("auth", "serve"),
    ("strict", "serve"),
    ("no-retry", "serve"),
}


def doors_for(setting: str) -> list[str]:
    return [door for door in DOORS if (setting, door) not in UNSPELLABLE]


class Stack(NamedTuple):
    """What is behind a door: its engine, and how a query is run there."""

    engine: LinkTraversalEngine
    run: Callable[[str, list[str]], ExecutionResult]

    @property
    def internet(self):
        return self.engine.client.internet

    def dereference(self, url: str):
        return asyncio.run(self.engine.dereferencer.dereference(url))


@pytest.fixture()
def open_door():
    """``open_door(door, config=, flags=, lenient=, login=)`` → :class:`Stack`.

    ``config`` / ``lenient`` / ``login`` (a person index to log in as)
    spell the setting for the three library doors, ``flags`` for ``serve``.
    Every door gets a universe of its own, so fault plans, adversaries and
    ACL edits never leak between cells."""
    hosts = []

    def open_(
        door: str,
        config: Optional[EngineConfig] = None,
        flags: Optional[list[str]] = None,
        lenient: bool = True,
        login: Optional[int] = None,
    ) -> Stack:
        if door == "serve":
            assert lenient and login is None, "serve has no flag for these"
            argv = ["--simulate", str(CONFIG.scale), "--bench-seed", str(CONFIG.seed)]
            args = build_serve_arg_parser().parse_args(
                [*argv, "--no-latency", "--port", "0", *(flags or [])]
            )
            host = build_service_stack(args).service_host
            hosts.append(host)
            return Stack(
                host.service.engine, lambda text, seeds: host.execute(text, seeds=seeds)
            )
        config = config if config is not None else EngineConfig()
        if door == "shard":
            assert login is None, "ShardSpec carries no auth headers"
            spec = ShardSpec(config=CONFIG, latency=NoLatency(), engine=config, lenient=lenient)
            return in_process(spec.build())
        universe = build_universe(CONFIG)
        settings = dict(config=config, latency=NoLatency(), lenient=lenient)
        if login is not None:
            settings["auth_headers"] = universe.idp.login(universe.webid(login)).headers
        if door == "service":
            return in_process(QueryService(SharedResources.for_universe(universe, **settings)))
        engine = universe.engine(**settings)
        return Stack(
            engine, lambda text, seeds: engine.query(text, seeds=seeds).run_sync().result
        )

    def in_process(service: QueryService) -> Stack:
        return Stack(
            service.engine, lambda text, seeds: asyncio.run(service.run(text, seeds=seeds))
        )

    yield open_
    for host in hosts:
        host.stop()


@pytest.fixture(scope="module")
def reference():
    """A universe equal to every door's, for query texts, seeds and URLs."""
    return build_universe(CONFIG)


def test_the_unspellable_cells_are_still_unspellable():
    assert "auth_headers" not in {field.name for field in dataclasses.fields(ShardSpec)}
    serve_flags = {
        flag for action in build_serve_arg_parser()._actions for flag in action.option_strings
    }
    assert not serve_flags & {"--strict", "--lenient", "--no-retry", "--idp"}
    assert {"--max-doc-bytes", "--max-documents"} <= serve_flags


@pytest.mark.parametrize("door", doors_for("read-cap"))
def test_read_cap_refuses_an_oversized_document_as_doc_bytes(open_door, door):
    stack = open_door(
        door,
        config=EngineConfig(network=NetworkPolicy(max_response_bytes=READ_CAP)),
        flags=["--max-doc-bytes", str(READ_CAP)],
    )
    # The client that fetches runs the cap it was built with ...
    assert stack.engine.client.policy.max_response_bytes == READ_CAP
    hostile = deploy_adversary(
        stack.internet,
        AdversaryPlan(seed=31, kinds=("oversized-doc",), oversized_bytes=1 << 20),
    )
    # ... so the transfer is aborted there (``doc-bytes``), not swallowed
    # whole and turned away at the parser (``parse-bytes``).
    result = stack.dereference(hostile.origins[0] + "/huge")
    assert result.refused == "doc-bytes"
    assert result.bytes_fetched <= READ_CAP
    report = stack.run("SELECT ?s WHERE { ?s ?p ?o }", hostile.lures).stats.completeness()
    assert report["refusals_by_kind"] == {"doc-bytes": 1}
    assert set(report["refusals_by_origin"]) == {hostile.origins[0]}


@pytest.mark.parametrize("door", doors_for("max-documents"))
def test_max_documents_bounds_every_query_with_no_override(open_door, reference, door):
    query = discover_query(reference, 1, 1)
    bounded = open_door(
        door,
        config=EngineConfig(traversal=TraversalPolicy(max_documents=5)),
        flags=["--max-documents", "5"],
    )
    assert bounded.engine.traversal.max_documents == 5
    assert 0 < bounded.run(query.text, list(query.seeds)).stats.documents_fetched <= 5
    unbounded = open_door(door)
    assert unbounded.run(query.text, list(query.seeds)).stats.documents_fetched > 5


@pytest.mark.parametrize("door", doors_for("strict"))
def test_strict_mode_raises_on_a_dead_seed(open_door, door):
    query = "SELECT ?o WHERE { <https://nowhere.invalid/x> <https://p/p> ?o }"
    seeds = ["https://nowhere.invalid/x"]
    with pytest.raises(DereferenceError):
        open_door(door, lenient=False).run(query, seeds)
    lenient = open_door(door).run(query, seeds)
    assert (len(lenient.results), lenient.stats.documents_failed) == (0, 1)


@pytest.mark.parametrize("door", doors_for("no-retry"))
def test_no_retry_policy_never_retries_under_faults(open_door, reference, door):
    query = discover_query(reference, 1, 1)

    def retries(config: Optional[EngineConfig]) -> tuple[int, int]:
        stack = open_door(door, config=config)
        stack.internet.install_fault_plan(FaultPlan.transient(rate=0.3, seed=5))
        stats = stack.run(query.text, list(query.seeds)).stats
        return stats.http_retries, stack.engine.client.resilience.retries

    assert retries(EngineConfig(network=NetworkPolicy.no_retry())) == (0, 0)
    retried, by_client = retries(None)  # the plan bites under the default policy
    assert retried == by_client > 0


@pytest.mark.parametrize("door", doors_for("auth"))
def test_owner_headers_read_what_a_stranger_is_refused(open_door, reference, door):
    """The access-controlled document of ``examples/authenticated_query.py``."""
    owner = 0
    query = discover_query(reference, 1, 1, person_index=owner)

    posts = reference.pod_of(owner).base_url + "posts/"

    def read_as(login: Optional[int]) -> tuple[int, int]:
        """(status of the private container, results) behind a fresh door."""
        stack = open_door(door, login=login)
        server = stack.internet.app_for(CONFIG.host)
        server.acl_for(reference.pod_of(owner)).restrict("posts/")
        result = stack.run(query.text, list(query.seeds))
        return stack.dereference(posts).status, len(result.results)

    status, results = read_as(owner)
    assert status == 200 and results > 0
    assert read_as(owner + 1) == (403, 0)  # authenticated, not authorized
    assert read_as(None) == (401, 0)


@pytest.mark.parametrize("door", DOORS)
def test_source_selection_runs_behind_every_door_with_no_setting(open_door, reference, door):
    """Not a setting at all: every door's pods publish their index and every
    door's engine reads it, so the same query prunes the same links."""
    query = discover_query(reference, 1, 1)
    bare = reference.fast_engine().query(query.text, seeds=query.seeds).run_sync().stats
    assert bare.pruned_by_rule == {"hint:infra": 2}
    stats = open_door(door).run(query.text, list(query.seeds)).stats
    assert (stats.pruned_by_rule, stats.documents_fetched, stats.result_count) == (
        bare.pruned_by_rule, bare.documents_fetched, bare.result_count
    )
    paper = build_universe(dataclasses.replace(CONFIG, emit_hints=False))
    crawl = paper.fast_engine().query(query.text, seeds=query.seeds).run_sync().stats
    assert crawl.links_pruned == 0 and crawl.documents_fetched > 2 * bare.documents_fetched
