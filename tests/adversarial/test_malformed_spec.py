"""A subweb spec a pod publishes is a declaration like its source index:
one that does not parse is ignored and counted, never raised.

The attack needs no hostile origin: a pod owner PATCHes a rule with an
action outside ``allow|deny`` (or an unknown origin mode / default action)
into their own profile.  Every query that reads the profile absorbs it;
were the parse error to escape, each of them would fail.  It is turned
away instead — counted in ``completeness()["declarations_rejected"]``
like an index declaring a foreign pod — and the query answers exactly as
if the profile held no spec.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.net.message import Request
from repro.rdf.namespaces import SUBWEB
from repro.solidbench import SolidBenchConfig, build_universe, discover_query

MALFORMED = {
    "rule action": f'<#r> <{SUBWEB.match.value}> "**" ; <{SUBWEB.action.value}> "maybe" .',
    "origin mode": f'<#spec> <{SUBWEB.origins.value}> "some" .',
    "default action": f'<#spec> <{SUBWEB.defaultAction.value}> "perhaps" .',
}


@pytest.fixture()
def universe():
    """A private universe: the owner edits their profile."""
    return build_universe(SolidBenchConfig(scale=0.005, seed=7))


def run(universe, query):
    execution = universe.fast_engine().query(query.text, seeds=query.seeds).run_sync()
    return Counter(execution.bindings), execution.stats.completeness()


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_a_spec_that_does_not_parse_is_ignored_and_counted(universe, kind):
    query = discover_query(universe, 1, 1)
    (profile,) = query.seeds
    before, report = run(universe, query)
    assert before and report["declarations_rejected"] == 0

    server = universe.server
    headers = {
        "content-type": "application/sparql-update",
        **server.login_owner(profile[len(server.origin):]),
    }
    body = f"BASE <{profile}>\nINSERT DATA {{ {MALFORMED[kind]} }}".encode("utf-8")
    response = asyncio.run(universe.internet.dispatch(Request("PATCH", profile, headers, body)))
    assert response.status == 200, response.body

    after, report = run(universe, query)
    assert after == before
    assert report["declarations_rejected"] == 1
    assert report["complete"]
