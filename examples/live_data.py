"""Querying live, changing pods — no index to refresh (paper §1).

A key LTQP selling point the paper states directly: a traversal-based
approach "does not rely on prior indexes over Solid pods, and can query
over live data that is spread over multiple pods."

This example runs a query, then *changes the world* — one person posts a
new message via a Solid ``PATCH`` (SPARQL Update), another publishes a
brand-new document via ``PUT`` — and re-runs the same query.  The new
answers appear immediately, because there is no index that could have
gone stale.

Run:  python examples/live_data.py
"""

import asyncio

from repro.net.message import Request
from repro.rdf import SNVOC
from repro.solidbench import SolidBenchConfig, build_universe, discover_query

SNB = f"PREFIX snvoc: <{SNVOC.base}>\n"


async def write(universe, method, url, body, content_type, session):
    request = Request(
        method,
        url,
        headers={"content-type": content_type, **session.headers},
        body=body.encode("utf-8"),
    )
    response = await universe.internet.dispatch(request)
    print(f"{method} {url} -> {response.status}")
    return response


def count_results(universe, query):
    engine = universe.fast_engine()
    return len(engine.query(query.text, seeds=query.seeds).run_sync())


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
    query = discover_query(universe, template=2, variant=1)  # all messages of P
    person_index = query.person_index
    pod = universe.pod_of(person_index)
    person = universe.network.persons[person_index]
    print(f"{query.name} for {person.name}\n")

    before = count_results(universe, query)
    print(f"results before updates: {before}")

    session = universe.idp.login(universe.webid(person_index))

    # 1. PATCH an existing document: the person writes a new post into
    #    one of their dated post files.
    target_path = next(p for p in pod.document_paths() if p.startswith("posts/"))
    target_url = pod.base_url + target_path
    patch_body = SNB + (
        f"INSERT DATA {{ <{target_url}#breaking> a snvoc:Post ;\n"
        f"  snvoc:hasCreator <{pod.webid}> ;\n"
        f'  snvoc:content "Breaking: live updates work!" ;\n'
        f"  snvoc:id 999999 . }}"
    )
    asyncio.run(write(universe, "PATCH", target_url, patch_body,
                      "application/sparql-update", session))

    # 2. PUT a brand-new document: it appears in the pod's LDP container
    #    listing, so traversal discovers it with no further setup.
    new_url = pod.base_url + "posts/2026-07-07"
    put_body = (
        f"<{new_url}#fresh> a <{SNVOC.Post.value}> ;\n"
        f"  <{SNVOC.hasCreator.value}> <{pod.webid}> ;\n"
        f'  <{SNVOC.content.value}> "A whole new document." ;\n'
        f"  <{SNVOC.id.value}> 1000000 ."
    )
    asyncio.run(write(universe, "PUT", new_url, put_body, "text/turtle", session))

    after = count_results(universe, query)
    print(f"results after updates:  {after}  (+{after - before})")
    assert after == before + 2
    print("\nno index was rebuilt — traversal found the new data by itself.")


if __name__ == "__main__":
    main()
