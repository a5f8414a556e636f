"""Standing queries: signed deltas instead of re-execution.

``examples/live_data.py`` shows the paper's "live data" point the way
the demo makes it: change a pod, re-run the query, the new answers are
there — no index to refresh.  This example shows the stronger form this
repo adds on top: a *standing* query that never re-runs.  After the
initial traversal the pipeline stays open; an edit costs one
conditional fetch of the changed document, one diff against the stored
parse, and a signed delta (``+1`` binding appeared / ``-1`` binding
retracted) through the retained operators.  The performance ledger's
``live_edits`` workload (``BENCHMARK.json``) measures this path:
milliseconds per edit against seconds for a re-execution.

Two layers are demonstrated:

1. :class:`repro.ltqp.live.LiveQuery` directly — ``start()``, an
   owner-authenticated PATCH, ``refresh(url)`` returning the signed
   events;
2. the same thing hosted on a :class:`repro.service.QueryService` —
   ``subscribe()``, ``apply_update()``, and the event queue a client
   would long-poll (over HTTP this is ``GET /subscribe`` +
   ``POST /update``; ``repro-sparql-ltqp watch`` is the CLI form).

Run:  python examples/live_queries.py
"""

import asyncio
from urllib.parse import urlsplit

from repro.ltqp.live import LiveQuery
from repro.net import NoLatency
from repro.net.message import Request
from repro.service import QueryService, SharedResources
from repro.solidbench import SolidBenchConfig, build_universe

FOAF = "http://xmlns.com/foaf/0.1/"


def show(events) -> None:
    for event in events:
        sign = f"+{event.delta}" if event.delta > 0 else str(event.delta)
        row = ", ".join(
            f"?{var.value}={term}" for var, term in sorted(
                event.binding.items(), key=lambda item: item[0].value
            )
        )
        suffix = f"  # {event.url}" if event.url else ""
        print(f"  {sign} {row}{suffix}")


async def patch(universe, url: str, update: str) -> None:
    """Owner-authenticated SPARQL Update against one pod document."""
    parts = urlsplit(url)
    app = universe.internet.app_for(f"{parts.scheme}://{parts.netloc}")
    headers = {"content-type": "application/sparql-update"}
    headers.update(app.login_owner(parts.path))
    response = await universe.internet.dispatch(
        Request("PATCH", url, headers, update.encode("utf-8"))
    )
    print(f"PATCH {url} -> {response.status}")


def rename(webid: str, old: str, new: str) -> str:
    return (
        f'DELETE DATA {{ <{webid}> <{FOAF}name> "{old}" }} ;\n'
        f'INSERT DATA {{ <{webid}> <{FOAF}name> "{new}" }}'
    )


async def standing_live_query(universe) -> None:
    """Layer 1: LiveQuery — the engine-level standing query."""
    pod = next(iter(universe.pods.values()))
    query = (
        f"SELECT ?friend ?name WHERE {{ <{pod.webid}> <{FOAF}knows> ?friend . "
        f"?friend <{FOAF}name> ?name }}"
    )
    engine = universe.fast_engine()
    live = LiveQuery(engine, query, seeds=[pod.profile_url])

    initial = await live.start()
    print(f"friends of {pod.owner_name}: {len(initial)} initial results")

    # Rename one friend in their own pod, then refresh just that document.
    binding = {var.value: term for var, term in initial[0].items()}
    friend, old_name = binding["friend"].value, binding["name"].value
    document = friend.split("#", 1)[0]
    await patch(universe, document, rename(friend, old_name, "Vera Updated"))

    events = await live.refresh(document)
    print(f"refresh({document.rsplit('/', 2)[-2]}/...): {len(events)} signed events")
    show(events)
    # current_results() is always exactly the replay of the event log.
    assert sum(live.current_results().values()) == len(initial)
    live.close()


async def service_subscription(universe) -> None:
    """Layer 2: the same standing query hosted on the QueryService."""
    pod = next(iter(universe.pods.values()))
    resources = SharedResources.for_universe(universe, latency=NoLatency())
    service = QueryService(resources)

    query = f"SELECT ?name WHERE {{ <{pod.webid}> <{FOAF}name> ?name }}"
    subscription = await service.subscribe(query, seeds=[pod.profile_url])
    queue = subscription.queue()  # pre-loaded with the full event history
    print(f"\nsubscribed {subscription.id}: owner name of {pod.owner_name}")
    show([await queue.get()])

    # The service applies the edit (owner-authenticated PATCH) and drains
    # the change notification into the subscription's event stream.
    report = await service.apply_update(
        pod.profile_url, rename(pod.webid, pod.owner_name, "Renamed Owner")
    )
    print(f"apply_update -> HTTP {report['status']}, {report['events']} events")
    show([await queue.get() for _ in range(2)])

    await subscription.close()
    assert await queue.get() is None  # end-of-stream sentinel
    print(f"closed; {service.statistics()['subscriptions']} subscriptions remain")


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))

    async def run():
        await standing_live_query(universe)
        await service_subscription(universe)

    asyncio.run(run())


if __name__ == "__main__":
    main()
