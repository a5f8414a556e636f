"""Multi-pod traversal: the paper's Discover 8.5 scenario (§4.2, Fig. 5).

"Discover 8.5 targets multiple Solid pods and will return all posts by
authors of posts that a given person likes. ... all of this happens
automatically in the background without requiring any user interaction."

This example runs that query, then dissects *how* the engine crossed pod
boundaries: which pods were touched, which extractor discovered each
link, and how results streamed in while traversal was still running.

Run:  python examples/multi_pod_traversal.py
"""

import re
from collections import Counter

from repro.bench import build_waterfall, render_waterfall
from repro.obs import Tracer
from repro.solidbench import SolidBenchConfig, build_universe, discover_query


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.02, seed=42))
    query = discover_query(universe, template=8, variant=4)
    person = universe.network.persons[query.person_index]
    print(f"{query.name}: {query.description}")
    print(f"seed person: {person.name} ({query.seeds[0]})\n")

    engine = universe.engine()
    tracer = Tracer()
    result = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()

    # Which pods did traversal reach, starting from one WebID?
    pods = Counter()
    for record in engine.client.log.records:
        match = re.search(r"/pods/(\d+)/", record.url)
        if match:
            pods[match.group(1)] += 1
    print(f"{len(result)} results from {len(pods)} pods "
          f"({result.stats.documents_fetched} documents, "
          f"{result.stats.links_queued} links queued)")
    for pod_name, requests in pods.most_common(5):
        owner = next(
            p.name for p in universe.network.persons if p.pod_name == pod_name
        )
        print(f"  pod {pod_name} ({owner}): {requests} requests")

    # Which extractors found the links? (paper §2: Solid-specific +
    # Solid-agnostic strategies work together)
    print(f"\nlinks per extractor: {result.stats.links_by_extractor}")

    # Streaming profile: results arrive while traversal is running.
    times = [timed.elapsed for timed in result.results]
    if times:
        print(f"first result: {times[0]:.3f}s, last: {times[-1]:.3f}s, "
              f"traversal finished: {result.stats.total_time:.3f}s")

    print("\nResource waterfall (cf. paper Fig. 5):")
    print(render_waterfall(build_waterfall(tracer), max_rows=20))


if __name__ == "__main__":
    main()
