"""Quickstart: query a simulated Solid environment by link traversal.

Builds a small SolidBench universe (the paper's demo environment in
miniature), picks a predefined Discover query, executes it with the
link-traversal engine, and prints the streamed results plus execution
statistics.

Run:  python examples/quickstart.py
"""

from repro.bench import render_waterfall, build_waterfall
from repro.obs import Tracer
from repro.solidbench import SolidBenchConfig, build_universe, discover_query


def main() -> None:
    # 1. A simulated decentralized environment: ~15 pods of social data
    #    behind a simulated HTTP layer (paper §4.2 uses 1,531 pods).
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
    print(f"simulated environment: {universe.statistics()}")

    # 2. One of the 37 predefined queries: all posts of a person.
    query = discover_query(universe, template=1, variant=5)
    print(f"\nrunning {query.name}: {query.description}")
    print(query.text)

    # 3. Execute by link traversal, starting from the person's WebID.
    #    The tracer records the span tree the waterfall is drawn from.
    engine = universe.engine()
    tracer = Tracer()
    result = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()

    # 4. Results streamed in while traversal was still running.
    for timed in result.results[:5]:
        print(f"  [{timed.elapsed:.3f}s] {timed.binding}")
    if len(result) > 5:
        print(f"  ... and {len(result) - 5} more")

    print(f"\nstatistics: {result.stats.summary()}")

    # 5. The resource waterfall (paper Fig. 4): what was fetched, when,
    #    and which document's links led there.
    print(render_waterfall(build_waterfall(tracer), max_rows=15))


if __name__ == "__main__":
    main()
