"""Source selection: same answers, a fraction of the dereferences.

Every pod of the default SolidBench universe publishes a
``settings/cardinality`` source index describing its containers
(classes, predicates, document/entity counts) and its infrastructure,
and every execution reads what the pods it meets publish.  The same
Discover query, three ways:

* paper-shaped pods (``emit_hints=False``) — nothing published, so the
  engine crawls everything reachable: the paper's zero-knowledge run;
* default pods, the same fifo engine — the index prunes infrastructure
  and query-irrelevant containers (whatever the queue order);
* default pods, guided order + a subweb spec — the queue additionally
  ranks what is left, and the caller's spec scopes traversal to declared
  sources: foreign pods are only admitted when an already-fetched
  triple links to them via one of the spec's predicates.

All three produce the identical result multiset; the stats show where
the saved dereferences went (``pruned_by_rule`` attributes every
skipped link).

Run:  python examples/guided_traversal.py
"""

from repro.ltqp import EngineConfig, TraversalPolicy
from repro.ltqp.guided import SubwebRule, SubwebSpecification
from repro.net import NoLatency
from repro.rdf.namespaces import SNVOC
from repro.solidbench import SolidBenchConfig, build_universe, discover_query


def declared_spec() -> SubwebSpecification:
    return SubwebSpecification(
        origins="declared",
        source_depth=2,  # a "source" is origin + /pods/<name>/
        admit_origins_via=(
            SNVOC.likes.value,
            SNVOC.hasPost.value,
            SNVOC.hasComment.value,
            SNVOC.hasReply.value,
            SNVOC.hasModerator.value,
        ),
        rules=(SubwebRule(match="**/noise/**", action="deny", label="noise"),),
    )


def run(universe, query, **config_kwargs):
    engine = universe.engine(latency=NoLatency(), config=EngineConfig(traversal=TraversalPolicy(**config_kwargs)))
    return engine.query(query.text, seeds=query.seeds).run_sync()


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
    paper = build_universe(SolidBenchConfig(scale=0.01, seed=42, emit_hints=False))
    query = discover_query(universe, template=1, variant=1)
    print(f"running {query.name}: {query.description}")

    fifo = run(paper, query)
    print(
        f"\npaper-shaped pods, fifo:   {len(fifo)} results, "
        f"{fifo.stats.documents_fetched} documents fetched"
    )

    guided = run(universe, query)
    print(
        f"default pods, fifo:        {len(guided)} results, "
        f"{guided.stats.documents_fetched} documents fetched"
    )

    scoped = run(
        universe, query, queue_policy="guided", subweb=declared_spec()
    )
    print(
        f"default, guided + spec:    {len(scoped)} results, "
        f"{scoped.stats.documents_fetched} documents fetched"
    )

    identical = (
        sorted(map(repr, fifo.bindings))
        == sorted(map(repr, guided.bindings))
        == sorted(map(repr, scoped.bindings))
    )
    print(f"\nidentical result multisets: {identical}")

    report = scoped.stats.completeness()
    print(f"spec-restricted answer: {report['spec_restricted']}")
    print("pruned links by rule:")
    for rule, count in sorted(report["pruned_by_rule"].items()):
        print(f"  {rule:<24} {count}")


if __name__ == "__main__":
    main()
