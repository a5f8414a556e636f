"""Hostile pods vs traversal hardening: bound the attack, keep the answer.

Deploys the seeded hostile-pod generator (a link trap, a growing
document, an oversized document, and a cross-pod poisoner, each on its
own origin) next to the benign SolidBench pods, lures traversal into it,
and runs the same Discover query twice:

* unhardened — the engine chases the trap until its global document
  budget saves it, swallows the oversized document whole, and emits
  fabricated (watermarked) results the poisoner planted;
* hardened — per-origin dereference budgets, a per-document byte cap,
  and fair queueing contain every attack, the refusals are attributed
  by kind and origin in ``stats.completeness()``, and the results are
  identical to an adversary-free run.

Run:  python examples/adversarial.py
"""

from repro import EngineConfig, NetworkPolicy, RetryPolicy
from repro.ltqp import TraversalPolicy
from repro.net import NoLatency
from repro.solidbench import SolidBenchConfig, build_universe, discover_query
from repro.solidbench.adversary import (
    AdversaryPlan,
    deploy_adversary,
    restrict_to_benign,
)


def run(universe, query, lures=(), traversal=None, benign_seeds=True):
    engine = universe.engine(
        latency=NoLatency(),
        config=EngineConfig(
            network=NetworkPolicy(retry=RetryPolicy.disabled(), max_link_requeues=0),
            traversal=traversal if traversal is not None else TraversalPolicy(),
        ),
    )
    seeds = (list(query.seeds) if benign_seeds else []) + list(lures)
    return engine.query(query.text, seeds=seeds).run_sync()


def main() -> None:
    universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
    query = discover_query(universe, template=1, variant=5)
    print(f"running {query.name}: {query.description}")

    # Adversary-free reference run.
    reference = run(universe, query)
    print(f"\nadversary-free: {len(reference)} results")

    # Plant four attack classes, each on its own https://adv-*.example
    # origin; benign documents are never touched — traversal only reaches
    # the adversary through the lure seeds appended below.
    plan = AdversaryPlan(
        seed=7,
        kinds=("link-trap", "growing-doc", "oversized-doc", "poison"),
        oversized_bytes=256 * 1024,
    )
    deployment = deploy_adversary(
        universe.internet, plan, targets=[universe.webid(query.person_index)]
    )
    try:
        # -- attack cost: follow only the lures, nothing benign ---------
        # Unhardened, the trap spins until the global document budget
        # saves the run; hardened, each hostile origin gets 8 documents.
        naive_lured = run(
            universe,
            query,
            benign_seeds=False,
            lures=deployment.lures,
            traversal=TraversalPolicy(max_documents=300),
        )
        naive_cost = deployment.total_requests()
        hardened_lured = run(
            universe,
            query,
            benign_seeds=False,
            lures=deployment.lures,
            traversal=TraversalPolicy(
                max_origin_derefs=8,
                max_parse_bytes=64 * 1024,
                queue_policy="fair",
            ),
        )
        hardened_cost = deployment.total_requests() - naive_cost
        print(
            f"\nlured into the adversary, unhardened: {naive_cost} hostile "
            f"requests answered"
        )
        print(
            f"lured into the adversary, hardened:   {hardened_cost} hostile "
            f"requests ({naive_cost / max(1, hardened_cost):.0f}x cheaper)"
        )
        del naive_lured, hardened_lured

        # -- result integrity: benign seeds + lures together ------------
        # Budgets bound what the adversary can *cost*; what it can
        # *claim* is handled by provenance: every fabricated term carries
        # a hostile-origin IRI or watermark, so results restrict cleanly.
        before = deployment.total_requests()
        hardened = run(
            universe,
            query,
            lures=deployment.lures,
            traversal=TraversalPolicy(
                max_origin_derefs=256,  # generous for the benign origin
                max_parse_bytes=64 * 1024,
                queue_policy="fair",
            ),
        )
        combined_cost = deployment.total_requests() - before
        tainted = len(hardened.bindings) - len(restrict_to_benign(hardened.bindings))
        print(
            f"\ncombined run: {len(hardened)} results, {tainted} attributable "
            f"to the adversary (watermarked), {combined_cost} hostile requests"
        )
    finally:
        deployment.uninstall()

    identical = sorted(map(repr, restrict_to_benign(hardened.bindings))) == sorted(
        map(repr, reference.bindings)
    )
    print(f"benign-restricted answer identical to adversary-free run: {identical}")
    assert identical

    report = hardened.stats.completeness()
    print(f"\nrefusals by kind:   {report['refusals_by_kind']}")
    print(f"refusals by origin: {report['refusals_by_origin']}")
    print(f"complete: {report['complete']} (refused work is declared, not hidden)")


if __name__ == "__main__":
    main()
