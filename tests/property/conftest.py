"""Helpers shared by the pipeline property suites."""


def rebuild_one_bgp(pipeline, rng) -> None:
    """Re-order a random BGP of ``pipeline`` into a random permutation
    through the pipeline's own rebuild — any order, not only the one its
    scans' counts would pick."""
    if pipeline.bgps:
        bgp = rng.choice(pipeline.bgps)
        pipeline.reorder(bgp, rng.sample(bgp.scans, len(bgp.scans)))
