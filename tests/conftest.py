"""Shared fixtures: small SolidBench universes and common RDF snippets."""

from __future__ import annotations

import pytest

from repro.solidbench import SolidBenchConfig, build_universe


@pytest.fixture(scope="session")
def tiny_universe():
    """~15 pods; enough for every Discover template to return results.
    Default pods: each publishes its source index."""
    return build_universe(SolidBenchConfig(scale=0.01, seed=7))


@pytest.fixture(scope="session")
def small_universe():
    """~31 pods; used by heavier integration tests."""
    return build_universe(SolidBenchConfig(scale=0.02, seed=42))


@pytest.fixture(scope="session")
def paper_tiny_universe():
    """``tiny_universe`` with the paper-shaped pods — no published source
    index, so traversal is the paper's full crawl.  For tests that pin that
    crawl's counts, pop order or waterfall."""
    return build_universe(SolidBenchConfig(scale=0.01, seed=7, emit_hints=False))


@pytest.fixture(scope="session")
def paper_small_universe():
    """``small_universe`` with the paper-shaped pods (see ``paper_tiny_universe``)."""
    return build_universe(SolidBenchConfig(scale=0.02, seed=42, emit_hints=False))


@pytest.fixture()
def fast_engine(tiny_universe):
    return tiny_universe.fast_engine()


def put_diff(source, url, document):
    """``source.put_document`` read back from the signed changes it handed
    off: ``(added, removed)`` triples, each in arrival order.  Takes (and
    drops) whatever an earlier write left pending in the source's dataset."""
    source.dataset.take_changes()
    changed = source.put_document(url, document)
    runs = source.dataset.take_changes()
    added = [quad.triple for sign, quads in runs if sign > 0 for quad in quads]
    removed = [quad.triple for sign, quads in runs if sign < 0 for quad in quads]
    assert changed == len(added) + len(removed)
    return added, removed
