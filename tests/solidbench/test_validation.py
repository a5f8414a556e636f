"""Tests for validation manifests."""

import pytest

from repro.solidbench import discover_query
from repro.solidbench.validation import (
    build_manifest,
    load_manifest,
    validate_results,
    write_manifest,
)


@pytest.fixture(scope="module")
def manifest(tiny_universe):
    queries = [discover_query(tiny_universe, t, 1) for t in (1, 2, 6)]
    return build_manifest(tiny_universe, queries)


class TestBuildManifest:
    def test_structure(self, manifest, tiny_universe):
        assert manifest["generator"]["seed"] == tiny_universe.config.seed
        assert set(manifest["queries"]) == {"Discover 1.1", "Discover 2.1", "Discover 6.1"}
        entry = manifest["queries"]["Discover 1.1"]
        assert entry["expected_count"] == len(entry["expected"])
        assert entry["seeds"]

    def test_full_suite_manifest(self, tiny_universe):
        full = build_manifest(tiny_universe)
        assert len(full["queries"]) == 37

    def test_roundtrip_to_disk(self, manifest, tmp_path):
        path = write_manifest(manifest, tmp_path / "manifests" / "validation.json")
        assert load_manifest(path) == manifest


class TestValidateResults:
    def test_engine_results_validate(self, manifest, tiny_universe):
        query = discover_query(tiny_universe, 1, 1)
        engine = tiny_universe.fast_engine()
        execution = engine.query(query.text, seeds=query.seeds).run_sync()
        report = validate_results(manifest, query.name, execution.bindings)
        assert report.valid, (report.missing, report.unexpected)

    def test_missing_results_detected(self, manifest, tiny_universe):
        query = discover_query(tiny_universe, 1, 1)
        engine = tiny_universe.fast_engine()
        execution = engine.query(query.text, seeds=query.seeds).run_sync()
        partial = execution.bindings[:-1]
        report = validate_results(manifest, query.name, partial)
        assert not report.valid
        assert len(report.missing) == 1 and not report.unexpected

    def test_unexpected_results_detected(self, manifest, tiny_universe):
        from repro.rdf import Literal, Variable
        from repro.sparql.bindings import Binding

        fake = [Binding({Variable("messageId"): Literal("not-real")})]
        report = validate_results(manifest, "Discover 1.1", fake)
        assert report.unexpected and report.missing

    def test_unknown_query_raises(self, manifest):
        with pytest.raises(KeyError):
            validate_results(manifest, "Discover 99.9", [])
