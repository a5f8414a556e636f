"""When the growing source reaches the pipeline: one rule that reads no clock.

A document that leaves quads pending feeds the pipeline itself while no
row is out yet or a batch is full; otherwise it leaves one feed for the
event loop's next turn.  So under latency a ready row is never held while
the engine waits on the network, and under ``NoLatency`` nothing depends
on how fast the host is.
"""

import asyncio
import gc
import logging
import warnings

import pytest

from repro.ltqp import EngineConfig, TraversalPolicy
from repro.ltqp.pipeline import Pipeline
from repro.net.latency import ConstantLatency, NoLatency
from repro.obs import TickClock, Tracer
from repro.solidbench import discover_query


def latency_engine(universe):
    """One worker under a 4 ms round trip: every fetch makes the loop wait."""
    return universe.engine(
        latency=ConstantLatency(rtt_seconds=0.004, bytes_per_second=1e12),
        config=EngineConfig(traversal=TraversalPolicy(worker_count=1)),
    )


class TestFeedRule:
    def test_a_ready_row_is_not_held_while_the_engine_waits_on_the_network(
        self, tiny_universe
    ):
        query = discover_query(tiny_universe, 1, 5)
        tracer = Tracer()
        latency_engine(tiny_universe).query(
            query.text, seeds=query.seeds, tracer=tracer
        ).run_sync()
        kept = [
            span
            for span in tracer.spans
            if span.name == "dereference" and span.args.get("kept")
        ]
        batches = [span for span in tracer.spans if span.name == "advance-batch"]
        # Each document's quads are fed before the next fetch is awaited —
        # none waits for a later document or a timer.
        assert len(kept) > 1
        assert len(batches) == len(kept)

    @pytest.mark.parametrize("template", range(1, 9))
    def test_a_tick_clock_run_replays_at_default_settings(self, tiny_universe, template):
        query = discover_query(tiny_universe, template, 1)

        def spans():
            tracer = Tracer(clock=TickClock())
            tiny_universe.fast_engine().query(
                query.text, seeds=query.seeds, tracer=tracer
            ).run_sync()
            return [(span.name, span.start, span.end) for span in tracer.spans]

        assert spans() == spans()


class TestFeedFailures:
    def test_a_feed_that_raises_fails_the_execution(self, tiny_universe, monkeypatch):
        real_advance = Pipeline.advance
        produced, raised = [], []

        def advance(pipeline, dataset):
            # Raises once, on the first feed after a row is out: the batch it
            # drops is gone for good, so the run must not end as if complete.
            if produced and not raised:
                raised.append(True)
                raise RuntimeError("feed failed")
            bindings = real_advance(pipeline, dataset)
            produced.extend(bindings)
            return bindings

        monkeypatch.setattr(Pipeline, "advance", advance)
        query = discover_query(tiny_universe, 1, 5)
        execution = latency_engine(tiny_universe).query(query.text, seeds=query.seeds)
        with pytest.raises(RuntimeError, match="feed failed"):
            execution.run_sync()
        assert produced  # it failed after the first result, not before

    def test_cancelling_with_a_feed_scheduled_runs_no_callback(self, tiny_universe, caplog):
        query = discover_query(tiny_universe, 1, 5)
        execution = tiny_universe.fast_engine().query(query.text, seeds=query.seeds)

        async def cancel_after_row_one():
            async for _ in execution:
                # Another worker's document left a feed for the loop's next turn.
                assert execution._feed is not None
                await execution.cancel()
            # A few turns for anything tear-down left on the loop to run.
            for _ in range(3):
                await asyncio.sleep(0)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                asyncio.run(cancel_after_row_one())
            gc.collect()
        assert execution.cancelled and execution.stats.result_count >= 1
        assert "Exception in callback" not in caplog.text
        assert caplog.records == []
        assert [str(warning.message) for warning in caught] == []
        assert execution.stats.shutdown_errors == []
