"""One sharded worker pool for the whole ``tests/service`` package.

Spawning a pool costs seconds, so every test that only needs *a* running
sharded service rides this one (package scope: two worker processes,
started on first use, stopped when the package's last test finishes).
Tests that kill, restart or reconfigure workers build their own.
"""

import asyncio

import pytest

from repro.net import NoLatency
from repro.service import ServiceHost, ShardSpec, ShardedQueryService
from repro.solidbench import SolidBenchConfig

CONFIG = SolidBenchConfig(scale=0.005, seed=7)


def make_spec(**overrides):
    defaults = dict(config=CONFIG, latency=NoLatency())
    defaults.update(overrides)
    return ShardSpec(**defaults)


def run_on(host, coroutine, timeout=120.0):
    return asyncio.run_coroutine_threadsafe(coroutine, host.loop).result(timeout)


@pytest.fixture(scope="package")
def sharded_host():
    """A started 2-worker sharded service behind a ServiceHost."""
    host = ServiceHost(ShardedQueryService(make_spec(), workers=2)).start()
    yield host
    host.stop()
