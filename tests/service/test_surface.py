"""Structure test: one service surface, two transports.

The sharded front-end used to mirror ``QueryService`` type for type and
the mirrors drifted.  This pins the shape that replaced them: both
services answer the same public methods with the same parameters, hand
out the same handle / result / subscription types, and the deleted
mirror names stay deleted.  (In the spirit of ``TestOneProtocol``.)
"""

import dataclasses
import inspect

import repro.service
from repro.ltqp.engine import ExecutionResult, NetworkPolicy, TraversalPolicy
from repro.ltqp.live import ChangeFeed, LiveQuery
from repro.service import (
    QueryService,
    ServiceQuery,
    ServiceSubscription,
    ShardSpec,
    ShardedQueryService,
    shards,
    status,
)
from repro.solidbench import build_universe, discover_query

from .conftest import CONFIG, run_on

#: The only public names one service has and the other lacks — what *is*
#: different between the transports.  Any further entry is justified in
#: CHANGES.md.
POOL_ONLY = {"router", "workers", "health_check", "restart_worker"}
IN_PROCESS_ONLY = {"resources", "engine", "active_count", "queued_count"}

#: Worker-local by design: a sharded service has no such parameters, so
#: passing one is a TypeError (asserted by call in tests/test_webui.py).
UNSHIPPED_PARAMETERS = {"tracer"}


def public_names(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


class TestOneSurface:
    def test_public_method_sets_differ_only_by_the_allow_list(self):
        local, pool = public_names(QueryService), public_names(ShardedQueryService)
        assert pool - local == POOL_ONLY
        assert local - pool == IN_PROCESS_ONLY

    def test_shared_methods_take_the_same_parameters(self):
        shared = public_names(QueryService) & public_names(ShardedQueryService)
        checked = 0
        for name in sorted(shared):
            local = inspect.getattr_static(QueryService, name)
            if not inspect.isfunction(local):
                continue
            pool = getattr(ShardedQueryService, name)
            assert inspect.iscoroutinefunction(local) == inspect.iscoroutinefunction(pool), name
            local_params = set(inspect.signature(local).parameters) - UNSHIPPED_PARAMETERS
            assert local_params == set(inspect.signature(pool).parameters), name
            checked += 1
        assert checked >= 15  # submit, run, subscribe, status, drain, ...

    def test_lifecycle_is_async_on_both(self):
        for cls in (QueryService, ShardedQueryService):
            for name in ("start", "stop", "drain", "status", "drain_subscriptions"):
                assert inspect.iscoroutinefunction(getattr(cls, name)), (cls, name)

    def test_the_mirror_types_stay_deleted(self):
        for name in ("ShardedQuery", "ShardedResult", "ShardedSubscription", "ShardStats"):
            assert not hasattr(repro.service, name), name
            assert not hasattr(shards, name), name
        assert not hasattr(shards, "_stats_summary")
        assert not hasattr(status, "build_status_async")
        assert not hasattr(repro.service, "build_status_async")

    def test_one_change_feed(self):
        # The history / replay / fan-out body lives once, in ChangeFeed;
        # LiveQuery publishes into the one it is and adds none of its own.
        assert issubclass(LiveQuery, ChangeFeed)
        for name in ("current_results", "subscribe", "add_listener", "publish", "close"):
            assert name in vars(ChangeFeed) and name not in vars(LiveQuery), name
        assert "current_results" not in vars(shards.ShardedQueryService)

    def test_shard_spec_carries_an_engine_config_not_a_mirror_of_one(self):
        spec_fields = {field.name for field in dataclasses.fields(ShardSpec)}
        assert "engine" in spec_fields
        for policy in (TraversalPolicy, NetworkPolicy):
            policy_fields = {field.name for field in dataclasses.fields(policy)}
            assert not spec_fields & policy_fields, policy.__name__

    def test_sharded_handles_and_results_are_the_shared_types(self, sharded_host):
        named = discover_query(build_universe(CONFIG), 1, 1)

        async def scenario():
            service = sharded_host.service
            handle = service.submit(named.text, seeds=list(named.seeds))
            result = await handle.wait()
            subscription = await service.subscribe(named.text, seeds=list(named.seeds))
            rows = sum(subscription.current_results().values())
            await subscription.close()
            return service, handle, result, subscription, rows

        service, handle, result, subscription, rows = run_on(sharded_host, scenario())
        assert type(handle) is ServiceQuery
        assert type(result) is ExecutionResult
        assert type(subscription) is ServiceSubscription
        assert service.get(handle.id) is handle
        assert handle.execution is None and handle.shard in service.workers
        assert subscription.live is None and subscription.shard in service.workers
        assert result.seeds == list(named.seeds)
        assert rows == len(result.bindings) > 0
