"""Tests for the unified engine.query() API and the EngineConfig split."""

import ast
import asyncio
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.ltqp import (
    Dereferencer,
    EngineConfig,
    ExecutionResult,
    LinkTraversalEngine,
    NetworkPolicy,
    QueryExecution,
    TraversalPolicy,
)
from repro.net import HttpClient, NoLatency
from repro.net.resilience import BreakerPolicy, RetryPolicy

from .test_engine import SNB, build_two_pod_world


def engine_for(internet, **kwargs):
    return LinkTraversalEngine(Dereferencer(HttpClient(internet, latency=NoLatency())), **kwargs)


def _depth(max_depth):
    return EngineConfig(traversal=TraversalPolicy(max_depth=max_depth))


@pytest.fixture()
def world():
    return build_two_pod_world()


class TestQueryExecution:
    def query_text(self, pod1):
        return (
            SNB + f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{pod1.webid}> ; snvoc:content ?c }}"
        )

    def test_run_sync_collects_everything(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1)).run_sync()
        assert isinstance(execution, QueryExecution)
        assert len(execution) == 2
        assert execution.done and not execution.cancelled

    def test_async_iteration_streams(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1))

        async def collect():
            return [binding async for binding in execution]

        bindings = asyncio.run(collect())
        assert len(bindings) == 2
        assert execution.bindings == bindings

    def test_gather_returns_handle(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1))

        async def drive():
            handle = await execution.gather()
            assert handle is execution

        asyncio.run(drive())
        assert execution.done

    def test_cancel_stops_early_and_finalizes_stats(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1))

        async def take_one():
            async for _ in execution:
                break
            await execution.cancel()

        asyncio.run(take_one())
        assert execution.cancelled and execution.done
        assert len(execution) >= 1
        assert execution.stats.finished_at > 0  # stats were finalized

    def test_stats_are_live_during_streaming(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1))
        assert execution.stats.result_count == 0

        async def watch():
            async for _ in execution:
                assert execution.stats.result_count >= 1
                break
            await execution.cancel()

        asyncio.run(watch())

    def test_seeds_resolved_on_handle(self, world):
        internet, pod1, _ = world
        execution = engine_for(internet).query(self.query_text(pod1)).run_sync()
        assert execution.seeds == [pod1.webid]


class TestDelivery:
    """Pipelining reaches the consumer: with nothing to await (no latency)
    the traversal still hands over the loop when rows are waiting."""

    @pytest.mark.parametrize("workers", [1, 8])
    def test_consumer_holds_row_one_while_the_crawl_is_running(self, tiny_universe, workers):
        from repro.obs import TickClock, Tracer
        from repro.solidbench import discover_query

        query = discover_query(tiny_universe, 1, 5)
        tracer = Tracer(clock=TickClock())
        engine = tiny_universe.fast_engine(
            config=EngineConfig(traversal=TraversalPolicy(worker_count=workers))
        )
        execution = engine.query(query.text, seeds=query.seeds, tracer=tracer)

        async def consume():
            first = None
            async for _ in execution:
                if first is None:
                    first = (tracer.clock(), execution.stats.documents_fetched)
            return first

        received_at, fetched_by_then = asyncio.run(consume())
        stats = execution.stats
        # Row 1 was in the consumer's hands before the last document was fetched ...
        assert fetched_by_then < stats.documents_fetched
        # ... within one link of its emission: the emitting link finishes its
        # extraction, and each *other* worker may start one link, before the
        # consumer's turn on the loop comes.
        started_between = [
            span
            for span in tracer.spans
            if span.name == "fetch" and stats.first_result_at < span.start < received_at
        ]
        assert len(started_between) <= workers - 1


class TestOneHome:
    """Per-execution state lives on the ``QueryExecution``: nothing is
    threaded through long parameter lists, parked on a shared object, or
    handed out through the result value."""

    def test_execution_result_is_the_plain_value_that_crosses_the_pipe(self):
        fields = {field.name for field in dataclasses.fields(ExecutionResult)}
        assert fields == {"query", "results", "stats", "seeds"}

    #: The traversal loop and the dereference path under it: module → the
    #: functions the walk must have seen (the former offenders' heirs).
    SIZED_MODULES = {
        "repro.ltqp.engine": {"QueryExecution._stream", "QueryExecution._process_link"},
        "repro.net.client": {"HttpClient.fetch", "HttpClient._attempt", "_Call.note_attempt"},
        "repro.ltqp.dereference": {"Dereferencer.dereference", "Dereferencer._refusal"},
        "repro.service.docstore": {"DocumentStore.lookup"},
        "repro.ltqp.extractors": {"MatchIriExtractor.discover", "TypeIndexExtractor.discover"},
        # The two stack builders and the service that rides one of them.
        "repro.solidbench.universe": {"SolidBenchUniverse.engine", "SolidBenchUniverse.client"},
        "repro.service.resources": {"SharedResources.for_universe"},
        "repro.service.service": {"QueryService.submit", "QueryService._traversal_for"},
    }

    def test_no_private_engine_function_threads_state_or_sprawls(self):
        for module_name, must_see in self.SIZED_MODULES.items():
            module = importlib.import_module(module_name)
            functions = [
                (name, value)
                for name, value in vars(module).items()
                if inspect.isfunction(value) and value.__module__ == module.__name__
            ]
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    functions += [
                        (f"{cls.__name__}.{name}", getattr(value, "__func__", value))
                        for name, value in vars(cls).items()
                        if inspect.isfunction(getattr(value, "__func__", value))
                    ]
            # Written in the file, that is — not a dataclass-generated ``__init__``.
            functions = [
                (name, function)
                for name, function in functions
                if function.__code__.co_filename == module.__file__
            ]
            for name, function in functions:
                assert len(inspect.getsourcelines(function)[0]) <= 100, name
                private = name.rsplit(".", 1)[-1].startswith("_") and not name.endswith("__")
                if private:
                    parameters = [p for p in inspect.signature(function).parameters if p != "self"]
                    assert len(parameters) <= 4, (name, parameters)
            # The walk really saw the module, the former offenders' heirs included.
            assert must_see <= dict(functions).keys()

    def test_an_attempt_is_written_down_in_one_place(self):
        """One ``RequestLog.record`` call site and one ``"attempt"`` span
        site in the client: a field added to one cannot miss the other."""
        from repro.net import client

        tree = ast.parse(Path(client.__file__).read_text(encoding="utf-8"))
        record_calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ]
        attempt_literals = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "attempt"
        ]
        assert (len(record_calls), len(attempt_literals)) == (1, 1)

    def test_shared_objects_are_never_assigned_an_observer(self):
        """Observers travel with the call: the only ``.tracer`` /
        ``.max_parse_bytes`` attributes ever assigned are an object's own."""
        source_root = Path(repro.__file__).parent
        parked, pokes = [], []
        for path in sorted((source_root / "ltqp").glob("*.py")) + sorted(
            (source_root / "service").glob("*.py")
        ):
            text = path.read_text(encoding="utf-8")
            if "_trace_parent" in text and path.name != "pipeline.py":
                pokes.append(path.name)
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr in ("tracer", "max_parse_bytes")
                            and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                        ):
                            parked.append(f"{path.name}:{node.lineno}")
        assert parked == []
        assert pokes == []

    def test_one_set_of_books(self):
        """No registry beside the books a run keeps (stats, request log,
        resilience counters, trace): no parameter anywhere is named
        ``metrics``, and ``repro.obs`` exports no registry."""
        import repro.obs

        parameters = [
            f"{path.name}:{node.lineno}"
            for path, tree in self._source_trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            if arg.arg == "metrics"
        ]
        assert parameters == []
        assert not {"Metrics", "Counter", "Gauge", "Histogram"} & set(repro.obs.__all__)
        assert not hasattr(repro.obs, "metrics") and "Metrics" not in repro.__all__


    @staticmethod
    def _source_trees():
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))

    def test_the_stack_is_constructed_by_the_two_builders_and_nobody_else(self):
        """``HttpClient`` → ``Dereferencer`` → ``LinkTraversalEngine``: each is
        constructed at two sites in ``src/`` — the bare builder
        (``universe.client`` / ``universe.engine``) and the shared one
        (``SharedResources``) — so a setting has one way in per stack."""
        sites: dict[str, list[str]] = {"HttpClient": [], "Dereferencer": [], "LinkTraversalEngine": []}
        for path, tree in self._source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in sites:
                        sites[name].append(f"{path.parent.name}/{path.name}")
        builders = ["service/resources.py", "solidbench/universe.py"]
        assert {name: sorted(found) for name, found in sites.items()} == dict.fromkeys(sites, builders)

    def test_the_queue_policy_orders_and_selects_nothing(self):
        """Source selection is no mode: ``engine.py`` reads ``queue_policy``
        once, to build the queue, and decides nowhere whether an execution
        has a selector — ``_set_up`` builds one unconditionally and nothing
        tests for its absence."""
        from repro.ltqp import engine

        source = Path(engine.__file__).read_text(encoding="utf-8")
        tree = ast.parse(source)
        reads = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "queue_policy"
        ]
        factory_calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "queue_factory_for"
        ]
        assert len(reads) == len(factory_calls) == 1
        assert reads[0] in factory_calls[0].args
        set_up = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_set_up"
        )
        built = lambda node: [  # noqa: E731
            name for name in ast.walk(node)
            if isinstance(name, ast.Name) and name.id in ("SourceSelector", "HintDiscoveryExtractor")
        ]
        assert len(built(set_up)) == 2
        assert not [
            branch for branch in ast.walk(set_up)
            if isinstance(branch, (ast.If, ast.IfExp)) and built(branch)
        ]
        assert "selector is not None" not in source and "selector is None" not in source
        assert TraversalPolicy().queue_policy == "fifo"

    def test_nobody_re_configures_the_client_under_them(self):
        """The network policy is given to the client at construction: no
        class offers ``apply_policy``, and ``.policy`` / ``.breakers`` are
        only ever assigned on ``self``."""
        offenders = []
        for path, tree in self._source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "apply_policy":
                    offenders.append(f"{path.name}:{node.lineno} defines apply_policy")
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    offenders += [
                        f"{path.name}:{node.lineno} assigns .{target.attr}"
                        for target in targets
                        if isinstance(target, ast.Attribute)
                        and target.attr in ("policy", "breakers")
                        and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                    ]
        assert offenders == []


class TestRemovedEntryPoints:
    def test_execute_stream_execute_sync_are_gone(self, world):
        internet, _, _ = world
        engine = engine_for(internet)
        for name in ("execute", "stream", "execute_sync"):
            assert not hasattr(engine, name)


class TestEngineConfigSplit:
    def test_defaults_nest_both_policies(self):
        config = EngineConfig()
        assert isinstance(config.traversal, TraversalPolicy)
        assert isinstance(config.network, NetworkPolicy)

    def test_flat_kwargs_rejected(self):
        for flat in ({"max_depth": 2}, {"request_timeout": 1.5}):
            with pytest.raises(TypeError):
                EngineConfig(**flat)

    def test_flat_attributes_rejected(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.max_documents = 9
        with pytest.raises(AttributeError):
            _ = config.request_timeout

    def test_nested_construction(self):
        config = EngineConfig(
            traversal=TraversalPolicy(max_depth=1),
            network=NetworkPolicy(retry=RetryPolicy(max_attempts=2)),
        )
        assert config.traversal.max_depth == 1
        assert config.network.retry.max_attempts == 2

    def test_unknown_flat_kwarg_raises(self):
        with pytest.raises(TypeError):
            EngineConfig(warp_speed=9)

    def test_unknown_attribute_raises(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.warp_speed = 9
        with pytest.raises(AttributeError):
            _ = config.warp_speed

    def test_equality_compares_policies(self):
        assert _depth(2) == _depth(2)
        assert _depth(2) != _depth(3)

    def test_engine_installs_network_policy_on_client(self, tiny_universe):
        """The bare builder hands ``config.network`` to the client it
        constructs; the engine reads it there and keeps no copy."""
        config = EngineConfig(network=NetworkPolicy(request_timeout=2.5))
        engine = tiny_universe.engine(config=config)
        assert engine.client.policy is config.network
        assert not hasattr(engine, "config")

    def test_explicit_client_policy_wins(self, world):
        """A client's policy is the one it was constructed with: stacking a
        dereferencer and an engine on it re-installs nothing."""
        internet, _, _ = world
        own = NetworkPolicy(request_timeout=9.9)
        client = HttpClient(internet, latency=NoLatency(), policy=own)
        breakers = client.breakers
        engine = LinkTraversalEngine(Dereferencer(client))
        assert engine.client.policy is own
        assert client.breakers is breakers

    def test_breaker_knobs_reachable_flat(self):
        config = EngineConfig(
            network=NetworkPolicy(breaker=BreakerPolicy(failure_threshold=7))
        )
        assert config.network.breaker.failure_threshold == 7
