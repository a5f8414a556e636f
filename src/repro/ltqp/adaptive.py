"""Adaptive query planning during traversal (paper §5, future work).

    "In future work, we will investigate further optimizations, which may
     involve adaptive query planning techniques [29] — which have only
     seen limited adoption within LTQP [30]"

Zero-knowledge planning must guess join orders before any data exists; a
bad guess only becomes visible once documents arrive.  This module adds
the classic mid-flight correction: monitor observed pattern
cardinalities, and when the running join order is badly wrong, *replan* —
recompile the pipeline with a cardinality-informed order and replay the
(locally stored) traversal log through it.  The replay re-derives answers
that were already delivered, so only its surplus over them is passed on;
replay is possible because the growing source keeps every fetched triple
the plan can read — and that *read set* is a function of the query, not of
the join order, so a replanned pipeline finds in the source exactly what
its predecessor did.

Restriction: replanning applies per BGP — always *below* the plan's
blocking boundary (BGP join trees are the monotonic feet of the plan;
blocking operators sit above them).  Recompiling builds a fresh pipeline
whose blocking operators start empty, and replaying the traversal log
through it rebuilds their held state exactly, so OPTIONAL/MINUS/GROUP BY
queries replan as safely as plain joins.  Queries stream correctly either
way — adaptivity only changes intermediate-result volume, never answers.
Answers are a *multiset* (two people named "Ann" are two rows of a
non-DISTINCT query), so delivered answers are counted, not set-collected:
ordinary advances pass through untouched, and a replay emits, per
binding, only the occurrences the new plan derives beyond those counted.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from ..rdf.dataset import Dataset
from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from ..sparql.algebra import Operator, PathPattern, Query
from ..sparql.bindings import Binding
from ..sparql.planner import plan_bgp_order
from .pipeline import Pipeline, compile_pipeline, compile_query_pipeline, total_work

__all__ = ["AdaptivePipeline", "observed_cardinality"]


def observed_cardinality(pattern, dataset: Dataset) -> int:
    """How many triples in the current snapshot match ``pattern``.

    :meth:`Graph.count` answers from index bucket sizes without
    materialising matches, so sampling cardinalities on every replan check
    stays cheap even late in a large traversal.
    """
    if isinstance(pattern, PathPattern):
        # Approximate a path by the total count of its member predicates.
        from ..sparql.paths import path_predicates

        return sum(
            dataset.union.count(None, predicate, None)
            for predicate in path_predicates(pattern.path)
        )
    return dataset.union.count(pattern.subject, pattern.predicate, pattern.object)


def _cardinality_order(patterns: Sequence, dataset: Dataset) -> list:
    """Greedy connected order by ascending observed cardinality."""
    remaining = list(patterns)
    ordered: list = []
    bound: set[Variable] = set()
    counts = {id(p): observed_cardinality(p, dataset) for p in remaining}
    while remaining:
        connected = [p for p in remaining if not ordered or (p.variables() & bound)]
        candidates = connected if connected else remaining
        best = min(candidates, key=lambda p: counts[id(p)])
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


class AdaptivePipeline:
    """A :class:`~repro.ltqp.pipeline.Pipeline` wrapper that replans.

    Drop-in for ``Pipeline`` (same ``advance`` / ``complete`` interface).
    Every ``check_interval`` deltas it compares the running plan's leading
    pattern against the cardinality-optimal one; when the current leader
    is ``replan_factor`` times larger than the best available, it
    recompiles with the observed order and replays the log.
    """

    def __init__(
        self,
        where: Operator,
        seed_iris: Iterable[str] = (),
        check_interval: int = 10,
        replan_factor: float = 4.0,
        max_replans: int = 2,
        query: Optional[Query] = None,
    ) -> None:
        self._where = where
        #: When the full query is supplied, compilation goes through
        #: :func:`compile_query_pipeline` so ASK/DESCRIBE wrapping applies.
        self._query = query
        self._seed_iris = tuple(seed_iris)
        self._check_interval = max(1, check_interval)
        self._replan_factor = replan_factor
        self._max_replans = max_replans

        self._current_order: Optional[list] = None
        self._tracer = None
        self._trace_parent = None
        self._pipeline = self._compile(order=None)
        #: Every answer delivered so far, with multiplicity.
        self._emitted: Counter[Binding] = Counter()
        self._deltas_seen = 0
        self._retired_work = 0
        self.replans = 0

    def enable_tracing(self, tracer, parent=None) -> None:
        """Trace the active plan (and every replanned successor)."""
        self._tracer = tracer
        self._trace_parent = parent
        self._pipeline.enable_tracing(tracer, parent)

    # -- Pipeline interface -------------------------------------------------

    @property
    def complete(self) -> bool:
        return self._pipeline.complete

    @property
    def root(self):
        return self._pipeline.root

    @property
    def router(self):
        """The *active* plan's delta router.

        Every recompile builds a fresh :class:`~repro.ltqp.pipeline.Pipeline`,
        whose constructor walks the new operator tree and re-registers every
        scan's predicate key — so after a replan the routing table always
        matches the running plan, with no stale registrations from retired
        plans.
        """
        return self._pipeline.router

    @property
    def read_set(self):
        """What the plan can read (the same for every join order)."""
        return self._pipeline.read_set

    @property
    def blocking_nodes(self):
        """The active plan's blocking operators (empty = fully streaming)."""
        return self._pipeline.blocking_nodes

    @property
    def total_work(self) -> int:
        """Bindings produced across all plans, including retired ones."""
        return self._retired_work + total_work(self._pipeline.root)

    def finalize(self, dataset: Dataset) -> list[Binding]:
        """Quiescence flush through the active plan."""
        return self._pipeline.finalize(dataset)

    def advance(self, dataset: Dataset) -> list[Binding]:
        produced = self._pipeline.advance(dataset)
        self._deltas_seen += 1
        if self.replans < self._max_replans:
            # Only a replay reads the count: stop paying for it with the
            # last replan.
            self._emitted.update(produced)
            if self._deltas_seen % self._check_interval == 0:
                produced.extend(self._maybe_replan(dataset))
        return produced

    # -- internals ------------------------------------------------------------

    def _compile(self, order: Optional[list]) -> Pipeline:
        if order is None:
            def bgp_order(patterns):
                chosen = plan_bgp_order(patterns, seed_iris=self._seed_iris)
                self._current_order = chosen
                return chosen
        else:
            def bgp_order(patterns):
                # Map the stored order onto this BGP's pattern objects.
                by_key = {self._pattern_key(p): p for p in patterns}
                chosen = [
                    by_key[self._pattern_key(p)]
                    for p in order
                    if self._pattern_key(p) in by_key
                ]
                leftover = [p for p in patterns if p not in chosen]
                chosen.extend(leftover)
                self._current_order = chosen
                return chosen

        if self._query is not None:
            return compile_query_pipeline(
                self._query, seed_iris=self._seed_iris, bgp_order=bgp_order
            )
        return compile_pipeline(self._where, seed_iris=self._seed_iris, bgp_order=bgp_order)

    @staticmethod
    def _pattern_key(pattern) -> str:
        return str(pattern)

    def _maybe_replan(self, dataset: Dataset) -> list[Binding]:
        order = self._current_order
        if not order or len(order) < 2:
            return []
        counts = [observed_cardinality(pattern, dataset) for pattern in order]
        best = min(counts)
        if best <= 0 or counts[0] <= best * self._replan_factor:
            return []  # current leader is fine

        better = _cardinality_order(order, dataset)
        if [self._pattern_key(p) for p in better] == [self._pattern_key(p) for p in order]:
            return []

        self.replans += 1
        self._retired_work += total_work(self._pipeline.root)
        self._pipeline = self._compile(order=better)
        if self._tracer is not None:
            self._tracer.instant(
                "replan", parent=self._trace_parent, replans=self.replans
            )
            self._pipeline.enable_tracing(self._tracer, self._trace_parent)
        # Replay everything fetched so far through the new plan; consumers
        # see only what it derives beyond the answers already delivered.
        surplus = Counter(self._pipeline.advance(dataset)) - self._emitted
        self._emitted += surplus
        return list(surplus.elements())
