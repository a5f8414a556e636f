"""Incremental pipelined query operators — the unified execution stack.

The paper's engine evaluates queries *while* traversal is still adding
triples: "the actual query processing happens in parallel over the
continuously growing internal triple source", with "pipelined
implementations of all monotonic SPARQL operators".  This module provides
exactly that, plus incremental physical forms of the *non-monotonic*
operators, so every query — OPTIONAL, MINUS, ORDER BY, GROUP BY, EXISTS,
DESCRIBE and CONSTRUCT included — compiles into one operator tree fed by
one stream of signed deltas: the changes the growing dataset hands off
(:meth:`~repro.rdf.dataset.Dataset.take_changes`), fed as they are taken,
so neither side keeps a history or a position in one.

**One protocol.**  A node consumes signed :class:`DeltaBatch`es and
returns ``list[Change]`` — ``(binding, ±n)`` adjustments to its output
multiset.  Each operator has exactly one body, :meth:`IncrementalNode._changes`,
mapping its children's changes to its own; the base class drives it from
two entry points, a delta arriving (:meth:`IncrementalNode.apply`) and
quiescence (:meth:`IncrementalNode.finalize`).  Traversal is simply the
run of batches whose sign is ``+1``; a live refresh of a changed document
adds ``-1`` batches through the very same bodies.

**Quiescence is a phase switch.**  Blocking nodes are *open* until
``Pipeline.finalize`` and *settled* after.  While open they withhold
exactly the output more data could retract and stream the rest, so no
negative change leaves ``advance`` during an insert-only traversal;
``finalize`` releases the withheld multiset once and flips the flag;
settled nodes emit compensating changes immediately, from the same state.
Streaming forms: :class:`ScanNode`, :class:`PathScanNode`,
:class:`JoinNode` (symmetric hash join), Union / Filter / Extend / Project /
Distinct / Limit / Values, :class:`ExistsFilterNode` (a positive EXISTS
reached through AND/OR: passers stream, the rest wait for data),
:class:`DescribeNode` (CBD triples stream as roots are discovered) and
:class:`ConstructNode` (template triples stream per solution).  Blocking
forms, and what each withholds while open: :class:`LeftJoinNode` (bare
unmatched lefts; matched merges stream), :class:`MinusNode` (survivors),
:class:`GroupAggregateNode` (group rows), :class:`OrderSliceNode` (the
ORDER BY page) and :class:`RederivedNode` (everything).

**EXISTS is decided by the compiler, once.**  An expression holding
EXISTS reads the dataset, so its verdict can flip with any delta.  The
operator evaluating it (a FILTER that is not a streaming positive EXISTS,
BIND, OPTIONAL's ON, HAVING, ORDER BY) is compiled as the *template* of a
:class:`RederivedNode`, which holds its inputs and re-derives the whole
output from them; no other node knows EXISTS exists.

``live`` decides only *what to retain*, never which algorithm runs: group
member multisets, ORDER BY keep-all vs top-k pruning, the LIMIT refill
pool, and ``Pipeline.complete`` early termination.

The *blocking boundary* (the lowest of :attr:`Pipeline.blocking_nodes`,
as :func:`repro.ltqp.explain.explain_physical` marks them) is where
streaming stops: below it, deltas flow and results reach the user
mid-traversal; on and above it, ``Pipeline.finalize`` releases at
quiescence.  A plan with no blocking nodes streams everything.

Delta dispatch is *predicate-routed*: at compile time every node that
reads quads — a scan or path leaf off the delta, an EXISTS pattern or a
DESCRIBE off the dataset itself — registers the predicates it can match
with the pipeline's :class:`DeltaRouter`; each feed buckets the incoming
quads once by predicate (:class:`DeltaBatch`) and every scan then reads
only its own bucket — wildcard-predicate scans get the full delta.  The
same registrations are the plan's *read set* (:attr:`Pipeline.read_set`):
the growing source stores the quads in it and nothing else, so a read
that is not registered is a wrong answer, not a slow one.

EXISTS inside expressions is evaluated against the *current* dataset
through :class:`CurrentDatasetExists`, which lends the snapshot
evaluator's pattern matcher to the expression evaluator without copying
any data (the dataset changes in place).

:class:`NotStreamable` survives only as a safety net for algebra operators
with no physical implementation; no SPARQL form produced by the parser
triggers it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from operator import methodcaller
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..rdf.dataset import Dataset
from ..rdf.terms import BlankNode, Literal, NamedNode, Term, Variable
from ..rdf.triples import Quad, Triple, TriplePattern
from ..sparql.aggregates import AggregateState, group_key
from ..sparql.algebra import (
    BGP,
    And,
    Distinct,
    ExistsExpr,
    Extend,
    Filter,
    GraphOp,
    GroupBy,
    Join,
    LeftJoin,
    Minus,
    Operator,
    Or,
    OrderBy,
    OrderCondition,
    PathPattern,
    Project,
    Query,
    Reduced,
    Slice,
    SubSelect,
    TRIPLE_COLUMNS,
    Union,
    ValuesOp,
    VariableExpr,
    exists_patterns,
    expression_contains_exists,
    is_monotonic,
    key_variable,
    operator_expressions,
    operator_variables,
    read_patterns,
)
from ..sparql.bindings import EMPTY_BINDING, Binding
from ..sparql.eval import SnapshotEvaluator, construct_triples, order_sort_key
from ..sparql.expr import DescendingKey, ExpressionError, ExpressionEvaluator
from ..sparql.paths import evaluate_path, path_reads
from ..sparql.planner import plan_bgp_order

__all__ = [
    "NotStreamable",
    "IncrementalNode",
    "DeltaRouter",
    "DeltaBatch",
    "CurrentDatasetExists",
    "LeftJoinNode",
    "MinusNode",
    "ExistsFilterNode",
    "GroupAggregateNode",
    "OrderSliceNode",
    "RederivedNode",
    "DescribeNode",
    "ConstructNode",
    "Pipeline",
    "BGPChain",
    "compile_pipeline",
    "compile_query_pipeline",
    "total_work",
]


class NotStreamable(ValueError):
    """The operator tree contains an operator with no physical form.

    Every SPARQL operator the parser produces compiles; this remains only
    as a guard against future algebra additions outpacing the compiler.
    """


_EMPTY_QUADS: tuple[Quad, ...] = ()


class DeltaBatch:
    """One feed's worth of quads, bucketed by predicate at most once.

    Scans with a concrete predicate read only their bucket via
    :meth:`for_predicate`; wildcard scans iterate :attr:`quads` directly.
    Buckets are built lazily (a delta that reaches no predicate-routed scan
    never pays for bucketing) and cover only the predicates the router has
    registered — everything else in the delta is noise to this pipeline.
    Iterable and sized like the quad sequence it wraps.

    Batches carry a *polarity*: ``sign`` is ``+1`` for insertions (the
    only kind traversal produces) and ``-1`` for retractions (live
    refreshes of changed documents).  All quads in one batch share the
    sign — the dataset hands its changes off as maximal same-sign runs
    (:meth:`repro.rdf.dataset.Dataset.take_changes`).
    """

    __slots__ = ("quads", "sign", "_routed", "_buckets")

    def __init__(
        self,
        quads: Sequence[Quad],
        routed_predicates: Optional[frozenset] = None,
        sign: int = 1,
    ) -> None:
        self.quads = quads
        self.sign = sign
        self._routed = routed_predicates
        self._buckets: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self.quads)

    def __bool__(self) -> bool:
        return bool(self.quads)

    def for_predicate(self, predicate: Term) -> Sequence[Quad]:
        """The delta quads carrying ``predicate`` (empty when none do)."""
        buckets = self._buckets
        if buckets is None:
            buckets = self._build_buckets()
        return buckets.get(predicate, _EMPTY_QUADS)

    def touches(self, predicates: Iterable[Term]) -> bool:
        """Whether any quad in the batch carries one of ``predicates``."""
        return any(self.for_predicate(predicate) for predicate in predicates)

    def _build_buckets(self) -> dict:
        routed = self._routed
        buckets: dict = {}
        for quad in self.quads:
            predicate = quad.predicate
            if routed is not None and predicate not in routed:
                continue
            bucket = buckets.get(predicate)
            if bucket is None:
                buckets[predicate] = bucket = []
            bucket.append(quad)
        self._buckets = buckets
        return buckets


#: The empty batch a node's body sees at quiescence, when only its
#: children's late releases — not new quads — are arriving.
_QUIESCENT = DeltaBatch((), frozenset())


class DeltaRouter:
    """Compile-time registry of what a compiled plan can read.

    The router lives at the :class:`Pipeline` root.  Every node that reads
    quads — a scan or path leaf off the delta, an EXISTS pattern or a
    DESCRIBE off the dataset itself — registers the predicates it can
    match while the pipeline is built; a re-ordered BGP keeps its scans, so
    its registrations stand.  Two things are derived
    from the registrations: per feed, :meth:`batch` wraps the raw delta in
    a :class:`DeltaBatch` restricted to the registered predicates; and
    :attr:`read_set` tells the growing source which quads are worth
    keeping at all.
    """

    __slots__ = ("_predicates", "wildcards", "_frozen")

    def __init__(self) -> None:
        self._predicates: set = set()
        #: Who asked for every quad (node class names, registration order).
        self.wildcards: list[str] = []
        self._frozen: Optional[frozenset] = None

    def register(self, predicate: Optional[Term], listener: object = None) -> None:
        """Declare a read; ``None`` means wildcard (any quad can match)."""
        if predicate is None:
            self.wildcards.append(type(listener).__name__)
        else:
            self._predicates.add(predicate)
        self._frozen = None

    def register_reads(self, reads: Optional[Iterable[Term]], listener: object = None) -> None:
        """Declare everything one listener reads (``None`` = wildcard)."""
        for predicate in (None,) if reads is None else reads:
            self.register(predicate, listener)

    @property
    def wildcard_listeners(self) -> int:
        """How many listeners asked for every quad."""
        return len(self.wildcards)

    @property
    def predicates(self) -> frozenset:
        """The concrete predicates any listener reads."""
        if self._frozen is None:
            self._frozen = frozenset(self._predicates)
        return self._frozen

    @property
    def read_set(self) -> Optional[frozenset]:
        """The predicates of every quad the plan can read; ``None`` = all.

        A function of the query alone (join order never changes it), so
        the growing source is handed it once per execution."""
        return None if self.wildcards else self.predicates

    def batch(self, quads: Sequence[Quad], sign: int = 1) -> DeltaBatch:
        """Wrap one feed's delta for routed dispatch."""
        return DeltaBatch(quads, self.predicates, sign=sign)


#: The pipeline's currency: ``(binding, count)`` where ``count`` is a
#: non-zero signed multiplicity change — ``+n`` adds *n* occurrences of the
#: binding to a node's output multiset, ``-n`` removes *n*.
Change = tuple[Binding, int]


def _diff_multisets(old: dict, new: dict) -> list:
    """The signed changes turning multiset ``old`` into ``new``."""
    changes = []
    for item, count in old.items():
        delta = new.get(item, 0) - count
        if delta:
            changes.append((item, delta))
    for item, count in new.items():
        if count and item not in old:
            changes.append((item, count))
    return changes


def _bump(multiset: dict, item, count: int) -> int:
    """Adjust one multiset entry; returns the new total (0 = removed)."""
    total = multiset.get(item, 0) + count
    if total < 0:
        raise ValueError(f"retraction of unseen {item!r}")
    if total:
        multiset[item] = total
    else:
        multiset.pop(item, None)
    return total


class _KeyedBag(dict):
    """One side of a join: join key → the rows under it, found by equality.

    A bucket is a flat list holding one copy of a binding per occurrence —
    so probing a plain bag is just iterating bindings — and, in a *tallied*
    bag, each copy is followed by its tally (OPTIONAL's partner count,
    MINUS's excluder count): ``[binding, tally, binding, tally, …]``.
    Rows are never hashed and get no container of their own (the collector
    would pay for one per intermediate row): an insert appends, a
    retraction scans its one bucket.
    """

    __slots__ = ("_stride",)

    def __init__(self, tallied: bool = False) -> None:
        self._stride = 2 if tallied else 1

    def add(self, key: object, binding: Binding, count: int, tally: int = 0) -> None:
        stride = self._stride
        if count > 0:
            row = (binding,) if stride == 1 else (binding, tally)
            bucket = self.get(key)
            if bucket is None:
                self[key] = list(row * count)
            else:
                bucket.extend(row * count)
            return
        bucket = self.get(key, ())
        at = 0
        while count and at < len(bucket):
            if bucket[at] == binding:
                del bucket[at : at + stride]
                count += 1
            else:
                at += stride
        if count:
            raise ValueError(f"retraction of unseen row {binding!r}")
        if not bucket:
            del self[key]

    def untallied(self) -> list[Change]:
        """The rows of a tallied bag whose tally is zero."""
        return [
            (bucket[at], 1)
            for bucket in self.values()
            for at in range(0, len(bucket), 2)
            if not bucket[at + 1]
        ]


class CurrentDatasetExists:
    """EXISTS scope for the growing dataset.

    The pipeline's expression evaluator needs to answer ``EXISTS { … }``
    against whatever the traversal has discovered *so far* (and, at
    quiescence, against the complete snapshot).  This binder lends a
    :class:`SnapshotEvaluator` over the live dataset: the dataset grows in
    place and its union graph is maintained incrementally, so one evaluator
    stays valid for the whole execution.  ``bind`` only remembers the
    dataset; the evaluator is built by the first EXISTS evaluated over it,
    so a query without one builds none.
    """

    __slots__ = ("_dataset", "_evaluator")

    def __init__(self) -> None:
        self._dataset: Optional[Dataset] = None
        self._evaluator: Optional[SnapshotEvaluator] = None

    def bind(self, dataset: Dataset) -> None:
        if dataset is not self._dataset:
            self._dataset = dataset
            self._evaluator = None

    def __call__(self, pattern: Operator, binding: Binding) -> bool:
        evaluator = self._evaluator
        if evaluator is None:
            if self._dataset is None:
                raise ExpressionError("EXISTS evaluated before any data arrived")
            evaluator = self._evaluator = SnapshotEvaluator(self._dataset)
        return evaluator.exists(pattern, binding)


class IncrementalNode:
    """Base class: one body over signed changes, two ways to drive it.

    A node's whole algorithm is :meth:`_changes`, which maps the signed
    changes of its children (and, for leaves, the delta itself) to the
    signed changes of its own output multiset.  The base class drives that
    body from :meth:`apply` (a delta arriving) and :meth:`finalize`
    (quiescence), and counts the work in one place.

    ``certain_variables`` are bound in every emitted solution — the safe
    hash-key basis for joins above this node.  ``blocking`` marks nodes
    that withhold (part of) their output while *open*; ``settled`` flips at
    quiescence, when :meth:`_release` hands over what was withheld and the
    node starts emitting compensating changes immediately instead.
    """

    #: Class-level default; blocking physical nodes override it.
    blocking = False
    #: The predicates of the quads this node itself reads, off the delta or
    #: (EXISTS, DESCRIBE) off the dataset: empty = none, ``None`` = any
    #: quad.  A node that scans or holds an expression declares its own.
    reads: Optional[Iterable[Term]] = ()

    def __init__(
        self, certain_variables: frozenset[Variable], *inputs: "IncrementalNode"
    ) -> None:
        self.certain_variables = certain_variables
        self._inputs = inputs
        #: Changes emitted over the node's lifetime, both phases.
        self.produced_total = 0
        self.settled = False
        #: The emitted multiset, kept only by bodies that diff against it.
        self._out: dict[Binding, int] = {}

    def apply(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        """One signed delta batch arrived: return this node's changes.

        During an insert-only traversal every returned count is positive;
        a ``-1`` batch (or, once settled, a blocking node compensating)
        can make them negative, so consumers handle both polarities.
        """
        # The per-node hot path: a plain loop costs no comprehension frame.
        inputs = []
        for child in self._inputs:
            inputs.append(child.apply(delta, dataset))
        changes = self._changes(delta, dataset, *inputs)
        if changes:
            self.produced_total += len(changes)
        return changes

    def finalize(self, dataset: Dataset) -> list[Change]:
        """Quiescence: pass on the children's late releases, then hand over
        this node's own withheld output (once) and settle."""
        changes = self._changes(
            _QUIESCENT, dataset, *[child.finalize(dataset) for child in self._inputs]
        )
        if not self.settled:
            self.settled = True
            changes = changes + self._release(dataset)
        self.produced_total += len(changes)
        return changes

    def _changes(self, delta: DeltaBatch, dataset: Dataset, *inputs: list[Change]) -> list[Change]:
        """The node's one body: children's changes in, own changes out."""
        raise NotImplementedError

    def _release(self, dataset: Dataset) -> list[Change]:
        """The output withheld while open (blocking nodes only)."""
        return []

    def register(self, router: DeltaRouter) -> None:
        """Declare this subtree's reads to the router — the one body: the
        source drops what nobody registered, so no node overrides it."""
        for child in self._inputs:
            child.register(router)
        router.register_reads(self.reads, self)

    def children(self) -> tuple["IncrementalNode", ...]:
        return self._inputs


class ScanNode(IncrementalNode):
    """A triple-pattern leaf fed directly by the delta stream.

    The pattern is decomposed at construction into per-slot checks: concrete
    terms to compare (``_s``/``_p``/``_o``), variable slots to bind, and any
    repeated-variable position pairs — no per-quad ``zip``/``isinstance``
    walk over the pattern.
    """

    def __init__(self, pattern: TriplePattern, graph: Optional[Term] = None) -> None:
        variables = pattern.variables()
        if isinstance(graph, Variable):
            variables = variables | {graph}
        super().__init__(frozenset(variables))
        self._pattern = pattern
        #: The held bindings, keyed by the tuple of their terms (hashed in
        #: C; a binding's own hash is Python code).  A binding enters the
        #: output with its first supporting quad and leaves only when its
        #: last one does; ``_extra`` counts the supporting quads beyond the
        #: first (cross-graph duplicates).
        self._support: dict[tuple, Binding] = {}
        self._extra: dict[tuple, int] = {}

        # Precomputed slot checks.
        def concrete(term: Optional[Term]) -> Optional[Term]:
            return term if term is not None and not isinstance(term, Variable) else None

        self._s = concrete(pattern.subject)
        self._p = concrete(pattern.predicate)
        self.reads = None if self._p is None else (self._p,)
        self._o = concrete(pattern.object)
        self._var_slots: tuple[tuple[Variable, int], ...] = tuple(
            (term, position)
            for position, term in enumerate(pattern)
            if isinstance(term, Variable)
        )
        self._graph_concrete = concrete(graph)
        self._graph_variable = graph if isinstance(graph, Variable) else None

    @property
    def cardinality(self) -> int:
        """How many distinct bindings the scan holds now."""
        return len(self._support)

    def rows(self) -> list[Change]:
        """The scan's output multiset so far: each binding it holds, once."""
        return [(binding, 1) for binding in self._support.values()]

    def _changes(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        quads = delta.for_predicate(self._p) if self._p is not None else delta.quads
        if not quads:
            return []
        sign = delta.sign
        changes: list[Change] = []
        support, extra = self._support, self._extra
        graph_term = self._graph_concrete
        for quad in quads:
            if graph_term is not None and quad.graph is not graph_term:
                continue
            items = self._match(quad)
            if items is None:
                continue
            key = tuple(items.values())
            if sign > 0:
                if key in support:
                    extra[key] = extra.get(key, 0) + 1
                else:
                    binding = support[key] = Binding(items)
                    changes.append((binding, 1))
            else:
                binding = support[key]
                more = extra.get(key)
                if more is None:
                    del support[key]
                    changes.append((binding, -1))
                elif more == 1:
                    del extra[key]
                else:
                    extra[key] = more - 1
        return changes

    def _match(self, quad: Quad) -> Optional[dict[Variable, Term]]:
        if self._s is not None and quad.subject is not self._s:
            return None
        if self._p is not None and quad.predicate is not self._p:
            return None
        if self._o is not None and quad.object is not self._o:
            return None
        items: dict[Variable, Term] = {}
        for variable, position in self._var_slots:
            term = quad[position]
            bound = items.get(variable)
            if bound is None:
                items[variable] = term
            elif bound is not term:
                return None
        graph_variable = self._graph_variable
        if graph_variable is not None:
            if quad.graph is None:
                return None
            items[graph_variable] = quad.graph
        return items


class PathScanNode(IncrementalNode):
    """A property-path leaf, re-evaluated over the snapshot per delta.

    Property paths are not incrementally maintainable in general (a
    retracted edge can sever arbitrarily many derived pairs), so a relevant
    delta of either sign re-evaluates the path over the current snapshot
    and diffs the endpoint pairs against what was previously emitted.
    Under ``GRAPH ?g`` the path is evaluated per named graph and binds
    ``?g``, as :class:`~repro.sparql.eval.SnapshotEvaluator` does: a delta
    re-evaluates the graphs it touches, and quiescence the graphs no delta
    reached (a zero-length path holds in every graph, an empty one too).
    """

    def __init__(self, pattern: PathPattern, graph: Optional[Term] = None) -> None:
        variables = frozenset(pattern.variables())
        if isinstance(graph, Variable):
            variables = variables | {graph}
        super().__init__(variables)
        self._graph_variable = graph if isinstance(graph, Variable) else None
        self._pattern = pattern
        self._graph = graph if isinstance(graph, NamedNode) else None
        #: Predicates whose quads can change the answer; ``None`` = any quad.
        self.reads = path_reads(pattern)
        #: Graph evaluated (``None``: the one this scan reads, without
        #: ``?g``) → the endpoint pairs emitted for it.
        self._emitted: dict[Optional[Term], dict[tuple[Term, Term], None]] = {}

    @property
    def cardinality(self) -> int:
        """How many endpoint pairs the scan holds now."""
        return sum(map(len, self._emitted.values()))

    def rows(self) -> list[Change]:
        """The scan's output multiset so far: each pair's binding, once."""
        return [
            (binding, 1)
            for name, pairs in self._emitted.items()
            for pair in pairs
            if (binding := self._pair_binding(pair, name)) is not None
        ]

    def _changes(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        reads = self.reads
        if delta is _QUIESCENT:
            # ``<a> p* ?y`` holds for ``?y = <a>`` over any graph, an empty
            # one included: a graph that has emitted nothing may never have
            # been handed a relevant quad to say so.
            if self._graph_variable is None:
                names = [] if self._emitted.get(None) else [None]
            else:
                names = [
                    name for name in dataset.graph_names()
                    if name is not None and name not in self._emitted
                ]
        elif not delta.quads or not (reads is None or delta.touches(reads)):
            return []
        elif self._graph_variable is None:
            names = [None]
        else:  # the graphs the delta's relevant quads fall in, in arrival order
            names = list(dict.fromkeys(
                quad.graph for quad in delta.quads if reads is None or quad.predicate in reads
            ))
        changes: list[Change] = []
        for name in names:
            changes += self._rediff(name, dataset, delta.sign)
        return changes

    def _rediff(self, name: Optional[Term], dataset: Dataset, sign: int) -> list[Change]:
        """Re-evaluate the path over one graph and emit the pairs it gained
        (and, on a retraction, the pairs it lost)."""
        target = name if self._graph_variable is not None else self._graph
        graph = dataset.union if target is None else dataset.get_graph(target)
        pattern = self._pattern
        # A named graph no document fills (any more) has no solutions — the
        # snapshot evaluator agrees — and reading must not create it.
        found = () if graph is None else evaluate_path(
            graph, pattern.subject, pattern.path, pattern.object
        )
        emitted = self._emitted.setdefault(name, {})
        signed: list[tuple[tuple[Term, Term], int]] = []
        if sign < 0:
            # Only a retraction can sever pairs (insertion just adds them).
            found = dict.fromkeys(found)
            for pair in [pair for pair in emitted if pair not in found]:
                del emitted[pair]
                signed.append((pair, -1))
        for pair in found:
            if pair not in emitted:
                emitted[pair] = None
                signed.append((pair, 1))
        return [
            (binding, count)
            for pair, count in signed
            if (binding := self._pair_binding(pair, name)) is not None
        ]

    def _pair_binding(self, pair: tuple[Term, Term], name: Optional[Term]) -> Optional[Binding]:
        items: dict[Variable, Term] = {}
        ends = (self._pattern.subject, pair[0]), (self._pattern.object, pair[1])
        for term, value in (*ends, (self._graph_variable, name)):
            if isinstance(term, Variable):
                if items.setdefault(term, value) != value:
                    return None
        return Binding(items)


class ValuesNode(IncrementalNode):
    """Inline data: emits its rows exactly once, the first time it is driven.

    That is the first delta — or quiescence, for a traversal that
    discovered nothing.  Inline data never changes afterwards.
    """

    def __init__(self, op: ValuesOp) -> None:
        certain = frozenset(
            variable
            for index, variable in enumerate(op.variables)
            if all(row[index] is not None for row in op.rows)
        )
        super().__init__(certain)
        self._rows = [
            Binding({v: t for v, t in zip(op.variables, row) if t is not None})
            for row in op.rows
        ]
        self._emitted = False

    def _changes(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        if self._emitted:
            return []
        self._emitted = True
        return [(row, 1) for row in self._rows]


def _join_key(
    left: IncrementalNode, right: IncrementalNode
) -> tuple[tuple[Variable, ...], Callable[[Binding], object]]:
    """The certainly-bound shared variables two join sides are keyed on,
    and what gives a row its bag key: on one variable the term itself
    (a row costs no 1-tuple), otherwise the tuple of terms."""
    variables = tuple(
        sorted(left.certain_variables & right.certain_variables, key=lambda v: v.value)
    )
    if len(variables) == 1:
        return variables, methodcaller("get", variables[0])
    return variables, methodcaller("key", variables)


class JoinNode(IncrementalNode):
    """Symmetric hash join on the certainly-bound shared variables.

    Each change probes the *current* other-side bag, then lands in its own
    — processing changes one at a time keeps the exactly-once algebra
    (ΔL ⋈ R, then L' ⋈ ΔR) correct even when one batch mixes polarities.
    """

    #: Class-level default: tracing is off unless a Pipeline with an
    #: enabled tracer installs an instance attribute (zero hot-path cost
    #: beyond one identity check).
    _tracer = None

    def __init__(self, left: IncrementalNode, right: IncrementalNode) -> None:
        super().__init__(left.certain_variables | right.certain_variables, left, right)
        self._key_variables, self._key_of = _join_key(left, right)
        self._lefts = _KeyedBag()
        self._rights = _KeyedBag()

    def apply(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        tracer = self._tracer
        if tracer is None:
            return super().apply(delta, dataset)
        with tracer.span(
            "join", key=" ".join(v.value for v in self._key_variables)
        ) as span:
            changes = super().apply(delta, dataset)
            span.args["produced"] = len(changes)
        return changes

    def _changes(
        self, delta: DeltaBatch, dataset: Dataset, left: list[Change], right: list[Change]
    ) -> list[Change]:
        if not left and not right:
            return []
        changes: list[Change] = []
        key_of = self._key_of
        lefts, rights = self._lefts, self._rights
        for binding, count in left:
            key = key_of(binding)
            for other in rights.get(key, ()):
                merged = binding.merged(other)
                if merged is not None:
                    changes.append((merged, count))
            lefts.add(key, binding, count)
        for binding, count in right:
            key = key_of(binding)
            for other in lefts.get(key, ()):
                merged = other.merged(binding)
                if merged is not None:
                    changes.append((merged, count))
            rights.add(key, binding, count)
        return changes


class UnionNode(IncrementalNode):
    def __init__(self, left: IncrementalNode, right: IncrementalNode) -> None:
        super().__init__(left.certain_variables & right.certain_variables, left, right)

    def _changes(
        self, delta: DeltaBatch, dataset: Dataset, left: list[Change], right: list[Change]
    ) -> list[Change]:
        return left + right


class FilterNode(IncrementalNode):
    """FILTER: the verdict depends only on the binding, so a retraction
    filters exactly as its original insertion did.  An EXISTS filter is an
    :class:`ExistsFilterNode` or the template of a :class:`RederivedNode`.
    """

    def __init__(self, input_node: IncrementalNode, expression, evaluator: ExpressionEvaluator) -> None:
        super().__init__(input_node.certain_variables, input_node)
        self._expression = expression
        self._evaluator = evaluator

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        return [
            change
            for change in changes
            if self._evaluator.satisfied(self._expression, change[0])
        ]


class ExistsFilterNode(IncrementalNode):
    """FILTER whose every EXISTS is positive and reached through AND/OR.

    Such a verdict is monotone-true over a growing dataset: once a binding
    passes, it passes for as long as data is only added.  So passers
    stream immediately and the rest wait, retested when an insertion
    touches the EXISTS pattern's predicates; a retraction re-judges every
    candidate.  Every other EXISTS filter is re-derived (:class:`RederivedNode`).
    """

    def __init__(self, input_node: IncrementalNode, expression, evaluator: ExpressionEvaluator) -> None:
        super().__init__(input_node.certain_variables, input_node)
        self._expression = expression
        self._evaluator = evaluator
        # The EXISTS pattern's predicates matter even when no scan wants
        # them: a delta carrying one can flip waiting bindings to passing.
        self.reads = _exists_reads(expression)
        #: Every input binding currently present; ``_out`` is the passing
        #: sub-multiset that has been emitted (:meth:`_sync` keeps it so).
        self._candidates: dict[Binding, int] = {}

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        candidates = self._candidates
        for binding, count in changes:
            _bump(candidates, binding, count)
        predicates = self.reads
        if not (delta and (predicates is None or delta.touches(predicates))):
            # No quad the EXISTS pattern can match (dis)appeared: the
            # verdicts of the bindings already judged stand.
            return self._sync([binding for binding, _ in changes])
        if delta.sign > 0:
            return self._sync(self._lagging())  # an insertion only turns verdicts true
        return self._sync({**self._out, **candidates})  # any verdict may have flipped

    def _lagging(self) -> list[Binding]:
        """Bindings emitted a different number of times than they are
        present: the waiters, and whatever an input just retracted."""
        candidates, passing = self._candidates, self._out
        return [
            binding
            for binding in {**passing, **candidates}
            if candidates.get(binding, 0) != passing.get(binding, 0)
        ]

    def _sync(self, bindings: Iterable[Binding]) -> list[Change]:
        """Re-judge ``bindings``; emit whatever brings each one's emitted
        count to its present count (passing) or to zero (failing)."""
        produced: list[Change] = []
        candidates, passing = self._candidates, self._out
        for binding in bindings:
            present = candidates.get(binding, 0)
            if present and not self._evaluator.satisfied(self._expression, binding):
                present = 0
            emitted = passing.get(binding, 0)
            if present != emitted:
                _bump(passing, binding, present - emitted)
                produced.append((binding, present - emitted))
        return produced


def _exists_eagerly_emittable(expression) -> bool:
    """True when a pass decision is stable as the dataset grows."""
    if not expression_contains_exists(expression):
        return True  # dataset-independent subexpression
    if isinstance(expression, ExistsExpr):
        # Monotone-true only over a pattern that is itself monotonic: a
        # NOT EXISTS / MINUS / OPTIONAL nested inside it can turn a proof
        # found now into a refutation later.
        return not expression.negated and is_monotonic(expression.pattern)
    if isinstance(expression, (And, Or)):
        return _exists_eagerly_emittable(expression.left) and _exists_eagerly_emittable(
            expression.right
        )
    return False


def _exists_reads(*expressions) -> Optional[frozenset]:
    """The predicates of the quads the EXISTS patterns in ``expressions``
    can match (EXISTS nested inside those patterns included); None = any."""
    predicates: set = set()
    for expression in expressions:
        for body in exists_patterns(expression):
            for pattern in read_patterns(body):
                if isinstance(pattern, PathPattern):
                    reads = path_reads(pattern)
                elif isinstance(pattern.predicate, NamedNode):
                    reads = (pattern.predicate,)
                else:
                    reads = None
                if reads is None:
                    return None
                predicates.update(reads)
    return frozenset(predicates)


def _outer_changes(
    node: IncrementalNode, left: list[Change], right: list[Change], pair, emit_pairs: bool
) -> list[Change]:
    """The one body OPTIONAL and MINUS share: an outer join's two outputs.

    Every left row tallies the right rows it pairs with (``pair`` returns
    the paired binding, or ``None``).  OPTIONAL outputs the pairs — they
    stream — and MINUS does not; both output a left row *bare* while its
    tally is zero.  That is only decidable at quiescence, so bare rows are
    withheld while the node is open (``node._lefts.untallied()`` releases
    them) and compensated once settled: a bare row retracts when its first
    pairing arrives and returns when its last one leaves.  New left rows
    probe the right bag as it stood, then right changes probe every left
    row including this batch's: each new-new pair counts exactly once.
    """
    key_of, settled = node._key_of, node.settled
    lefts, rights = node._lefts, node._rights
    changes: list[Change] = []
    for binding, count in left:
        key = key_of(binding)
        tally = 0
        for other in rights.get(key, ()):
            paired = pair(binding, other)
            if paired is not None:
                tally += 1
                if emit_pairs:
                    changes.append((paired, count))
        if settled and not tally:
            changes.append((binding, count))
        lefts.add(key, binding, count, tally)
    for binding, count in right:
        key = key_of(binding)
        bucket = lefts.get(key, ())
        for at in range(0, len(bucket), 2):  # binding at ``at``, its tally after
            paired = pair(bucket[at], binding)
            if paired is None:
                continue
            if settled and not bucket[at + 1]:
                changes.append((bucket[at], -1))  # first pairing: bare no more
            bucket[at + 1] += count
            if emit_pairs:
                changes.append((paired, count))
            if settled and not bucket[at + 1]:
                changes.append((bucket[at], 1))  # last pairing gone: bare again
        rights.add(key, binding, count)
    return changes


class LeftJoinNode(IncrementalNode):
    """OPTIONAL as an incremental left outer hash join.

    Matched merges stream the moment both sides exist; bare (unmatched)
    left rows are withheld until quiescence and compensated after — see
    :func:`_outer_changes`.
    """

    blocking = True

    def __init__(
        self,
        left: IncrementalNode,
        right: IncrementalNode,
        expression,
        evaluator: ExpressionEvaluator,
    ) -> None:
        # Only the required side's variables are certain: bare lefts carry
        # nothing from the optional side.
        super().__init__(left.certain_variables, left, right)
        self._expression = expression
        self._evaluator = evaluator
        self._key_variables, self._key_of = _join_key(left, right)
        #: Left rows tally their partners.
        self._lefts = _KeyedBag(tallied=True)
        self._rights = _KeyedBag()

    def _try_match(self, left_binding: Binding, right_binding: Binding) -> Optional[Binding]:
        merged = left_binding.merged(right_binding)
        if merged is None:
            return None
        if self._expression is not None and not self._evaluator.satisfied(
            self._expression, merged
        ):
            return None
        return merged

    def _changes(
        self, delta: DeltaBatch, dataset: Dataset, left: list[Change], right: list[Change]
    ) -> list[Change]:
        return _outer_changes(self, left, right, self._try_match, emit_pairs=True)

    def _release(self, dataset: Dataset) -> list[Change]:
        return self._lefts.untallied()


class MinusNode(IncrementalNode):
    """MINUS as an incremental anti-join.

    A left row is excluded iff some right row shares at least one bound
    variable with it and is compatible; its survivors are exactly the bare
    rows of :func:`_outer_changes` with the excluders as pairings — more
    data can only add excluders, so survivors are withheld while open.
    When the two sides certainly share variables, candidate excluders come
    from an exact-key bucket (rows elsewhere disagree on a certainly-shared
    variable and are incompatible by construction); otherwise the key is
    empty and the one bucket holds every row.
    """

    blocking = True

    def __init__(self, left: IncrementalNode, right: IncrementalNode) -> None:
        super().__init__(left.certain_variables, left, right)
        self._key_variables, self._key_of = _join_key(left, right)
        #: Left rows tally their excluders.
        self._lefts = _KeyedBag(tallied=True)
        self._rights = _KeyedBag()

    @staticmethod
    def _excluded(left_binding: Binding, right_binding: Binding) -> Optional[Binding]:
        if set(left_binding) & set(right_binding) and left_binding.compatible(right_binding):
            return left_binding
        return None

    def _changes(
        self, delta: DeltaBatch, dataset: Dataset, left: list[Change], right: list[Change]
    ) -> list[Change]:
        return _outer_changes(self, left, right, self._excluded, emit_pairs=False)

    def _release(self, dataset: Dataset) -> list[Change]:
        return self._lefts.untallied()


class GroupAggregateNode(IncrementalNode):
    """GROUP BY with running aggregate states per group key.

    Each change folds member solutions into (or, where the aggregate can
    un-apply, out of) per-group :class:`AggregateState` accumulators, so a
    group's row — its key binding plus each aggregate's result under the
    variable the :class:`GroupBy` binds it to — is read off its states,
    never re-scanning members; HAVING, SELECT expressions and ORDER BY are
    the ordinary nodes above.  Rows are withheld while open — any member
    can still change them — and once settled each touched group swaps its
    old row for its new one.  ``live`` retains every group's member multiset,
    so a retraction no :meth:`AggregateState.retract` can absorb (DISTINCT,
    MIN/MAX, …) rebuilds the states from the survivors.
    """

    blocking = True

    def __init__(
        self,
        input_node: IncrementalNode,
        op: GroupBy,
        evaluator: ExpressionEvaluator,
        live: bool = False,
    ) -> None:
        certain = frozenset(
            key_variable(key)
            for key in op.keys
            if isinstance(key[0], VariableExpr) and key[0].variable in input_node.certain_variables
        )
        super().__init__(certain, input_node)
        self._op = op
        self._evaluator = evaluator
        #: Group key → mutable ``[key binding, aggregate states, member
        #: count]``; aggregates over no keys make one row of zero members.
        self._groups: dict[tuple, list] = (
            {} if op.keys else {(): [EMPTY_BINDING, self._new_states(), 0]}
        )
        self._live = live
        #: Live only: group key → its member multiset (the rebuild source).
        self._members: dict[tuple, dict[Binding, int]] = {}
        #: Group key → its currently-emitted output row.
        self._rows: dict[tuple, Binding] = {}

    def _new_states(self) -> dict[Variable, AggregateState]:
        return {variable: AggregateState(aggregate) for variable, aggregate in self._op.aggregates}

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        # A dict, not a set: change order stays deterministic across processes.
        touched = dict.fromkeys(self._fold(member, count) for member, count in changes)
        return self._swap_rows(touched) if self.settled else []

    def _release(self, dataset: Dataset) -> list[Change]:
        return self._swap_rows(list(self._groups))

    def _swap_rows(self, keys: Iterable[tuple]) -> list[Change]:
        """Replace each of these groups' emitted row by its current one."""
        produced: list[Change] = []
        for key in keys:
            old_row, new_row = self._rows.get(key), self._group_row(key)
            if new_row == old_row:
                continue
            if old_row is not None:
                produced.append((old_row, -1))
                del self._rows[key]
            if new_row is not None:
                produced.append((new_row, 1))
                self._rows[key] = new_row
        return produced

    def _fold(self, member: Binding, count: int) -> tuple:
        """Fold one signed member change into its group; returns the key."""
        key, key_binding = group_key(self._op.keys, member, self._evaluator)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = [key_binding, self._new_states(), 0]
        group[2] += count
        if group[2] < 0:
            raise ValueError(f"retraction of unseen group member {member!r}")
        if self._live:
            _bump(self._members.setdefault(key, {}), member, count)
        states = group[1].values()
        if count > 0:
            for _ in range(count):
                for state in states:
                    state.update(member, self._evaluator)
        elif not group[2] and self._op.keys:
            # Keyed group emptied out: it no longer exists at all.
            del self._groups[key]
            self._members.pop(key, None)
        elif not all(
            state.retract(member, self._evaluator) for _ in range(-count) for state in states
        ):
            self._rebuild_group(key)
        return key

    def _rebuild_group(self, key: tuple) -> None:
        """Recompute one group's states from its surviving members (the
        fallback when an aggregate cannot un-apply a retraction)."""
        if not self._live:
            raise ValueError(
                "retracting from a non-invertible aggregate needs the member "
                "multisets a live=True compile retains"
            )
        states = self._new_states()
        for member, count in self._members.get(key, {}).items():
            for _ in range(count):
                for state in states.values():
                    state.update(member, self._evaluator)
        self._groups[key][1] = states

    def _group_row(self, key: tuple) -> Optional[Binding]:
        """One group's output row from its running states (``None`` once
        the group no longer exists)."""
        group = self._groups.get(key)
        if group is None:
            return None
        row = dict(group[0])
        for variable, state in group[1].items():
            try:
                row[variable] = state.result()
            except ExpressionError:
                pass  # an aggregate error leaves its variable unbound
        return Binding(row)


class OrderSliceNode(IncrementalNode):
    """ORDER BY, optionally fused with OFFSET/LIMIT (top-k).

    Every solution is ranked ``(sort key, arrival sequence)`` on arrival —
    arrival breaks key ties, keeping the emitted order deterministic for a
    given delta schedule — and the OFFSET/LIMIT window is withheld while
    open, released in sorted order at quiescence, and re-derived and
    diffed per change once settled.  What differs is only retention: a
    one-shot run with a LIMIT keeps just the best ``offset + limit``
    entries in a bounded heap (the common ORDER BY + LIMIT page costs
    O(n log k) instead of buffering everything), while ``live`` keeps
    every entry, because a retraction inside the page must be refillable
    from below it.
    """

    blocking = True

    def __init__(
        self,
        input_node: IncrementalNode,
        conditions: Sequence[OrderCondition],
        offset: int,
        limit: Optional[int],
        evaluator: ExpressionEvaluator,
        live: bool = False,
    ) -> None:
        super().__init__(input_node.certain_variables, input_node)
        self._conditions = tuple(conditions)
        self._offset = offset
        self._limit = limit
        self._evaluator = evaluator
        #: Top-k capacity when pruning; ``None`` keeps every entry.
        self._capacity: Optional[int] = None if live or limit is None else offset + limit
        self._seq = 0
        #: Keep-all: ``(rank, binding)`` in arrival order.  Pruning: a heap
        #: of ``(DescendingKey(rank), binding)`` with the worst kept entry
        #: at the root (ranks are unique, so bindings never compare).
        self._entries: list[tuple] = []
        #: The emitted window, in order.
        self._page: list[Binding] = []

    def _admit(self, binding: Binding, count: int) -> None:
        entries, capacity = self._entries, self._capacity
        if count < 0:
            if capacity is not None:
                raise ValueError(
                    "a one-shot ORDER BY + LIMIT prunes its input and cannot "
                    "retract; compile with live=True"
                )
            for _ in range(-count):
                for index, entry in enumerate(entries):
                    if entry[1] == binding:
                        del entries[index]
                        break
                else:
                    raise ValueError(f"retraction of unseen ordered binding {binding!r}")
            return
        key = order_sort_key(self._conditions, binding, self._evaluator)
        for _ in range(count):
            rank = (key, self._seq)
            self._seq += 1
            if capacity is None:
                entries.append((rank, binding))
            elif len(entries) < capacity:
                heapq.heappush(entries, (DescendingKey(rank), binding))
            elif capacity and rank < entries[0][0].key:
                heapq.heapreplace(entries, (DescendingKey(rank), binding))

    def _window(self) -> list[Binding]:
        """The OFFSET/LIMIT window of the retained entries, in order."""
        ranked: Iterable[tuple] = self._entries
        if self._capacity is not None:
            ranked = ((wrapped.key, binding) for wrapped, binding in ranked)
        ranked = sorted(ranked, key=lambda entry: entry[0])
        stop = None if self._limit is None else self._offset + self._limit
        return [binding for _, binding in ranked[self._offset : stop]]

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        for binding, count in changes:
            self._admit(binding, count)
        if not self.settled or not changes:
            return []
        before, self._page = self._page, self._window()
        return _diff_multisets(Counter(before), Counter(self._page))

    def _release(self, dataset: Dataset) -> list[Change]:
        self._page = self._window()  # in order, and unhashed: a one-shot run ends here
        return [(binding, 1) for binding in self._page]


class _HeldNode(IncrementalNode):
    """One input of a :class:`RederivedNode`: its held multiset, emitted
    whole each time a derivation drives it."""

    def __init__(self, certain_variables: frozenset[Variable]) -> None:
        super().__init__(certain_variables)
        self.rows: dict[Binding, int] = {}

    def _changes(self, delta: DeltaBatch, dataset: Dataset) -> list[Change]:
        return list(self.rows.items())


class RederivedNode(IncrementalNode):
    """An operator whose expression holds EXISTS, re-derived whole.

    An EXISTS verdict reads the dataset, so any delta can flip it, in
    either direction.  This node holds each input's multiset and withholds
    its output while open; its output is what a fresh ``make(*held
    inputs)`` — the *template*, the operator's ordinary physical form —
    returns when driven to quiescence over the current dataset, so the
    release keeps the template's emission order (an ORDER BY page stays in
    order).  Once settled it re-derives and diffs whenever an input changes
    or a delta touches ``reads``, the EXISTS patterns' predicates.
    """

    blocking = True

    def __init__(
        self,
        make: Callable[..., IncrementalNode],
        children: Sequence[IncrementalNode],
        reads: Optional[frozenset],
    ) -> None:
        self._make = make
        self._held = tuple(_HeldNode(child.certain_variables) for child in children)
        #: The operator this node re-derives, over the held inputs.
        self.template = make(*self._held)
        super().__init__(self.template.certain_variables, *children)
        self.reads = reads

    def _changes(self, delta: DeltaBatch, dataset: Dataset, *inputs: list[Change]) -> list[Change]:
        for held, changes in zip(self._held, inputs):
            for binding, count in changes:
                _bump(held.rows, binding, count)
        reads = self.reads
        if not self.settled or not (
            any(inputs) or (delta and (reads is None or delta.touches(reads)))
        ):
            return []
        output: dict[Binding, int] = {}
        for binding, count in self._derive(dataset):
            _bump(output, binding, count)
        changes, self._out = _diff_multisets(self._out, output), output
        return changes

    def _release(self, dataset: Dataset) -> list[Change]:
        changes = self._derive(dataset)
        for binding, count in changes:
            _bump(self._out, binding, count)
        return changes

    def _derive(self, dataset: Dataset) -> list[Change]:
        return self._make(*self._held).finalize(dataset)


def _triple_binding(triple: Triple) -> Binding:
    return Binding(dict(zip(TRIPLE_COLUMNS, triple)))


class DescribeNode(IncrementalNode):
    """DESCRIBE as a *streaming* operator.

    A concise bounded description only grows with the dataset, so under
    insertion DESCRIBE is monotonic: as traversal discovers root resources
    (constant targets immediately, WHERE-bound ones as solutions arrive)
    their CBD triples stream out, and each delta quad whose subject is
    already a root emits directly.  Blank-node objects join the root set so
    descriptions recurse exactly as the snapshot evaluator's CBD does; an
    emitted-triple set dedupes across overlapping descriptions.  Under
    retraction a description is not monotonic (a root's CBD can shrink, a
    root itself can vanish), so a shrinking delta recomputes the
    description from the surviving roots and diffs it.
    """

    #: CBD expansion needs every quad whose subject is a known root.
    reads = None

    def __init__(self, input_node: IncrementalNode, query: Query) -> None:
        super().__init__(frozenset(TRIPLE_COLUMNS), input_node)
        targets = query.describe_targets
        variables = [t for t in targets if isinstance(t, Variable)]
        self._constants = [t for t in targets if not isinstance(t, Variable)]
        if variables:
            self._scope: tuple[Variable, ...] = tuple(variables)
        elif not targets:
            self._scope = tuple(
                sorted(operator_variables(query.where), key=lambda v: v.value)
            )
        else:
            self._scope = ()
        self.roots: set[Term] = set()
        self._emitted: dict[Triple, None] = {}
        #: WHERE-bound root resource → how many scope bindings support it
        #: (a root drops out when its last supporting solution retracts).
        self._scope_support: dict[Term, int] = {}

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        graph = dataset.union
        shrinking = delta.sign < 0
        discovered: list[Term] = list(self._constants)
        for binding, count in changes:
            shrinking = shrinking or count < 0
            for variable in self._scope:
                term = binding.get(variable)
                if term is not None and not isinstance(term, Literal):
                    _bump(self._scope_support, term, count)
                    discovered.append(term)
        if shrinking:
            return self._recompute(graph)
        produced: list[Triple] = []
        for resource in discovered:
            self._add_root(resource, graph, produced)
        for quad in delta.quads:
            if quad.subject in self.roots:
                triple = quad.triple
                if triple not in self._emitted:
                    self._emitted[triple] = None
                    produced.append(triple)
                obj = triple.object
                if isinstance(obj, BlankNode):
                    self._add_root(obj, graph, produced)
        return [(_triple_binding(triple), 1) for triple in produced]

    def _add_root(self, resource: Term, graph, produced: list[Triple]) -> None:
        if resource in self.roots:
            return
        self.roots.add(resource)
        frontier = [resource]
        while frontier:
            node = frontier.pop()
            for triple in graph.match(node, None, None):
                if triple not in self._emitted:
                    self._emitted[triple] = None
                    produced.append(triple)
                obj = triple.object
                if isinstance(obj, BlankNode) and obj not in self.roots:
                    self.roots.add(obj)
                    frontier.append(obj)

    def _recompute(self, graph) -> list[Change]:
        """Re-derive the description from the surviving roots and diff it."""
        before = self._emitted
        self.roots, self._emitted = set(), {}
        for resource in (*self._constants, *self._scope_support):
            self._add_root(resource, graph, [])
        after = self._emitted
        changes = [(_triple_binding(t), -1) for t in before if t not in after]
        changes.extend((_triple_binding(t), 1) for t in after if t not in before)
        return changes


class ConstructNode(IncrementalNode):
    """CONSTRUCT as a streaming pipeline root: the template's triples.

    Each solution occurrence instantiates the template in a blank-node
    scope of its own (``construct_triples``), which its retraction removes
    again.  A triple is output while at least one occurrence makes it —
    counted per triple — so the output is the constructed graph as a set,
    and a standing query retracts exactly the triples no surviving
    solution makes.
    """

    def __init__(self, input_node: IncrementalNode, template: Sequence[TriplePattern]) -> None:
        super().__init__(frozenset(TRIPLE_COLUMNS), input_node)
        self._template = tuple(template)
        #: Solution → the triples each of its occurrences made, oldest first.
        self._scopes: dict[Binding, list[list[Triple]]] = {}
        #: Constructed triple → how many occurrences make it.
        self._support: dict[Triple, int] = {}
        #: Occurrences instantiated so far; names each scope's blank nodes.
        self._made = 0

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        produced: list[Change] = []
        support = self._support
        for binding, count in changes:
            scopes = self._scopes.setdefault(binding, [])
            for _ in range(count):
                scopes.append(list(construct_triples(self._template, binding, f"c{self._made}")))
                self._made += 1
                for triple in scopes[-1]:
                    if _bump(support, triple, 1) == 1:
                        produced.append((_triple_binding(triple), 1))
            if -count > len(scopes):
                raise ValueError(f"retraction of unseen solution {binding!r}")
            for _ in range(-count):
                for triple in scopes.pop():
                    if not _bump(support, triple, -1):
                        produced.append((_triple_binding(triple), -1))
            if not scopes:
                del self._scopes[binding]
        return produced


class ProjectNode(IncrementalNode):
    def __init__(self, input_node: IncrementalNode, variables: tuple[Variable, ...]) -> None:
        super().__init__(input_node.certain_variables & frozenset(variables), input_node)
        self._variables = variables

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        variables = self._variables
        return [(binding.projected(variables), count) for binding, count in changes]


class DistinctNode(IncrementalNode):
    def __init__(self, input_node: IncrementalNode) -> None:
        super().__init__(input_node.certain_variables, input_node)
        #: Distinct binding → input multiplicity: emitted on the 0→1
        #: transition, retracted on 1→0.
        self._seen: dict[Binding, int] = {}

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        produced: list[Change] = []
        seen = self._seen
        for binding, count in changes:
            before = seen.get(binding, 0)
            after = before + count
            if after > 0:
                seen[binding] = after
                if not before:
                    produced.append((binding, 1))
            elif after == 0:
                del seen[binding]
                produced.append((binding, -1))
            else:
                raise ValueError(f"retraction of unseen distinct binding {binding!r}")
        return produced


class LimitNode(IncrementalNode):
    """LIMIT without OFFSET: any N results are a correct answer prefix.

    A one-shot run retains nothing: it passes rows through until the
    budget is spent.  A ``live`` run keeps consuming input past
    satisfaction into a *pool*: when a retraction later removes an emitted
    row, the page refills from pooled surplus instead of under-delivering.
    """

    def __init__(self, input_node: IncrementalNode, limit: int, live: bool = False) -> None:
        super().__init__(input_node.certain_variables, input_node)
        self._limit = limit
        self._taken = 0
        self._live = live
        #: Live only: every input row present, insertion-ordered; ``_out``
        #: is the part of it currently emitted (total ≤ ``limit``).
        self._pool: dict[Binding, int] = {}

    @property
    def satisfied(self) -> bool:
        return self._taken >= self._limit

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        produced: list[Change] = []
        if not self._live:
            for binding, count in changes:
                if count < 0:
                    raise ValueError(
                        "a one-shot LIMIT keeps no refill pool and cannot "
                        "retract; compile with live=True"
                    )
                take = min(count, self._limit - self._taken)
                if take > 0:
                    self._taken += take
                    produced.append((binding, take))
            return produced
        pool, out = self._pool, self._out
        for binding, count in changes:
            _bump(pool, binding, count)
        # Clamp emissions to what the pool still holds…
        for binding in list(out):
            excess = out[binding] - pool.get(binding, 0)
            if excess > 0:
                _bump(out, binding, -excess)
                produced.append((binding, -excess))
        # …then refill up to the limit from pooled surplus.
        total = sum(out.values())
        if total < self._limit:
            for binding, available in pool.items():
                take = min(available - out.get(binding, 0), self._limit - total)
                if take > 0:
                    _bump(out, binding, take)
                    produced.append((binding, take))
                    total += take
                    if total >= self._limit:
                        break
        self._taken = total
        return produced


class ExtendNode(IncrementalNode):
    """BIND / projection expressions: one extra variable per solution."""

    def __init__(
        self,
        input_node: IncrementalNode,
        variable: Variable,
        expression,
        evaluator: ExpressionEvaluator,
    ) -> None:
        # The extended variable is not *certain*: the expression may error.
        super().__init__(input_node.certain_variables, input_node)
        self._variable = variable
        self._expression = expression
        self._evaluator = evaluator

    def _extend(self, binding: Binding) -> Optional[Binding]:
        try:
            value = self._evaluator.evaluate(self._expression, binding)
        except ExpressionError:
            return binding
        if self._variable in binding:
            return binding if binding[self._variable] == value else None
        return binding.extended(self._variable, value)

    def _changes(self, delta: DeltaBatch, dataset: Dataset, changes: list[Change]) -> list[Change]:
        return [
            (extended, count)
            for binding, count in changes
            if (extended := self._extend(binding)) is not None
        ]


def _walk(node: IncrementalNode) -> Iterator[IncrementalNode]:
    yield node
    for child in node.children():
        yield from _walk(child)


def total_work(node: IncrementalNode) -> int:
    """Sum of changes produced by every node in a pipeline tree.

    A proxy for evaluation effort: bad join orders inflate intermediate
    results, which this counter exposes (E10).  A re-ordered BGP's new
    chain carries the work of the joins it retired.
    """
    return sum(each.produced_total for each in _walk(node))


#: A BGP re-orders when its leading scan holds at least this many times
#: the bindings of its smallest non-empty scan…
_REORDER_FACTOR = 4
#: …and at most this many times.
_MAX_REORDERS = 2


@dataclass(eq=False)
class BGPChain:
    """One BGP of two or more patterns: its scans in join order, and the
    top of the left-deep join chain over them — what
    :meth:`Pipeline.reorder` re-wires."""

    scans: list
    top: IncrementalNode
    reorders: int = 0


def _ascending(scans: Sequence[IncrementalNode]) -> list[IncrementalNode]:
    """``scans`` by ascending cardinality, keeping the chain connected: a
    scan sharing no variable with those before it waits while one does."""
    remaining, ordered, bound = list(scans), [], set()
    while remaining:
        connected = [scan for scan in remaining if scan.certain_variables & bound]
        best = min(connected or remaining, key=lambda scan: scan.cardinality)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.certain_variables
    return ordered


def _bindings(changes: list[Change]) -> list[Binding]:
    """An insert-only change list as the plain bindings it adds."""
    bindings: list[Binding] = []
    for binding, count in changes:
        if count < 0:
            raise ValueError(
                f"retraction of {binding!r} reached a bindings-only view; "
                "consume signed changes with Pipeline.poll_changes"
            )
        bindings += [binding] * count
    return bindings


class Pipeline:
    """A compiled incremental operator tree and the one feed into it.

    Construction walks the tree once so every scan registers its predicate
    key with the pipeline's :class:`DeltaRouter`; each feed then buckets
    the delta once and dispatches only the matching slices.  There is one
    feed — :meth:`feed`, signed runs through :meth:`IncrementalNode.apply`
    — and the pipeline keeps no position in the dataset: what it feeds is
    what it takes (:meth:`~repro.rdf.dataset.Dataset.take_changes`).
    Three views take and feed: :meth:`poll_changes` (the signed changes
    of whatever was pending), :meth:`advance` (the bindings an insert-only
    change adds) and :meth:`finalize` (the last advance plus the
    quiescence release).  ``blocking_nodes`` lists the physical
    operators that withhold output until :meth:`finalize` — empty means
    the whole plan streams.

    While the plan is open, each BGP re-orders itself on its own evidence:
    after every fed batch, a BGP whose leading scan holds at least
    ``_REORDER_FACTOR`` times the bindings of its smallest non-empty scan
    is rebuilt by ascending scan cardinality (:meth:`reorder`), at most
    ``_MAX_REORDERS`` times.  The counts are the scans' own state; the
    operators above a BGP see nothing of it.
    """

    def __init__(
        self,
        root: IncrementalNode,
        exists_context: Optional[CurrentDatasetExists] = None,
        live: bool = False,
        bgps: Sequence[BGPChain] = (),
    ) -> None:
        self.root = root
        #: Live pipelines retain what retractions need (see the ``live``
        #: parameters of the nodes) and never terminate traversal early.
        self.live = live
        self.router = DeltaRouter()
        root.register(self.router)
        self._exists = exists_context
        self.blocking_nodes: tuple[IncrementalNode, ...] = tuple(
            node for node in _walk(root) if node.blocking
        )
        #: Every BGP of two or more patterns, as its re-orderable chain.
        self.bgps: tuple[BGPChain, ...] = tuple(bgps)
        #: BGP re-orders so far (``ExecutionStats.replans``).
        self.replans = 0
        #: The BGPs that may still re-order; emptied when the plan settles.
        self._watched = list(self.bgps)
        self._tracer = None
        self._trace_parent = None

    @property
    def read_set(self) -> Optional[frozenset]:
        """The predicates of every quad this plan can read (``None`` =
        all of them) — see :attr:`DeltaRouter.read_set`."""
        return self.router.read_set

    def enable_tracing(self, tracer, parent=None) -> None:
        """Record one span per fed batch (under ``parent``) — named
        ``advance-batch`` before quiescence and ``apply-batch`` after —
        with nested ``join`` spans per join operator."""
        self._tracer = tracer
        self._trace_parent = parent
        for node in _walk(self.root):
            if isinstance(node, JoinNode):
                node._tracer = tracer

    def _span(self, name: str, **args):
        """A tracer span under the pipeline's parent; a no-op when untraced."""
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, parent=self._trace_parent, **args)

    @property
    def complete(self) -> bool:
        """True once a top-level LIMIT has been satisfied (CONSTRUCT's
        template reads nothing past its solutions, so one below it counts).

        Always false for live pipelines: maintenance needs the traversal
        to reach true quiescence (a satisfied LIMIT still pools surplus
        rows for later refills), so early termination is disabled.
        """
        if self.live:
            return False
        top = self.root._inputs[0] if isinstance(self.root, ConstructNode) else self.root
        return isinstance(top, LimitNode) and top.satisfied

    def poll_changes(self, dataset: Dataset) -> list[Change]:
        """Take the dataset's pending changes and :meth:`feed` them."""
        return self.feed(dataset.take_changes(), dataset)

    def feed(self, runs: list[tuple[int, list[Quad]]], dataset: Dataset) -> list[Change]:
        """Feed signed runs ``[(sign, quads), ...]`` through the tree.

        Each run becomes one :class:`DeltaBatch` of a single polarity; the
        returned changes are the net signed adjustments to the query's
        result multiset.  Absorbing retractions takes the retention of a
        ``live`` compile.
        """
        if not runs:
            return []
        if self._exists is not None:
            self._exists.bind(dataset)
        changes: list[Change] = []
        if self._tracer is None:  # the per-batch hot path: no span bookkeeping
            for sign, quads in runs:
                changes += self.root.apply(self.router.batch(quads, sign), dataset)
                if self._watched:
                    self._reorder_skewed()
            return changes
        name = "apply-batch" if self.root.settled else "advance-batch"
        for sign, quads in runs:
            with self._span(name, quads=len(quads), sign=sign) as span:
                produced = self.root.apply(self.router.batch(quads, sign), dataset)
                span.args["changes"] = len(produced)
                if self._watched and (reordered := self._reorder_skewed()):
                    span.args["reordered"] = reordered
            changes += produced
        return changes

    def _reorder_skewed(self) -> int:
        """Re-order every watched BGP whose leading scan holds at least
        ``_REORDER_FACTOR`` times its smallest non-empty scan; returns how
        many were rebuilt."""
        rebuilt = 0
        for bgp in self._watched:
            lead = bgp.scans[0].cardinality
            if lead < _REORDER_FACTOR:
                continue
            smallest = min(
                (count for scan in bgp.scans if (count := scan.cardinality)), default=0
            )
            if lead >= _REORDER_FACTOR * smallest:
                self.reorder(bgp, _ascending(bgp.scans))
                rebuilt += 1
        if rebuilt:
            self._watched = [bgp for bgp in self._watched if bgp.reorders < _MAX_REORDERS]
        return rebuilt

    def reorder(self, bgp: BGPChain, scans: Sequence[IncrementalNode]) -> None:
        """Re-wire ``bgp``'s scans into a new left-deep join chain in
        ``scans`` order (any permutation of ``bgp.scans``).

        The new joins are fed the scans' current outputs bottom-up.  A
        symmetric hash join's output over the same inputs does not depend
        on their order, so the new chain holds exactly what the old one
        emitted: the node above is handed the new chain and receives
        nothing, and no answer is derived twice.  No clock, span or dataset
        is read; the retired joins' work moves onto the new top.
        """
        old = bgp.top
        retired = sum(node.produced_total for node in _walk(old) if isinstance(node, JoinNode))
        top, rows = scans[0], scans[0].rows()
        for scan in scans[1:]:
            top = JoinNode(top, scan)
            rows = top._changes(_QUIESCENT, None, rows, scan.rows())
            top.produced_total = len(rows)
            if self._tracer is not None:
                top._tracer = self._tracer
        top.produced_total += retired
        if self.root is old:
            self.root = top
        else:
            parent = next(node for node in _walk(self.root) if old in node._inputs)
            parent._inputs = tuple(top if child is old else child for child in parent._inputs)
        bgp.scans, bgp.top = list(scans), top
        bgp.reorders += 1
        self.replans += 1

    def advance(self, dataset: Dataset) -> list[Binding]:
        """Take and feed the dataset's pending changes; return new solutions.

        The bindings view of :meth:`poll_changes` for insert-only changes
        (all a traversal produces); a retraction surfacing here raises.
        """
        return _bindings(self.poll_changes(dataset))

    def finalize(self, dataset: Dataset) -> list[Binding]:
        """Quiescence: take what is pending, then release withheld output.

        Returns the tail of the result stream — any solutions from the
        final delta plus everything the blocking operators withheld — and
        settles every node.  Runs in O(withheld results); no operator
        re-scans its inputs.  A settled plan keeps its join orders.
        """
        self._watched = []
        produced = self.advance(dataset)
        if self._exists is not None:
            self._exists.bind(dataset)
        with self._span("finalize", blocking=len(self.blocking_nodes)) as span:
            finals = _bindings(self.root.finalize(dataset))
            if span is not None:
                span.args["produced"] = len(finals)
        return produced + finals


@dataclass(frozen=True)
class _CompileContext:
    """What every builder in :data:`_BUILDERS` needs besides its operator."""

    evaluator: ExpressionEvaluator
    bgp_order: Callable
    graph: Optional[Term] = None
    live: bool = False
    #: Every multi-pattern BGP compiled so far (shared by ``replace`` copies).
    bgps: list = field(default_factory=list)

    def compile(self, op: Operator) -> IncrementalNode:
        builder = _BUILDERS.get(type(op))
        if builder is None:
            raise NotStreamable(
                f"operator {type(op).__name__} has no physical implementation"
            )
        return builder(self, op)

    def node(
        self, make: Callable[..., IncrementalNode], inputs: Sequence[Operator], *expressions
    ) -> IncrementalNode:
        """``make`` over the compiled ``inputs`` — or, when one of the
        operator's ``expressions`` holds EXISTS, a :class:`RederivedNode`
        with that as its template: the one place EXISTS decides a form."""
        children = [self.compile(op) for op in inputs]
        if not any(map(expression_contains_exists, expressions)):
            return make(*children)
        return RederivedNode(make, children, _exists_reads(*expressions))

    def order_slice(
        self, order: OrderBy, offset: int = 0, limit: Optional[int] = None
    ) -> IncrementalNode:
        return self.node(
            lambda node: OrderSliceNode(
                node, order.conditions, offset, limit, self.evaluator, live=self.live
            ),
            (order.input,),
            *operator_expressions(order),
        )


def _build_bgp(context: _CompileContext, op: BGP) -> IncrementalNode:
    patterns = context.bgp_order(list(op.patterns) + list(op.path_patterns))
    if not patterns:
        return ValuesNode(ValuesOp((), ((),)))
    scans = [
        (PathScanNode if isinstance(pattern, PathPattern) else ScanNode)(pattern, graph=context.graph)
        for pattern in patterns
    ]
    root = scans[0]
    for scan in scans[1:]:
        root = JoinNode(root, scan)
    if len(scans) > 1:
        context.bgps.append(BGPChain(scans, root))
    return root


def _build_filter(context: _CompileContext, op: Filter) -> IncrementalNode:
    expression, evaluator = op.expression, context.evaluator
    if expression_contains_exists(expression) and _exists_eagerly_emittable(expression):
        return ExistsFilterNode(context.compile(op.input), expression, evaluator)
    return context.node(lambda node: FilterNode(node, expression, evaluator), (op.input,), expression)


def _build_slice(context: _CompileContext, op: Slice) -> IncrementalNode:
    # Fuse ORDER BY + OFFSET/LIMIT into one top-k operator; sort keys are
    # computed before projection so conditions may reference
    # projected-away variables.
    inner = op.input
    if isinstance(inner, Project) and isinstance(inner.input, OrderBy):
        return ProjectNode(
            context.order_slice(inner.input, op.offset, op.limit), inner.variables
        )
    if not isinstance(inner, OrderBy):
        if op.offset == 0:
            node = context.compile(inner)
            return node if op.limit is None else LimitNode(node, op.limit, live=context.live)
        inner = OrderBy(inner, ())  # an OFFSET needs the (unordered) page buffer
    return context.order_slice(inner, op.offset, op.limit)


#: Algebra class → builder of its physical form.
_BUILDERS: dict[type, Callable[[_CompileContext, Operator], IncrementalNode]] = {
    BGP: _build_bgp,
    Join: lambda c, op: JoinNode(c.compile(op.left), c.compile(op.right)),
    LeftJoin: lambda c, op: c.node(
        lambda left, right: LeftJoinNode(left, right, op.expression, c.evaluator),
        (op.left, op.right),
        *operator_expressions(op),
    ),
    Union: lambda c, op: UnionNode(c.compile(op.left), c.compile(op.right)),
    Minus: lambda c, op: MinusNode(c.compile(op.left), c.compile(op.right)),
    Filter: _build_filter,
    Extend: lambda c, op: c.node(
        lambda node: ExtendNode(node, op.variable, op.expression, c.evaluator),
        (op.input,),
        *operator_expressions(op),
    ),
    GraphOp: lambda c, op: replace(c, graph=op.name).compile(op.input),
    ValuesOp: lambda c, op: ValuesNode(op),
    Project: lambda c, op: ProjectNode(c.compile(op.input), op.variables),
    Distinct: lambda c, op: DistinctNode(c.compile(op.input)),
    # Streaming REDUCED: full dedup is permitted by the spec and free here.
    Reduced: lambda c, op: DistinctNode(c.compile(op.input)),
    OrderBy: lambda c, op: c.order_slice(op),
    Slice: _build_slice,
    GroupBy: lambda c, op: c.node(
        lambda node: GroupAggregateNode(node, op, c.evaluator, live=c.live),
        (op.input,),
        *operator_expressions(op),
    ),
    SubSelect: lambda c, op: c.compile(op.query.where),
}


def compile_pipeline(
    where: Operator,
    evaluator: Optional[ExpressionEvaluator] = None,
    seed_iris: Iterable[str] = (),
    bgp_order=None,
    live: bool = False,
) -> Pipeline:
    """Compile an algebra tree into an incremental pipeline.

    Monotonic operators stream; non-monotonic ones compile into blocking
    physical nodes that release withheld output via ``Pipeline.finalize``
    at traversal quiescence.  ``live`` makes the nodes retain what signed
    maintenance past quiescence needs (``Pipeline.poll_changes``).

    ``bgp_order`` optionally chooses each BGP's *starting* join order: a
    callable taking the list of (triple & path) patterns of a BGP and
    returning them in the order the left-deep join tree should use.  The
    default is the zero-knowledge planner.  Either way the pipeline
    re-orders a BGP from its scans' counts while the plan is open (see
    :class:`Pipeline`).
    """
    exists_context: Optional[CurrentDatasetExists] = None
    if evaluator is None:
        exists_context = CurrentDatasetExists()
        evaluator = ExpressionEvaluator(exists_evaluator=exists_context)
    if bgp_order is None:
        seeds = tuple(seed_iris)

        def bgp_order(patterns):
            return plan_bgp_order(patterns, seed_iris=seeds)

    context = _CompileContext(evaluator, bgp_order, live=live)
    root = context.compile(where)
    return Pipeline(root, exists_context, live=live, bgps=context.bgps)


def compile_query_pipeline(
    query: Query,
    seed_iris: Iterable[str] = (),
    bgp_order=None,
    live: bool = False,
) -> Pipeline:
    """Compile a full parsed query — any form — into one pipeline.

    * SELECT uses the WHERE tree directly.
    * ASK wraps the WHERE tree in ``LIMIT 1`` over an empty projection: one
      empty binding means true, none means false — and a monotonic body
      still stops traversal at the first proof.
    * DESCRIBE wraps the WHERE tree in a streaming :class:`DescribeNode`,
      CONSTRUCT in a streaming :class:`ConstructNode`; both return triples
      as ``?subject ?predicate ?object`` bindings.
    """
    where = query.where
    if query.form == "ASK":
        where = Slice(Project(where, ()), offset=0, limit=1)
    pipeline = compile_pipeline(where, seed_iris=seed_iris, bgp_order=bgp_order, live=live)
    if query.form == "DESCRIBE":
        root = DescribeNode(pipeline.root, query)
    elif query.form == "CONSTRUCT":
        root = ConstructNode(pipeline.root, query.construct_template)
    else:
        return pipeline
    return Pipeline(root, pipeline._exists, live=live, bgps=pipeline.bgps)
