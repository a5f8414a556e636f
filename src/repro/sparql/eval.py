"""Snapshot SPARQL evaluator.

Evaluates an algebra tree over an immutable snapshot of data — a
:class:`repro.rdf.dataset.Graph` or a :class:`repro.rdf.dataset.Dataset`
(the latter enables ``GRAPH`` patterns over per-document named graphs).

This evaluator plays three roles in the reproduction:

* the *oracle* for LTQP completeness tests (evaluate over the union of all
  generated documents) — including the equivalence property suite that
  checks the incremental pipeline against it;
* a library of building blocks reused by the unified incremental pipeline
  (:mod:`repro.ltqp.pipeline`): ``EXISTS`` evaluation for
  ``ExistsFilterNode``, sort keys for ``OrderSliceNode``, template
  instantiation for ``ConstructNode``;
* a standalone local query engine over any parsed RDF document (and the
  federation/update endpoints).

Generator-based: every operator yields :class:`Binding` solutions lazily.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Iterable, Iterator, Optional, Union as TypingUnion

from ..rdf.dataset import Dataset, Graph
from ..rdf.terms import BlankNode, Literal, NamedNode, Term, Variable
from ..rdf.triples import Triple, TriplePattern
from .algebra import (
    BGP,
    Distinct,
    ExistsExpr,
    Expression,
    Extend,
    Filter,
    GraphOp,
    GroupBy,
    Join,
    LeftJoin,
    Minus,
    Operator,
    OrderBy,
    PathPattern,
    Project,
    Query,
    Reduced,
    Slice,
    SubSelect,
    TermExpr,
    Union,
    ValuesOp,
    VariableExpr,
    map_children,
)
from .bindings import EMPTY_BINDING, Binding
from .expr import DescendingKey, ExpressionError, ExpressionEvaluator, order_key
from .aggregates import compute_aggregates, group_solutions
from .paths import evaluate_path
from .planner import plan_bgp_order

__all__ = [
    "SnapshotEvaluator",
    "evaluate_query",
    "construct_triples",
    "order_sort_key",
    "substitute_expression",
    "substitute_operator",
]


class SnapshotEvaluator:
    """Evaluate SPARQL algebra over a fixed :class:`Graph` or :class:`Dataset`."""

    def __init__(
        self,
        data: TypingUnion[Graph, Dataset],
        seed_iris: Iterable[str] = (),
    ) -> None:
        if isinstance(data, Dataset):
            self._dataset: Optional[Dataset] = data
            self._graph = data.union
        else:
            self._dataset = None
            self._graph = data
        self._seed_iris = tuple(seed_iris)
        # EXISTS calls back into this evaluator through a weak reference:
        # a bound method would make every evaluator a reference cycle that
        # only a full collection frees, and with it the data it reads.
        this = weakref.ref(self)
        self._expressions = ExpressionEvaluator(
            exists_evaluator=lambda pattern, binding: this().exists(pattern, binding)
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def evaluate(self, op: Operator, graph: Optional[Graph] = None) -> Iterator[Binding]:
        """Evaluate an operator tree, yielding solution mappings."""
        return self._eval(op, self._graph if graph is None else graph)

    def ask(self, query: Query) -> bool:
        """Evaluate an ASK query."""
        for _ in self.evaluate(query.where):
            return True
        return False

    def select(self, query: Query) -> Iterator[Binding]:
        """Evaluate a SELECT query."""
        return self.evaluate(query.where)

    def describe(self, query: Query) -> Iterator[Triple]:
        """Evaluate a DESCRIBE query: the concise bounded description (CBD)
        of each target resource — its outgoing triples, recursing through
        blank-node objects."""
        resources: set[Term] = set()
        variables = [t for t in query.describe_targets if isinstance(t, Variable)]
        constants = [t for t in query.describe_targets if not isinstance(t, Variable)]
        resources.update(constants)
        needs_where = bool(variables) or not query.describe_targets
        if needs_where:
            from .algebra import operator_variables

            in_scope = variables if variables else sorted(
                operator_variables(query.where), key=lambda v: v.value
            )
            for binding in self.evaluate(query.where):
                for variable in in_scope:
                    term = binding.get(variable)
                    if term is not None and not isinstance(term, Literal):
                        resources.add(term)
        emitted: set[Triple] = set()
        for resource in sorted(resources, key=str):
            yield from self._cbd(resource, emitted)

    def _cbd(self, resource: Term, emitted: set[Triple]) -> Iterator[Triple]:
        frontier = [resource]
        visited: set[Term] = set()
        while frontier:
            node = frontier.pop()
            if node in visited:
                continue
            visited.add(node)
            for triple in self._graph.match(node, None, None):
                if triple not in emitted:
                    emitted.add(triple)
                    yield triple
                if isinstance(triple.object, BlankNode):
                    frontier.append(triple.object)

    def construct(self, query: Query) -> Iterator[Triple]:
        """Evaluate a CONSTRUCT query, instantiating the template."""
        emitted: set[Triple] = set()
        for index, binding in enumerate(self.evaluate(query.where)):
            for triple in construct_triples(query.construct_template, binding, f"c{index}"):
                if triple not in emitted:
                    emitted.add(triple)
                    yield triple

    # ------------------------------------------------------------------
    # operator dispatch
    # ------------------------------------------------------------------

    def _eval(self, op: Operator, graph: Graph) -> Iterator[Binding]:
        if isinstance(op, BGP):
            return self._eval_bgp(op, graph)
        if isinstance(op, Join):
            return self._eval_join(op, graph)
        if isinstance(op, LeftJoin):
            return self._eval_left_join(op, graph)
        if isinstance(op, Union):
            return self._eval_union(op, graph)
        if isinstance(op, Minus):
            return self._eval_minus(op, graph)
        if isinstance(op, Filter):
            return self._eval_filter(op, graph)
        if isinstance(op, Extend):
            return self._eval_extend(op, graph)
        if isinstance(op, GraphOp):
            return self._eval_graph(op)
        if isinstance(op, ValuesOp):
            return self._eval_values(op)
        if isinstance(op, Project):
            return self._eval_project(op, graph)
        if isinstance(op, Distinct):
            return self._eval_distinct(op, graph)
        if isinstance(op, Reduced):
            return self._eval_reduced(op, graph)
        if isinstance(op, Slice):
            return self._eval_slice(op, graph)
        if isinstance(op, OrderBy):
            return self._eval_order(op, graph)
        if isinstance(op, GroupBy):
            return self._eval_group(op, graph)
        if isinstance(op, SubSelect):
            return self._eval(op.query.where, graph)
        raise TypeError(f"unknown operator: {op!r}")

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def _eval_bgp(self, op: BGP, graph: Graph) -> Iterator[Binding]:
        patterns = plan_bgp_order(
            list(op.patterns) + list(op.path_patterns), seed_iris=self._seed_iris
        )
        if not patterns:
            yield EMPTY_BINDING
            return
        yield from self._join_patterns(patterns, 0, EMPTY_BINDING, graph)

    def _join_patterns(
        self,
        patterns: list,
        index: int,
        binding: Binding,
        graph: Graph,
    ) -> Iterator[Binding]:
        if index == len(patterns):
            yield binding
            return
        pattern = patterns[index]
        if isinstance(pattern, PathPattern):
            candidates = self._match_path_pattern(pattern, binding, graph)
        else:
            candidates = self._match_triple_pattern(pattern, binding, graph)
        for extended in candidates:
            yield from self._join_patterns(patterns, index + 1, extended, graph)

    def _match_triple_pattern(
        self, pattern: TriplePattern, binding: Binding, graph: Graph
    ) -> Iterator[Binding]:
        subject = _substitute(pattern.subject, binding)
        predicate = _substitute(pattern.predicate, binding)
        object_term = _substitute(pattern.object, binding)
        for triple in graph.match(subject, predicate, object_term):
            extended = _extend_with_triple(binding, pattern, triple)
            if extended is not None:
                yield extended

    def _match_path_pattern(
        self, pattern: PathPattern, binding: Binding, graph: Graph
    ) -> Iterator[Binding]:
        subject = _substitute(pattern.subject, binding)
        object_term = _substitute(pattern.object, binding)
        for start, end in evaluate_path(graph, subject, pattern.path, object_term):
            extended = binding
            if isinstance(pattern.subject, Variable):
                bound = extended.get(pattern.subject)
                if bound is not None and bound != start:
                    continue
                extended = extended.extended(pattern.subject, start)
            if isinstance(pattern.object, Variable):
                bound = extended.get(pattern.object)
                if bound is not None and bound != end:
                    continue
                extended = extended.extended(pattern.object, end)
            yield extended

    # ------------------------------------------------------------------
    # binary operators
    # ------------------------------------------------------------------

    def _eval_join(self, op: Join, graph: Graph) -> Iterator[Binding]:
        # Hash join on shared variables; falls back to cross product.
        left_solutions = list(self._eval(op.left, graph))
        if not left_solutions:
            return
        from .algebra import operator_variables

        shared = tuple(
            sorted(
                (operator_variables(op.left) & operator_variables(op.right)),
                key=lambda v: v.value,
            )
        )
        if not shared:
            for right_binding in self._eval(op.right, graph):
                for left_binding in left_solutions:
                    merged = left_binding.merged(right_binding)
                    if merged is not None:
                        yield merged
            return
        table: dict[tuple, list[Binding]] = {}
        for left_binding in left_solutions:
            table.setdefault(left_binding.key(shared), []).append(left_binding)
        for right_binding in self._eval(op.right, graph):
            # Unbound shared vars on either side require compatibility checks;
            # enumerate candidate keys (exact, plus all-unbound probe).
            key = right_binding.key(shared)
            candidates = table.get(key, [])
            for left_binding in candidates:
                merged = left_binding.merged(right_binding)
                if merged is not None:
                    yield merged
            if any(k is None for k in key):
                # Right side leaves some shared variable unbound: probe all.
                for bucket_key, bucket in table.items():
                    if bucket_key == key:
                        continue
                    if _keys_compatible(bucket_key, key):
                        for left_binding in bucket:
                            merged = left_binding.merged(right_binding)
                            if merged is not None:
                                yield merged

    def _eval_left_join(self, op: LeftJoin, graph: Graph) -> Iterator[Binding]:
        right_solutions = list(self._eval(op.right, graph))
        for left_binding in self._eval(op.left, graph):
            matched = False
            for right_binding in right_solutions:
                merged = left_binding.merged(right_binding)
                if merged is None:
                    continue
                if op.expression is not None and not self._expressions.satisfied(
                    op.expression, merged
                ):
                    continue
                matched = True
                yield merged
            if not matched:
                yield left_binding

    def _eval_union(self, op: Union, graph: Graph) -> Iterator[Binding]:
        yield from self._eval(op.left, graph)
        yield from self._eval(op.right, graph)

    def _eval_minus(self, op: Minus, graph: Graph) -> Iterator[Binding]:
        right_solutions = list(self._eval(op.right, graph))
        for left_binding in self._eval(op.left, graph):
            excluded = False
            for right_binding in right_solutions:
                shared = set(left_binding) & set(right_binding)
                if not shared:
                    continue
                if left_binding.compatible(right_binding):
                    excluded = True
                    break
            if not excluded:
                yield left_binding

    # ------------------------------------------------------------------
    # unary operators
    # ------------------------------------------------------------------

    def _eval_filter(self, op: Filter, graph: Graph) -> Iterator[Binding]:
        for binding in self._eval(op.input, graph):
            if self._expressions.satisfied(op.expression, binding):
                yield binding

    def _eval_extend(self, op: Extend, graph: Graph) -> Iterator[Binding]:
        for binding in self._eval(op.input, graph):
            try:
                value = self._expressions.evaluate(op.expression, binding)
            except ExpressionError:
                yield binding  # BIND error leaves the variable unbound
                continue
            if op.variable in binding:
                # Re-binding an existing variable is a query error; keep the
                # solution only when values agree.
                if binding[op.variable] == value:
                    yield binding
                continue
            yield binding.extended(op.variable, value)

    def _eval_graph(self, op: GraphOp) -> Iterator[Binding]:
        if self._dataset is None:
            raise ValueError("GRAPH patterns require a Dataset, not a bare Graph")
        if isinstance(op.name, Variable):
            for name in list(self._dataset.graph_names()):
                if name is None:
                    continue
                named_graph = self._dataset.get_graph(name)
                for binding in self._eval(op.input, named_graph):
                    if op.name in binding:
                        if binding[op.name] == name:
                            yield binding
                    else:
                        yield binding.extended(op.name, name)
        else:
            if not isinstance(op.name, NamedNode):
                raise ValueError("GRAPH name must be an IRI or variable")
            named_graph = self._dataset.get_graph(op.name)
            if named_graph is not None:
                yield from self._eval(op.input, named_graph)

    def _eval_values(self, op: ValuesOp) -> Iterator[Binding]:
        for row in op.rows:
            items = {
                variable: term
                for variable, term in zip(op.variables, row)
                if term is not None
            }
            yield Binding(items)

    def _eval_project(self, op: Project, graph: Graph) -> Iterator[Binding]:
        for binding in self._eval(op.input, graph):
            yield binding.projected(op.variables)

    def _eval_distinct(self, op: Distinct, graph: Graph) -> Iterator[Binding]:
        seen: set[Binding] = set()
        for binding in self._eval(op.input, graph):
            if binding not in seen:
                seen.add(binding)
                yield binding

    def _eval_reduced(self, op: Reduced, graph: Graph) -> Iterator[Binding]:
        # REDUCED permits but does not require deduplication; dedupe
        # adjacent duplicates, the cheap half-measure.
        previous: Optional[Binding] = None
        for binding in self._eval(op.input, graph):
            if binding != previous:
                yield binding
            previous = binding

    def _eval_slice(self, op: Slice, graph: Graph) -> Iterator[Binding]:
        produced = 0
        skipped = 0
        for binding in self._eval(op.input, graph):
            if skipped < op.offset:
                skipped += 1
                continue
            if op.limit is not None and produced >= op.limit:
                return
            produced += 1
            yield binding

    def _eval_order(self, op: OrderBy, graph: Graph) -> Iterator[Binding]:
        solutions = list(self._eval(op.input, graph))
        solutions.sort(key=lambda b: order_sort_key(op.conditions, b, self._expressions))
        return iter(solutions)

    def _eval_group(self, op: GroupBy, graph: Graph) -> Iterator[Binding]:
        solutions = list(self._eval(op.input, graph))
        for key_binding, members in group_solutions(solutions, op.keys, self._expressions):
            yield compute_aggregates(key_binding, members, op.aggregates, self._expressions)

    # ------------------------------------------------------------------

    def exists(self, pattern: Operator, binding: Binding) -> bool:
        """Does the (substituted) pattern have any solution in this snapshot?

        Public because the incremental pipeline's ``ExistsFilterNode``
        evaluates ``EXISTS`` through a snapshot evaluator over the current
        (growing) dataset.
        """
        substituted = substitute_operator(pattern, binding)
        for _ in self._eval(substituted, self._graph):
            return True
        return False


def order_sort_key(
    conditions, binding: Binding, expressions: ExpressionEvaluator
) -> tuple:
    """The composite ORDER BY sort key for one solution.

    Expression errors order as unbound; ``DESC`` conditions wrap their key
    in :class:`~repro.sparql.expr.DescendingKey`.  Shared by the snapshot
    evaluator's sort and the pipeline's ``OrderSliceNode`` so both produce
    the same ordering.
    """
    keys = []
    for condition in conditions:
        try:
            term = expressions.evaluate(condition.expression, binding)
        except ExpressionError:
            term = None
        key = order_key(term)
        keys.append(DescendingKey(key) if condition.descending else key)
    return tuple(keys)


def _substitute(term: Optional[Term], binding: Binding) -> Optional[Term]:
    if isinstance(term, Variable):
        return binding.get(term)
    return term


def _extend_with_triple(
    binding: Binding, pattern: TriplePattern, triple: Triple
) -> Optional[Binding]:
    items: Optional[dict] = None
    for pattern_term, data_term in zip(pattern, triple):
        if isinstance(pattern_term, Variable):
            bound = binding.get(pattern_term)
            if bound is None and items is not None:
                bound = items.get(pattern_term)
            if bound is None:
                if items is None:
                    items = dict(binding)
                items[pattern_term] = data_term
            elif bound != data_term:
                return None
    if items is None:
        return binding
    return Binding(items)


def _keys_compatible(left: tuple, right: tuple) -> bool:
    for a, b in zip(left, right):
        if a is not None and b is not None and a != b:
            return False
    return True


def substitute_operator(op: Operator, binding: Binding) -> Operator:
    """Inject bound variable values into a pattern (for EXISTS).

    Every in-scope occurrence of a bound variable becomes its value: in
    triple and path patterns, GRAPH names, VALUES rows (only the rows that
    agree remain) and the expressions the pattern evaluates, nested EXISTS
    included.  A variable an operator *assigns* (BIND, a GROUP BY alias)
    stays a variable, and a sub-select sees only the bound variables it
    projects: the others are its own.
    """
    if isinstance(op, BGP):
        return BGP(
            tuple(
                TriplePattern(*(binding.get(term, term) for term in pattern))
                for pattern in op.patterns
            ),
            tuple(
                PathPattern(
                    binding.get(pattern.subject, pattern.subject),
                    pattern.path,
                    binding.get(pattern.object, pattern.object),
                )
                for pattern in op.path_patterns
            ),
        )
    if isinstance(op, (Join, Union, Minus)):
        return type(op)(substitute_operator(op.left, binding), substitute_operator(op.right, binding))
    if isinstance(op, LeftJoin):
        return LeftJoin(
            substitute_operator(op.left, binding),
            substitute_operator(op.right, binding),
            None if op.expression is None else substitute_expression(op.expression, binding),
        )
    if isinstance(op, GraphOp):
        name = binding.get(op.name, op.name)
        if not isinstance(name, (NamedNode, Variable)):
            return ValuesOp((), ())  # no named graph has that name
        return GraphOp(name, substitute_operator(op.input, binding))
    if isinstance(op, ValuesOp):
        return ValuesOp(
            op.variables,
            tuple(
                row
                for row in op.rows
                if all(
                    term is None or binding.get(variable, term) == term
                    for variable, term in zip(op.variables, row)
                )
            ),
        )
    if isinstance(op, SubSelect):
        own = binding.projected(op.query.variables())
        return SubSelect(replace(op.query, where=substitute_operator(op.query.where, own)))
    inner = substitute_operator(op.input, binding)
    if isinstance(op, Filter):
        return Filter(substitute_expression(op.expression, binding), inner)
    if isinstance(op, Extend):
        return Extend(inner, op.variable, substitute_expression(op.expression, binding))
    if isinstance(op, OrderBy):
        return OrderBy(
            inner,
            tuple(
                replace(condition, expression=substitute_expression(condition.expression, binding))
                for condition in op.conditions
            ),
        )
    if isinstance(op, GroupBy):
        return GroupBy(
            inner,
            tuple((substitute_expression(key, binding), alias) for key, alias in op.keys),
            tuple(
                (variable, substitute_expression(aggregate, binding))
                for variable, aggregate in op.aggregates
            ),
        )
    return replace(op, input=inner)  # Project, Distinct, Reduced, Slice


def substitute_expression(expression: Expression, binding: Binding) -> Expression:
    """:func:`substitute_operator` for an expression: a bound variable
    becomes its value (``BOUND`` of it, true) in every sub-expression."""
    if isinstance(expression, VariableExpr):
        term = binding.get(expression.variable)
        return expression if term is None else TermExpr(term)
    if isinstance(expression, ExistsExpr):
        return replace(expression, pattern=substitute_operator(expression.pattern, binding))
    return map_children(expression, lambda child: substitute_expression(child, binding))


def construct_triples(
    template: tuple[TriplePattern, ...], binding: Binding, scope: Optional[str]
) -> Iterator[Triple]:
    """Instantiate a template for one solution.

    A triple holding a variable the solution leaves unbound, or that is no
    RDF triple (a literal subject, a non-IRI predicate), is skipped.  With
    a ``scope``, each query blank-node variable (``?__bn...``) becomes a
    blank node fresh to this solution, labelled ``{scope}_{k}`` — the
    CONSTRUCT and INSERT template semantics; without one it is looked up
    like any variable (what a DELETE template removes).
    """
    fresh: dict[Variable, BlankNode] = {}
    for pattern in template:
        terms: list[Term] = []
        for term in pattern:
            if isinstance(term, Variable):
                if scope is not None and term.value.startswith("__bn"):
                    if term not in fresh:
                        fresh[term] = BlankNode(f"{scope}_{len(fresh)}")
                    term = fresh[term]
                elif (term := binding.get(term)) is None:
                    break
            terms.append(term)
        else:
            subject, predicate, object_term = terms
            if not isinstance(subject, Literal) and isinstance(predicate, NamedNode):
                yield Triple(subject, predicate, object_term)


def evaluate_query(
    data: TypingUnion[Graph, Dataset], query: Query, seed_iris: Iterable[str] = ()
):
    """One-shot convenience: evaluate a parsed query over a snapshot.

    Returns a list of bindings (SELECT), a bool (ASK), or a list of triples
    (CONSTRUCT).
    """
    evaluator = SnapshotEvaluator(data, seed_iris=seed_iris)
    if query.form == "SELECT":
        return list(evaluator.select(query))
    if query.form == "ASK":
        return evaluator.ask(query)
    if query.form == "CONSTRUCT":
        return list(evaluator.construct(query))
    if query.form == "DESCRIBE":
        return list(evaluator.describe(query))
    raise ValueError(f"unsupported query form {query.form!r}")
