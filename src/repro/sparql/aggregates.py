"""Grouping and aggregate values for GROUP BY queries.

A :class:`~repro.sparql.algebra.GroupBy` partitions solutions by their
key (:func:`group_key`) and binds each of its aggregates to a variable of
the group's row; HAVING, the SELECT expressions and ORDER BY are then the
ordinary Filter, Extend and OrderBy over those rows, so nothing here
evaluates an expression that holds an aggregate.  The values are computed
twice, independently, so the oracle still checks the pipeline:

* **batch** — :func:`group_solutions` / :func:`compute_aggregates` fold a
  materialized solution list (the snapshot evaluator's path);
* **incremental** — :class:`AggregateState` accumulates one member at a
  time (the unified pipeline's ``GroupAggregateNode``), so a group's
  values finalize in O(result) at traversal quiescence instead of
  re-scanning members.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Optional, Sequence

from ..rdf.terms import Literal, Term, Variable, XSD_INTEGER
from .algebra import AggregateExpr, Expression, key_variable
from .bindings import EMPTY_BINDING, Binding
from .expr import ExpressionError, ExpressionEvaluator, compare_terms

__all__ = [
    "group_key",
    "group_solutions",
    "compute_aggregates",
    "AggregateState",
]

GroupKeys = Sequence[tuple[Expression, Optional[Variable]]]


def group_key(
    keys: GroupKeys, solution: Binding, expressions: ExpressionEvaluator
) -> tuple[tuple, Binding]:
    """The key of the group ``solution`` falls into, and the binding of
    the variables the keys bind (:func:`~repro.sparql.algebra.key_variable`);
    a key whose expression errors is unbound."""
    terms: list[Optional[Term]] = []
    items: dict[Variable, Term] = {}
    for key in keys:
        try:
            value: Optional[Term] = expressions.evaluate(key[0], solution)
        except ExpressionError:
            value = None
        terms.append(value)
        variable = key_variable(key)
        if value is not None and variable is not None:
            items[variable] = value
    return tuple(terms), Binding(items)


def group_solutions(
    solutions: list[Binding], keys: GroupKeys, expressions: ExpressionEvaluator
) -> list[tuple[Binding, list[Binding]]]:
    """Partition solutions into ``(key binding, members)`` groups.

    With no keys, all solutions form one implicit group (even when empty,
    per the spec's single-empty-group rule for aggregate-only queries).
    """
    if not keys:
        return [(EMPTY_BINDING, solutions)]
    groups: dict[tuple, tuple[Binding, list[Binding]]] = {}
    for solution in solutions:
        key, key_binding = group_key(keys, solution, expressions)
        groups.setdefault(key, (key_binding, []))[1].append(solution)
    return list(groups.values())


def compute_aggregates(
    key_binding: Binding,
    members: list[Binding],
    aggregates: Sequence[tuple[Variable, AggregateExpr]],
    expressions: ExpressionEvaluator,
) -> Binding:
    """One group's row: its key binding plus each aggregate's value (an
    aggregate that errors leaves its variable unbound)."""
    row = dict(key_binding)
    for variable, aggregate in aggregates:
        try:
            row[variable] = _compute_aggregate(aggregate, members, expressions)
        except ExpressionError:
            pass
    return Binding(row)


def _compute_aggregate(
    aggregate: AggregateExpr,
    members: list[Binding],
    expressions: ExpressionEvaluator,
) -> Term:
    values: list[Term] = []
    if aggregate.operand is None:
        # COUNT(*): every solution counts.
        if aggregate.name != "COUNT":
            raise ExpressionError(f"{aggregate.name}(*) is not defined")
        count = len(members) if not aggregate.distinct else len(set(members))
        return Literal(str(count), datatype=XSD_INTEGER)

    for member in members:
        try:
            values.append(expressions.evaluate(aggregate.operand, member))
        except ExpressionError:
            if aggregate.name != "COUNT":
                # Per spec, an error in SUM/AVG/MIN/MAX propagates; COUNT skips.
                raise
    if aggregate.distinct:
        unique: list[Term] = []
        seen: set[Term] = set()
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique

    name = aggregate.name
    if name == "COUNT":
        return Literal(str(len(values)), datatype=XSD_INTEGER)
    if name == "SAMPLE":
        if not values:
            raise ExpressionError("SAMPLE of empty group")
        return values[0]
    if name == "GROUP_CONCAT":
        parts = []
        for value in values:
            if not isinstance(value, Literal):
                raise ExpressionError("GROUP_CONCAT over non-literal")
            parts.append(value.value)
        return Literal(aggregate.separator.join(parts))
    if not values:
        if name == "SUM":
            return Literal("0", datatype=XSD_INTEGER)
        raise ExpressionError(f"{name} of empty group")
    if name in ("MIN", "MAX"):
        best = values[0]
        for value in values[1:]:
            operator = "<" if name == "MIN" else ">"
            try:
                if compare_terms(value, best, operator):
                    best = value
            except ExpressionError:
                # Fall back to lexical comparison for mixed types.
                if (str(value) < str(best)) == (name == "MIN"):
                    best = value
        return best
    if name in ("SUM", "AVG"):
        total: object = 0
        for value in values:
            if not isinstance(value, Literal) or not value.is_numeric:
                raise ExpressionError(f"{name} over non-numeric value {value!r}")
            number = value.to_python()
            if isinstance(total, float) or isinstance(number, float):
                total = float(total) + float(number)
            elif isinstance(total, Decimal) or isinstance(number, Decimal):
                total = Decimal(total) + Decimal(number)
            else:
                total = total + number
        if name == "AVG":
            if isinstance(total, float):
                average = total / len(values)
            else:
                average = Decimal(total) / Decimal(len(values))
            return _to_literal(average)
        return _to_literal(total)
    raise ExpressionError(f"unknown aggregate {name!r}")


def _to_literal(value) -> Literal:
    from ..rdf.terms import XSD_DECIMAL, XSD_DOUBLE

    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, Decimal):
        return Literal(format(value, "f"), datatype=XSD_DECIMAL)
    return Literal(repr(value), datatype=XSD_DOUBLE)


# ---------------------------------------------------------------------------
# Incremental aggregation (one member at a time)
# ---------------------------------------------------------------------------


class AggregateState:
    """Running state for one aggregate over one group.

    ``update`` folds members in as traversal delivers them; ``result``
    produces the same term :func:`_compute_aggregate` would compute from
    the full member list (same error semantics: an evaluation error in a
    ``COUNT`` operand skips the member, in any other aggregate it poisons
    the group's value, which :meth:`result` then raises).
    """

    __slots__ = ("aggregate", "_error", "_count", "_total", "_best", "_first", "_parts", "_seen")

    def __init__(self, aggregate: AggregateExpr) -> None:
        self.aggregate = aggregate
        # A non-COUNT ``agg(*)`` is undefined: poison the group so ``result``
        # raises (mirrors the batch path) instead of failing at compile time.
        self._error = aggregate.operand is None and aggregate.name != "COUNT"
        self._count = 0
        self._total: object = 0
        self._best: Optional[Term] = None
        self._first: Optional[Term] = None
        self._parts: list[str] = []
        self._seen: Optional[set] = set() if aggregate.distinct else None

    def update(self, member: Binding, expressions: ExpressionEvaluator) -> None:
        """Fold one group member into the running state."""
        if self._error:
            return
        aggregate = self.aggregate
        if aggregate.operand is None:
            # COUNT(*): every solution counts; DISTINCT dedupes whole rows.
            if self._seen is not None:
                if member in self._seen:
                    return
                self._seen.add(member)
            self._count += 1
            return
        try:
            value = expressions.evaluate(aggregate.operand, member)
        except ExpressionError:
            if aggregate.name != "COUNT":
                self._error = True
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        name = aggregate.name
        if name == "COUNT":
            self._count += 1
        elif name in ("SUM", "AVG"):
            if not isinstance(value, Literal) or not value.is_numeric:
                self._error = True
                return
            number = value.to_python()
            total = self._total
            if isinstance(total, float) or isinstance(number, float):
                self._total = float(total) + float(number)
            elif isinstance(total, Decimal) or isinstance(number, Decimal):
                self._total = Decimal(total) + Decimal(number)
            else:
                self._total = total + number
            self._count += 1
        elif name in ("MIN", "MAX"):
            if self._count == 0:
                self._best = value
            else:
                best = self._best
                operator = "<" if name == "MIN" else ">"
                try:
                    if compare_terms(value, best, operator):
                        self._best = value
                except ExpressionError:
                    # Lexical fallback for mixed types (mirrors batch path).
                    if (str(value) < str(best)) == (name == "MIN"):
                        self._best = value
            self._count += 1
        elif name == "SAMPLE":
            if self._count == 0:
                self._first = value
            self._count += 1
        elif name == "GROUP_CONCAT":
            if not isinstance(value, Literal):
                self._error = True
                return
            self._parts.append(value.value)
            self._count += 1
        else:
            self._error = True

    def retract(self, member: Binding, expressions: ExpressionEvaluator) -> bool:
        """Un-fold one previously-:meth:`update`-ed member, when possible.

        Returns ``True`` when the state now reflects the group without
        ``member``; ``False`` when this aggregate cannot be decremented
        (DISTINCT, MIN/MAX/SAMPLE/GROUP_CONCAT order/extremum state, or a
        poisoned group) — the caller must then rebuild the state from the
        surviving members.
        """
        if self._error:
            # The poisoning member might be this one; only a rebuild knows.
            return False
        if self._seen is not None:
            return False  # DISTINCT: removal may resurrect a duplicate.
        aggregate = self.aggregate
        name = aggregate.name
        if name in ("MIN", "MAX", "SAMPLE", "GROUP_CONCAT"):
            return False  # extremum / order-sensitive state
        if aggregate.operand is None:  # COUNT(*)
            self._count -= 1
            return True
        try:
            value = expressions.evaluate(aggregate.operand, member)
        except ExpressionError:
            # COUNT skipped this member on update; nothing to undo.
            return True
        if name == "COUNT":
            self._count -= 1
            return True
        # SUM / AVG: subtract with the same numeric-promotion rules.
        if not isinstance(value, Literal) or not value.is_numeric:
            return False
        number = value.to_python()
        total = self._total
        if isinstance(total, float) or isinstance(number, float):
            self._total = float(total) - float(number)
        elif isinstance(total, Decimal) or isinstance(number, Decimal):
            self._total = Decimal(total) - Decimal(number)
        else:
            self._total = total - number
        self._count -= 1
        return True

    def result(self) -> Term:
        """The aggregate's value; raises :class:`ExpressionError` like the
        batch path (poisoned group, empty non-COUNT/SUM/GROUP_CONCAT group,
        unknown aggregate)."""
        if self._error:
            raise ExpressionError(f"{self.aggregate.name} aggregation error")
        name = self.aggregate.name
        if name == "COUNT":
            return Literal(str(self._count), datatype=XSD_INTEGER)
        if name == "SAMPLE":
            if self._count == 0:
                raise ExpressionError("SAMPLE of empty group")
            return self._first
        if name == "GROUP_CONCAT":
            return Literal(self.aggregate.separator.join(self._parts))
        if self._count == 0:
            if name == "SUM":
                return Literal("0", datatype=XSD_INTEGER)
            raise ExpressionError(f"{name} of empty group")
        if name in ("MIN", "MAX"):
            return self._best
        if name == "SUM":
            return _to_literal(self._total)
        if name == "AVG":
            total = self._total
            if isinstance(total, float):
                average = total / self._count
            else:
                average = Decimal(total) / Decimal(self._count)
            return _to_literal(average)
        raise ExpressionError(f"unknown aggregate {name!r}")
