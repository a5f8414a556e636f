"""SPARQL algebra: operator tree and expression tree dataclasses.

The parser (:mod:`repro.sparql.parser`) translates query syntax directly into
this algebra, closely following the SPARQL 1.1 specification's translation
rules (group graph patterns become joins, ``OPTIONAL`` becomes ``LeftJoin``,
etc.).  Evaluators — the snapshot evaluator in :mod:`repro.sparql.eval` and
the incremental pipeline in :mod:`repro.ltqp.pipeline` — both consume this
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from ..rdf.terms import NamedNode, Term, Variable  # noqa: F401 (Term used in Query)
from ..rdf.triples import TriplePattern

__all__ = [
    # expressions
    "Expression",
    "TermExpr",
    "VariableExpr",
    "And",
    "Or",
    "Not",
    "Compare",
    "Arithmetic",
    "UnaryMinus",
    "UnaryPlus",
    "FunctionCall",
    "InExpr",
    "ExistsExpr",
    "AggregateExpr",
    # property paths
    "Path",
    "PredicatePath",
    "InversePath",
    "SequencePath",
    "AlternativePath",
    "ZeroOrMorePath",
    "OneOrMorePath",
    "ZeroOrOnePath",
    "NegatedPropertySet",
    "PathPattern",
    # operators
    "Operator",
    "BGP",
    "Join",
    "LeftJoin",
    "Union",
    "Minus",
    "Filter",
    "Extend",
    "GraphOp",
    "ValuesOp",
    "Project",
    "Distinct",
    "Reduced",
    "Slice",
    "OrderBy",
    "OrderCondition",
    "GroupBy",
    "SubSelect",
    "Query",
    "TRIPLE_COLUMNS",
    "is_monotonic",
    "exists_patterns",
    "expression_children",
    "expression_contains_exists",
    "key_variable",
    "map_children",
    "operator_children",
    "operator_expressions",
    "operator_variables",
    "read_patterns",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for SPARQL expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TermExpr(Expression):
    """A constant RDF term (IRI or literal) in an expression."""

    term: Term


@dataclass(frozen=True, slots=True)
class VariableExpr(Expression):
    """A variable reference in an expression."""

    variable: Variable


@dataclass(frozen=True, slots=True)
class And(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Or(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Not(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class Compare(Expression):
    """Binary comparison: operator is one of ``= != < <= > >=``."""

    operator: str
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Arithmetic(Expression):
    """Binary arithmetic: operator is one of ``+ - * /``."""

    operator: str
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class UnaryMinus(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class UnaryPlus(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A built-in (by upper-cased name) or extension function (by IRI)."""

    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class InExpr(Expression):
    """``expr IN (e1, ..., en)`` or its negation."""

    operand: Expression
    choices: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class ExistsExpr(Expression):
    """``EXISTS { pattern }`` / ``NOT EXISTS { pattern }``."""

    pattern: "Operator"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class AggregateExpr(Expression):
    """An aggregate: name in COUNT/SUM/MIN/MAX/AVG/SAMPLE/GROUP_CONCAT.

    ``operand`` is ``None`` for ``COUNT(*)``.
    """

    name: str
    operand: Optional[Expression]
    distinct: bool = False
    separator: str = " "


# ---------------------------------------------------------------------------
# Property paths
# ---------------------------------------------------------------------------


class Path:
    """Base class for property-path expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PredicatePath(Path):
    predicate: NamedNode


@dataclass(frozen=True, slots=True)
class InversePath(Path):
    path: Path


@dataclass(frozen=True, slots=True)
class SequencePath(Path):
    steps: tuple[Path, ...]


@dataclass(frozen=True, slots=True)
class AlternativePath(Path):
    options: tuple[Path, ...]


@dataclass(frozen=True, slots=True)
class ZeroOrMorePath(Path):
    path: Path


@dataclass(frozen=True, slots=True)
class OneOrMorePath(Path):
    path: Path


@dataclass(frozen=True, slots=True)
class ZeroOrOnePath(Path):
    path: Path


@dataclass(frozen=True, slots=True)
class NegatedPropertySet(Path):
    """``!(iri1|...|irin)`` including inverse members."""

    forward: tuple[NamedNode, ...]
    inverse: tuple[NamedNode, ...] = ()


@dataclass(frozen=True, slots=True)
class PathPattern:
    """A subject-path-object pattern inside a BGP."""

    subject: Term
    path: Path
    object: Term

    def variables(self) -> set[Variable]:
        return {t for t in (self.subject, self.object) if isinstance(t, Variable)}


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class Operator:
    """Base class for algebra operators."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class BGP(Operator):
    """Basic graph pattern: triple patterns plus property-path patterns."""

    patterns: tuple[TriplePattern, ...]
    path_patterns: tuple[PathPattern, ...] = ()

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        for path_pattern in self.path_patterns:
            result |= path_pattern.variables()
        return result


@dataclass(frozen=True, slots=True)
class Join(Operator):
    left: Operator
    right: Operator


@dataclass(frozen=True, slots=True)
class LeftJoin(Operator):
    """OPTIONAL with an optional embedded filter expression."""

    left: Operator
    right: Operator
    expression: Optional[Expression] = None


@dataclass(frozen=True, slots=True)
class Union(Operator):
    left: Operator
    right: Operator


@dataclass(frozen=True, slots=True)
class Minus(Operator):
    left: Operator
    right: Operator


@dataclass(frozen=True, slots=True)
class Filter(Operator):
    expression: Expression
    input: Operator


@dataclass(frozen=True, slots=True)
class Extend(Operator):
    """BIND: extend each solution with variable := expression."""

    input: Operator
    variable: Variable
    expression: Expression


@dataclass(frozen=True, slots=True)
class GraphOp(Operator):
    """GRAPH term { pattern } — term is an IRI or a variable."""

    name: Term
    input: Operator


@dataclass(frozen=True, slots=True)
class ValuesOp(Operator):
    """Inline data: VALUES clause."""

    variables: tuple[Variable, ...]
    rows: tuple[tuple[Optional[Term], ...], ...]


@dataclass(frozen=True, slots=True)
class Project(Operator):
    input: Operator
    variables: tuple[Variable, ...]


@dataclass(frozen=True, slots=True)
class Distinct(Operator):
    input: Operator


@dataclass(frozen=True, slots=True)
class Reduced(Operator):
    input: Operator


@dataclass(frozen=True, slots=True)
class Slice(Operator):
    input: Operator
    offset: int = 0
    limit: Optional[int] = None


@dataclass(frozen=True, slots=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True, slots=True)
class OrderBy(Operator):
    input: Operator
    conditions: tuple[OrderCondition, ...]


@dataclass(frozen=True, slots=True)
class GroupBy(Operator):
    """Grouping: one row per group, binding its keys and its aggregates.

    ``keys`` are the GROUP BY expressions, each paired with an optional
    output variable for ``GROUP BY (expr AS ?v)``; no keys is the one
    implicit group.  ``aggregates`` binds each :class:`AggregateExpr` to a
    variable of the group's row — the parser lifts every aggregate of the
    SELECT expressions, HAVING and ORDER BY into a hidden ``?__aggN`` —
    so those clauses are the ordinary :class:`Extend`, :class:`Filter` and
    :class:`OrderBy` over the rows.
    """

    input: Operator
    keys: tuple[tuple[Expression, Optional[Variable]], ...]
    aggregates: tuple[tuple[Variable, AggregateExpr], ...]


@dataclass(frozen=True, slots=True)
class SubSelect(Operator):
    """A nested SELECT used as a group graph pattern element."""

    query: "Query"


#: The columns DESCRIBE and CONSTRUCT return their triples under.
TRIPLE_COLUMNS = (Variable("subject"), Variable("predicate"), Variable("object"))


@dataclass(frozen=True, slots=True)
class Query:
    """A parsed SPARQL query.

    ``form`` is one of ``SELECT``, ``ASK``, ``CONSTRUCT``, ``DESCRIBE``.
    ``where`` is the full algebra tree including solution modifiers
    (Project/Distinct/Slice etc. are part of the tree, rooted at ``where``).
    """

    form: str
    where: Operator
    construct_template: tuple[TriplePattern, ...] = ()
    describe_targets: tuple[Term, ...] = ()
    prefixes: tuple[tuple[str, str], ...] = ()
    base_iri: str = ""
    #: The source text this query was parsed from (``""`` for queries
    #: built programmatically).  Excluded from equality/hash: two parses
    #: of differently-formatted but structurally identical text still
    #: compare equal.  Front-ends that ship queries across process
    #: boundaries (the sharded service) re-submit this text.
    text: str = field(default="", compare=False)

    def variables(self) -> tuple[Variable, ...]:
        """The columns of this query's rows: the projected variables in
        projection order, or :data:`TRIPLE_COLUMNS` for the triple forms."""
        if self.form in ("CONSTRUCT", "DESCRIBE"):
            return TRIPLE_COLUMNS
        node = self.where
        while True:
            if isinstance(node, Project):
                return node.variables
            if isinstance(node, (Distinct, Reduced)):
                node = node.input
            elif isinstance(node, Slice):
                node = node.input
            elif isinstance(node, OrderBy):
                node = node.input
            else:
                return tuple(sorted(operator_variables(node), key=lambda v: v.value))


# ---------------------------------------------------------------------------
# Introspection helpers
# ---------------------------------------------------------------------------

def is_monotonic(op: Operator) -> bool:
    """True when the operator tree yields only monotonic results.

    Monotonic means: as the underlying data grows, the result set only
    grows — previously emitted solutions remain valid.  This is the class of
    queries the paper's engine evaluates fully pipelined during traversal;
    non-monotonic operators (OPTIONAL, MINUS, ORDER BY, GROUP BY, OFFSET)
    must wait for traversal quiescence, and so must an expression holding
    EXISTS.

    LIMIT without OFFSET is monotonic (any N answers are a valid prefix).
    """
    if isinstance(op, (LeftJoin, Minus, OrderBy, GroupBy)) or (
        isinstance(op, Slice) and op.offset
    ):
        return False
    return not any(map(expression_contains_exists, operator_expressions(op))) and all(
        map(is_monotonic, operator_children(op))
    )


def _child_fields(expression: Expression) -> Iterator[tuple[str, object]]:
    """Each field of ``expression`` that holds sub-expressions, with its
    value: one expression, or a tuple of them (call arguments, IN choices).
    An EXISTS pattern is an operator, not a sub-expression."""
    for name in (f.name for f in fields(expression)):
        value = getattr(expression, name)
        if isinstance(value, (Expression, tuple)):
            yield name, value


def expression_children(expression: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of ``expression``, in field order."""
    children: list[Expression] = []
    for _, value in _child_fields(expression):
        children.extend(value if isinstance(value, tuple) else (value,))
    return tuple(children)


def map_children(
    expression: Expression, function: Callable[[Expression], Expression]
) -> Expression:
    """``expression`` with ``function`` applied to each direct sub-expression."""
    changes = {
        name: tuple(map(function, value)) if isinstance(value, tuple) else function(value)
        for name, value in _child_fields(expression)
    }
    return replace(expression, **changes) if changes else expression


def exists_patterns(expression: Optional[Expression]) -> Iterator[Operator]:
    """The pattern of every ``EXISTS`` / ``NOT EXISTS`` in ``expression``.

    The walk does not enter those patterns: an EXISTS nested inside one is
    reached through the operators of the pattern (:func:`read_patterns`).
    """
    if isinstance(expression, ExistsExpr):
        yield expression.pattern
    elif expression is not None:
        for child in expression_children(expression):
            yield from exists_patterns(child)


def expression_contains_exists(expression: Expression) -> bool:
    """True when the expression mentions ``EXISTS``/``NOT EXISTS`` anywhere.

    Such expressions cannot be decided against a growing dataset: an
    ``EXISTS`` that is false now may become true once more documents
    arrive (and vice versa for ``NOT EXISTS``), so any operator evaluating
    them must hold its verdict until traversal quiescence.
    """
    return any(exists_patterns(expression))


def operator_children(op: Operator) -> tuple[Operator, ...]:
    """The direct child operators of ``op`` (empty for leaves)."""
    if isinstance(op, (Join, LeftJoin, Union, Minus)):
        return (op.left, op.right)
    if isinstance(
        op, (Filter, Extend, GraphOp, Project, Distinct, Reduced, Slice, OrderBy, GroupBy)
    ):
        return (op.input,)
    if isinstance(op, SubSelect):
        return (op.query.where,)
    if isinstance(op, (BGP, ValuesOp)):
        return ()
    raise TypeError(f"unknown operator: {op!r}")


def operator_expressions(op: Operator) -> tuple[Expression, ...]:
    """The expressions an algebra operator evaluates per solution."""
    if isinstance(op, (Filter, Extend)):
        return (op.expression,)
    if isinstance(op, LeftJoin):
        return () if op.expression is None else (op.expression,)
    if isinstance(op, OrderBy):
        return tuple(condition.expression for condition in op.conditions)
    if isinstance(op, GroupBy):
        return (
            *(expression for expression, _ in op.keys),
            *(aggregate for _, aggregate in op.aggregates),
        )
    return ()


def read_patterns(op: Operator) -> Iterator[TriplePattern | PathPattern]:
    """Every triple and path pattern the answer of ``op`` depends on.

    BGP patterns come in tree order (left before right, triple patterns
    before path patterns); after an operator's children come the patterns
    of each EXISTS its expressions evaluate — in FILTER, BIND, OPTIONAL's
    ON, GROUP BY or ORDER BY, nested EXISTS included.  This is
    the one answer to "what does this query read": link extraction, source
    selection and the pipeline's read set all derive theirs from it.
    """
    if isinstance(op, BGP):
        yield from op.patterns
        yield from op.path_patterns
        return
    for child in operator_children(op):
        yield from read_patterns(child)
    for expression in operator_expressions(op):
        for pattern in exists_patterns(expression):
            yield from read_patterns(pattern)


def key_variable(key: tuple[Expression, Optional[Variable]]) -> Optional[Variable]:
    """The variable a GROUP BY key binds in its group's row: the alias,
    else the variable the key is, else none."""
    expression, alias = key
    if alias is None and isinstance(expression, VariableExpr):
        return expression.variable
    return alias


def operator_variables(op: Operator) -> set[Variable]:
    """All variables that the operator may bind (in-scope variables)."""
    if isinstance(op, BGP):
        return op.variables()
    if isinstance(op, (Join, LeftJoin, Union, Minus)):
        left = operator_variables(op.left)
        if isinstance(op, Minus):
            return left
        return left | operator_variables(op.right)
    if isinstance(op, Filter):
        return operator_variables(op.input)
    if isinstance(op, Extend):
        return operator_variables(op.input) | {op.variable}
    if isinstance(op, GraphOp):
        inner = operator_variables(op.input)
        if isinstance(op.name, Variable):
            inner = inner | {op.name}
        return inner
    if isinstance(op, ValuesOp):
        return set(op.variables)
    if isinstance(op, Project):
        return set(op.variables)
    if isinstance(op, (Distinct, Reduced, Slice, OrderBy)):
        return operator_variables(op.input)
    if isinstance(op, GroupBy):
        result = {variable for variable, _ in op.aggregates}
        result.update(filter(None, map(key_variable, op.keys)))
        return result
    if isinstance(op, SubSelect):
        return set(op.query.variables())
    raise TypeError(f"unknown operator: {op!r}")
