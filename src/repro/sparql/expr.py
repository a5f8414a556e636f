"""SPARQL expression evaluation.

Implements the SPARQL 1.1 operator semantics over the expression trees of
:mod:`repro.sparql.algebra`: effective boolean value, three-valued error
handling (errors raise :class:`ExpressionError`, which FILTER treats as
false), value comparison with type promotion, and the built-in function
library used in practice (string, numeric, date, hash, and term functions).

``EXISTS`` expressions need to evaluate a nested pattern, so the evaluator
accepts an ``exists_evaluator`` callback, which the snapshot evaluator wires
to itself.
"""

from __future__ import annotations

import hashlib
import math
import re
import uuid
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from typing import Callable, Optional
from urllib.parse import quote

from ..rdf.terms import (
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    NamedNode,
    Term,
    Variable,
)
from .algebra import (
    AggregateExpr,
    And,
    Arithmetic,
    Compare,
    ExistsExpr,
    Expression,
    FunctionCall,
    InExpr,
    Not,
    Operator,
    Or,
    TermExpr,
    UnaryMinus,
    UnaryPlus,
    VariableExpr,
)
from .bindings import Binding

__all__ = [
    "ExpressionError",
    "ExpressionEvaluator",
    "effective_boolean_value",
    "compare_terms",
    "order_key",
    "DescendingKey",
]

_TRUE = Literal("true", datatype=XSD_BOOLEAN)
_FALSE = Literal("false", datatype=XSD_BOOLEAN)


class ExpressionError(ValueError):
    """A SPARQL expression evaluation error (maps to 'error' in the spec)."""


ExistsEvaluator = Callable[[Operator, Binding], bool]


def _boolean(value: bool) -> Literal:
    return _TRUE if value else _FALSE


def effective_boolean_value(term: Term) -> bool:
    """SPARQL 17.2.2 Effective Boolean Value."""
    if not isinstance(term, Literal):
        raise ExpressionError(f"no effective boolean value for {term!r}")
    if term.datatype == XSD_BOOLEAN:
        if term.value in ("true", "1"):
            return True
        if term.value in ("false", "0"):
            return False
        raise ExpressionError(f"ill-typed boolean {term.value!r}")
    if term.datatype in (XSD_STRING, RDF_LANGSTRING):
        return len(term.value) > 0
    if term.is_numeric:
        try:
            return float(term.to_python()) != 0.0 and not math.isnan(float(term.to_python()))
        except (ValueError, InvalidOperation):
            return False
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _numeric_value(term: Term):
    if not isinstance(term, Literal) or not term.is_numeric:
        raise ExpressionError(f"not a numeric literal: {term!r}")
    try:
        return term.to_python()
    except (ValueError, InvalidOperation) as error:
        raise ExpressionError(str(error)) from error


def _promote(left, right):
    """Numeric type promotion: integer < decimal < double."""
    if isinstance(left, float) or isinstance(right, float):
        return float(left), float(right)
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        return Decimal(left) if not isinstance(left, Decimal) else left, (
            Decimal(right) if not isinstance(right, Decimal) else right
        )
    return left, right


def _numeric_literal(value) -> Literal:
    if isinstance(value, bool):
        return _boolean(value)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, Decimal):
        text = format(value, "f")
        return Literal(text, datatype=XSD_DECIMAL)
    if isinstance(value, float):
        if math.isnan(value):
            return Literal("NaN", datatype=XSD_DOUBLE)
        if math.isinf(value):
            return Literal("INF" if value > 0 else "-INF", datatype=XSD_DOUBLE)
        return Literal(repr(value), datatype=XSD_DOUBLE)
    raise ExpressionError(f"cannot build numeric literal from {value!r}")


def compare_terms(left: Term, right: Term, operator: str) -> bool:
    """SPARQL value comparison for ``= != < <= > >=``.

    Numeric literals compare by value with promotion; strings by codepoint;
    booleans false<true; dateTimes chronologically.  ``=``/``!=`` fall back
    to RDF term equality for IRIs and blank nodes; ordering comparisons on
    unordered types raise :class:`ExpressionError`.
    """
    if operator in ("=", "!="):
        equal = _terms_equal(left, right)
        return equal if operator == "=" else not equal

    key_left = _ordering_value(left)
    key_right = _ordering_value(right)
    if type(key_left) is not type(key_right) and not (
        isinstance(key_left, (int, float, Decimal)) and isinstance(key_right, (int, float, Decimal))
    ):
        raise ExpressionError(f"cannot order {left!r} against {right!r}")
    if operator == "<":
        return key_left < key_right
    if operator == "<=":
        return key_left <= key_right
    if operator == ">":
        return key_left > key_right
    if operator == ">=":
        return key_left >= key_right
    raise ExpressionError(f"unknown comparison operator {operator!r}")


def _terms_equal(left: Term, right: Term) -> bool:
    if left == right:
        return True
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric and right.is_numeric:
            try:
                a, b = _promote(_numeric_value(left), _numeric_value(right))
                return a == b
            except ExpressionError:
                return False
        if left.datatype == XSD_DATETIME and right.datatype == XSD_DATETIME:
            try:
                return left.to_python() == right.to_python()
            except ValueError:
                raise ExpressionError("ill-typed dateTime")
        if left.datatype == XSD_BOOLEAN and right.datatype == XSD_BOOLEAN:
            return left.to_python() == right.to_python()
        # Same lexical different unknown datatypes: spec says error, we say False.
        return False
    return False


def _ordering_value(term: Term):
    if not isinstance(term, Literal):
        raise ExpressionError(f"cannot order non-literal {term!r}")
    if term.is_numeric:
        value = _numeric_value(term)
        return float(value) if isinstance(value, (int, Decimal)) else value
    if term.datatype in (XSD_STRING, RDF_LANGSTRING):
        return term.value
    if term.datatype == XSD_BOOLEAN:
        return bool(term.to_python())
    if term.datatype == XSD_DATETIME:
        try:
            return term.to_python()
        except ValueError as error:
            raise ExpressionError(str(error)) from error
    if term.datatype == XSD_DATE:
        try:
            parsed = term.to_python()
        except ValueError as error:
            raise ExpressionError(str(error)) from error
        return datetime(parsed.year, parsed.month, parsed.day, tzinfo=timezone.utc)
    # Unknown datatypes order by lexical form (pragmatic extension).
    return term.value


def order_key(term: Optional[Term]):
    """Total order key for ORDER BY: unbound < blank < IRI < literal."""
    if term is None:
        return (0, "")
    if isinstance(term, BlankNode):
        return (1, term.value)
    if isinstance(term, NamedNode):
        return (2, term.value)
    try:
        value = _ordering_value(term)
    except ExpressionError:
        value = term.value
    if isinstance(value, bool):
        return (3, "boolean", int(value))
    if isinstance(value, (int, float, Decimal)):
        return (3, "number", float(value))
    if isinstance(value, datetime):
        return (3, "datetime", value.timestamp())
    return (3, "string", str(value))


class DescendingKey:
    """Wraps an :func:`order_key` to invert comparison for ``DESC`` sorts.

    Shared by the snapshot evaluator's sort and the incremental
    ``OrderSliceNode`` top-k heap, so both produce identical orderings.
    """

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "DescendingKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DescendingKey) and other.key == self.key


class ExpressionEvaluator:
    """Evaluates expression trees against a :class:`Binding`."""

    def __init__(self, exists_evaluator: Optional[ExistsEvaluator] = None, now: Optional[datetime] = None) -> None:
        self._exists_evaluator = exists_evaluator
        self._now = now if now is not None else datetime.now(timezone.utc)
        self._bnode_map: dict[str, BlankNode] = {}
        self._bnode_counter = 0

    # ------------------------------------------------------------------

    def evaluate(self, expression: Expression, binding: Binding) -> Term:
        """Evaluate to an RDF term; raises :class:`ExpressionError` on error."""
        if isinstance(expression, TermExpr):
            return expression.term
        if isinstance(expression, VariableExpr):
            term = binding.get(expression.variable)
            if term is None:
                raise ExpressionError(f"unbound variable ?{expression.variable.value}")
            return term
        if isinstance(expression, And):
            return self._evaluate_and(expression, binding)
        if isinstance(expression, Or):
            return self._evaluate_or(expression, binding)
        if isinstance(expression, Not):
            return _boolean(not self.ebv(expression.operand, binding))
        if isinstance(expression, Compare):
            left = self.evaluate(expression.left, binding)
            right = self.evaluate(expression.right, binding)
            return _boolean(compare_terms(left, right, expression.operator))
        if isinstance(expression, Arithmetic):
            return self._evaluate_arithmetic(expression, binding)
        if isinstance(expression, UnaryMinus):
            value = _numeric_value(self.evaluate(expression.operand, binding))
            return _numeric_literal(-value)
        if isinstance(expression, UnaryPlus):
            value = _numeric_value(self.evaluate(expression.operand, binding))
            return _numeric_literal(value)
        if isinstance(expression, FunctionCall):
            return self._evaluate_function(expression, binding)
        if isinstance(expression, InExpr):
            return self._evaluate_in(expression, binding)
        if isinstance(expression, ExistsExpr):
            if self._exists_evaluator is None:
                raise ExpressionError("EXISTS is not supported in this context")
            result = self._exists_evaluator(expression.pattern, binding)
            return _boolean(not result if expression.negated else result)
        if isinstance(expression, AggregateExpr):
            raise ExpressionError("aggregate used outside of GROUP BY context")
        raise ExpressionError(f"unknown expression: {expression!r}")

    def ebv(self, expression: Expression, binding: Binding) -> bool:
        """Effective boolean value of an expression (errors propagate)."""
        return effective_boolean_value(self.evaluate(expression, binding))

    def satisfied(self, expression: Expression, binding: Binding) -> bool:
        """FILTER semantics: evaluation errors count as false."""
        try:
            return self.ebv(expression, binding)
        except ExpressionError:
            return False

    # ------------------------------------------------------------------

    def _evaluate_and(self, expression: And, binding: Binding) -> Literal:
        # SPARQL logical AND with error tolerance: F && error = F.
        try:
            left = self.ebv(expression.left, binding)
        except ExpressionError:
            if not self.ebv(expression.right, binding):
                return _FALSE
            raise
        if not left:
            return _FALSE
        return _boolean(self.ebv(expression.right, binding))

    def _evaluate_or(self, expression: Or, binding: Binding) -> Literal:
        # SPARQL logical OR with error tolerance: T || error = T.
        try:
            left = self.ebv(expression.left, binding)
        except ExpressionError:
            if self.ebv(expression.right, binding):
                return _TRUE
            raise
        if left:
            return _TRUE
        return _boolean(self.ebv(expression.right, binding))

    def _evaluate_arithmetic(self, expression: Arithmetic, binding: Binding) -> Literal:
        left = _numeric_value(self.evaluate(expression.left, binding))
        right = _numeric_value(self.evaluate(expression.right, binding))
        left, right = _promote(left, right)
        operator = expression.operator
        if operator == "+":
            return _numeric_literal(left + right)
        if operator == "-":
            return _numeric_literal(left - right)
        if operator == "*":
            return _numeric_literal(left * right)
        if operator == "/":
            if right == 0:
                if isinstance(left, float):
                    if left == 0:
                        return _numeric_literal(float("nan"))
                    return _numeric_literal(math.copysign(float("inf"), left))
                raise ExpressionError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return _numeric_literal(Decimal(left) / Decimal(right))
            return _numeric_literal(left / right)
        raise ExpressionError(f"unknown arithmetic operator {operator!r}")

    def _evaluate_in(self, expression: InExpr, binding: Binding) -> Literal:
        operand = self.evaluate(expression.operand, binding)
        found = False
        saw_error = False
        for choice in expression.choices:
            try:
                value = self.evaluate(choice, binding)
                if _terms_equal(operand, value):
                    found = True
                    break
            except ExpressionError:
                saw_error = True
        if not found and saw_error:
            raise ExpressionError("IN list evaluation error")
        return _boolean(not found if expression.negated else found)

    # ------------------------------------------------------------------
    # built-in functions
    # ------------------------------------------------------------------

    def _evaluate_function(self, call: FunctionCall, binding: Binding) -> Term:
        name = call.name

        if name == "BOUND":
            argument = call.args[0]
            if isinstance(argument, TermExpr):
                return _boolean(True)  # a variable an EXISTS substituted
            if not isinstance(argument, VariableExpr):
                raise ExpressionError("BOUND requires a variable")
            return _boolean(argument.variable in binding)
        if name == "COALESCE":
            for argument in call.args:
                try:
                    return self.evaluate(argument, binding)
                except ExpressionError:
                    continue
            raise ExpressionError("COALESCE: all arguments errored")
        if name == "IF":
            condition = self.ebv(call.args[0], binding)
            return self.evaluate(call.args[1] if condition else call.args[2], binding)

        args = [self.evaluate(argument, binding) for argument in call.args]

        if name == "STR":
            term = args[0]
            if isinstance(term, NamedNode):
                return Literal(term.value)
            if isinstance(term, Literal):
                return Literal(term.value)
            raise ExpressionError("STR on blank node")
        if name in ("IRI", "URI"):
            term = args[0]
            if isinstance(term, NamedNode):
                return term
            if isinstance(term, Literal) and term.datatype in (XSD_STRING,):
                return NamedNode(term.value)
            raise ExpressionError("IRI requires a string or IRI")
        if name == "BNODE":
            if not args:
                self._bnode_counter += 1
                return BlankNode(f"expr{self._bnode_counter}")
            label = _string_value(args[0])
            if label not in self._bnode_map:
                self._bnode_counter += 1
                self._bnode_map[label] = BlankNode(f"expr{self._bnode_counter}")
            return self._bnode_map[label]
        if name == "LANG":
            term = args[0]
            if not isinstance(term, Literal):
                raise ExpressionError("LANG requires a literal")
            return Literal(term.language)
        if name == "LANGMATCHES":
            tag = _string_value(args[0]).lower()
            pattern = _string_value(args[1]).lower()
            if pattern == "*":
                return _boolean(bool(tag))
            return _boolean(tag == pattern or tag.startswith(pattern + "-"))
        if name == "DATATYPE":
            term = args[0]
            if not isinstance(term, Literal):
                raise ExpressionError("DATATYPE requires a literal")
            return NamedNode(term.datatype)
        if name == "SAMETERM":
            return _boolean(args[0] == args[1])
        if name in ("ISIRI", "ISURI"):
            return _boolean(isinstance(args[0], NamedNode))
        if name == "ISBLANK":
            return _boolean(isinstance(args[0], BlankNode))
        if name == "ISLITERAL":
            return _boolean(isinstance(args[0], Literal))
        if name == "ISNUMERIC":
            return _boolean(isinstance(args[0], Literal) and args[0].is_numeric)

        if name == "STRLEN":
            return _numeric_literal(len(_string_value(args[0])))
        if name == "UCASE":
            return _copy_string_literal(args[0], _string_value(args[0]).upper())
        if name == "LCASE":
            return _copy_string_literal(args[0], _string_value(args[0]).lower())
        if name == "CONCAT":
            return Literal("".join(_string_value(a) for a in args))
        if name == "CONTAINS":
            return _boolean(_string_value(args[1]) in _string_value(args[0]))
        if name == "STRSTARTS":
            return _boolean(_string_value(args[0]).startswith(_string_value(args[1])))
        if name == "STRENDS":
            return _boolean(_string_value(args[0]).endswith(_string_value(args[1])))
        if name == "STRBEFORE":
            haystack, needle = _string_value(args[0]), _string_value(args[1])
            index = haystack.find(needle)
            return _copy_string_literal(args[0], haystack[:index] if index >= 0 else "")
        if name == "STRAFTER":
            haystack, needle = _string_value(args[0]), _string_value(args[1])
            index = haystack.find(needle)
            return _copy_string_literal(
                args[0], haystack[index + len(needle):] if index >= 0 else ""
            )
        if name == "SUBSTR":
            source = _string_value(args[0])
            start = int(_numeric_value(args[1]))
            if len(args) > 2:
                length = int(_numeric_value(args[2]))
                return _copy_string_literal(args[0], source[start - 1:start - 1 + length])
            return _copy_string_literal(args[0], source[start - 1:])
        if name == "REPLACE":
            source = _string_value(args[0])
            pattern = _string_value(args[1])
            replacement = _string_value(args[2]).replace("$", "\\")
            flags = _regex_flags(_string_value(args[3])) if len(args) > 3 else 0
            return _copy_string_literal(args[0], re.sub(pattern, replacement, source, flags=flags))
        if name == "REGEX":
            source = _string_value(args[0])
            pattern = _string_value(args[1])
            flags = _regex_flags(_string_value(args[2])) if len(args) > 2 else 0
            return _boolean(re.search(pattern, source, flags=flags) is not None)
        if name == "ENCODE_FOR_URI":
            return Literal(quote(_string_value(args[0]), safe=""))
        if name == "STRLANG":
            return Literal(_string_value(args[0]), language=_string_value(args[1]))
        if name == "STRDT":
            datatype = args[1]
            if not isinstance(datatype, NamedNode):
                raise ExpressionError("STRDT requires an IRI datatype")
            return Literal(_string_value(args[0]), datatype=datatype.value)

        if name in ("ABS", "CEIL", "FLOOR", "ROUND"):
            value = _numeric_value(args[0])
            if name == "ABS":
                return _numeric_literal(abs(value))
            if name == "CEIL":
                return _numeric_literal(int(math.ceil(value)))
            if name == "FLOOR":
                return _numeric_literal(int(math.floor(value)))
            return _numeric_literal(int(Decimal(value).quantize(Decimal("1"), rounding="ROUND_HALF_UP")) if not isinstance(value, float) else round(value))
        if name == "RAND":
            # Deterministic stand-in: SPARQL RAND has no seeding facility; a
            # reproducible engine returns a fixed midpoint value.
            return _numeric_literal(0.5)

        if name in ("YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS"):
            moment = _datetime_value(args[0])
            if name == "YEAR":
                return _numeric_literal(moment.year)
            if name == "MONTH":
                return _numeric_literal(moment.month)
            if name == "DAY":
                return _numeric_literal(moment.day)
            if name == "HOURS":
                return _numeric_literal(moment.hour)
            if name == "MINUTES":
                return _numeric_literal(moment.minute)
            return _numeric_literal(Decimal(moment.second) + Decimal(moment.microsecond) / 1_000_000)
        if name == "NOW":
            return Literal(self._now.isoformat(), datatype=XSD_DATETIME)
        if name == "TZ":
            moment = _datetime_value(args[0])
            if moment.tzinfo is None:
                return Literal("")
            offset = moment.utcoffset()
            if offset is None or offset.total_seconds() == 0:
                return Literal("Z")
            minutes = int(offset.total_seconds() // 60)
            sign = "+" if minutes >= 0 else "-"
            minutes = abs(minutes)
            return Literal(f"{sign}{minutes // 60:02d}:{minutes % 60:02d}")
        if name == "TIMEZONE":
            moment = _datetime_value(args[0])
            offset = moment.utcoffset()
            if offset is None:
                raise ExpressionError("no timezone")
            total = int(offset.total_seconds())
            return Literal(_duration_lexical(total), datatype=XSD + "dayTimeDuration")

        if name == "UUID":
            return NamedNode(f"urn:uuid:{uuid.uuid5(uuid.NAMESPACE_URL, str(self._now))}")
        if name == "STRUUID":
            return Literal(str(uuid.uuid5(uuid.NAMESPACE_URL, str(self._now))))
        if name in ("MD5", "SHA1", "SHA256", "SHA384", "SHA512"):
            algorithm = name.lower()
            digest = hashlib.new(algorithm, _string_value(args[0]).encode("utf-8")).hexdigest()
            return Literal(digest)

        raise ExpressionError(f"unknown function {name!r}")


XSD = "http://www.w3.org/2001/XMLSchema#"


def _duration_lexical(total_seconds: int) -> str:
    sign = "-" if total_seconds < 0 else ""
    total_seconds = abs(total_seconds)
    hours, remainder = divmod(total_seconds, 3600)
    minutes, seconds = divmod(remainder, 60)
    parts = [sign, "PT"]
    if hours:
        parts.append(f"{hours}H")
    if minutes:
        parts.append(f"{minutes}M")
    if seconds or (not hours and not minutes):
        parts.append(f"{seconds}S")
    return "".join(parts)


def _string_value(term: Term) -> str:
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, NamedNode):
        raise ExpressionError(f"expected string, got IRI {term.value!r}")
    raise ExpressionError(f"expected string, got {term!r}")


def _copy_string_literal(template: Term, value: str) -> Literal:
    """Preserve the language tag of the first argument per the spec."""
    if isinstance(template, Literal) and template.language:
        return Literal(value, language=template.language)
    return Literal(value)


def _datetime_value(term: Term) -> datetime:
    if isinstance(term, Literal) and term.datatype in (XSD_DATETIME, XSD_DATE):
        try:
            value = term.to_python()
        except ValueError as error:
            raise ExpressionError(str(error)) from error
        if isinstance(value, datetime):
            return value
        return datetime(value.year, value.month, value.day, tzinfo=timezone.utc)
    raise ExpressionError(f"expected dateTime, got {term!r}")


def _regex_flags(letters: str) -> int:
    flags = 0
    for letter in letters:
        if letter == "i":
            flags |= re.IGNORECASE
        elif letter == "s":
            flags |= re.DOTALL
        elif letter == "m":
            flags |= re.MULTILINE
        elif letter == "x":
            flags |= re.VERBOSE
        else:
            raise ExpressionError(f"unsupported regex flag {letter!r}")
    return flags
