"""Recursive-descent SPARQL 1.1 parser.

Parses SELECT / ASK / CONSTRUCT queries into the algebra of
:mod:`repro.sparql.algebra`, following the SPARQL 1.1 translation rules:
group graph patterns become joins, ``OPTIONAL`` becomes ``LeftJoin`` (pulling
an inner top-level ``FILTER`` into the join condition), ``FILTER``s are
collected per group and applied at group end, and solution modifiers wrap the
WHERE tree (GroupBy → Extend(select exprs) → Filter(HAVING) → OrderBy →
Project → Distinct/Reduced → Slice).  Each aggregate is lifted into the
GroupBy under a hidden ``?__aggN`` variable, which the clauses read.

Blank nodes in query patterns (labels and ``[...]``) are replaced by
non-projectable internal variables (``?__bnN``/``?__bn_label``) per the
standard semantics that query blank nodes behave as fresh variables.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union as TypingUnion
from urllib.parse import urljoin

from ..rdf.namespaces import RDF
from ..rdf.terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Literal,
    NamedNode,
    Term,
    Variable,
)
from ..rdf.triples import TriplePattern
from .algebra import (
    AggregateExpr,
    AlternativePath,
    And,
    Or,
    Arithmetic,
    BGP,
    Compare,
    Distinct,
    ExistsExpr,
    Expression,
    Extend,
    Filter,
    FunctionCall,
    GraphOp,
    GroupBy,
    InExpr,
    InversePath,
    Join,
    LeftJoin,
    Minus,
    NegatedPropertySet,
    Not,
    OneOrMorePath,
    Operator,
    OrderBy,
    OrderCondition,
    Path,
    PathPattern,
    PredicatePath,
    Project,
    Query,
    Reduced,
    SequencePath,
    Slice,
    SubSelect,
    TermExpr,
    UnaryMinus,
    UnaryPlus,
    Union,
    ValuesOp,
    VariableExpr,
    ZeroOrMorePath,
    ZeroOrOnePath,
    map_children,
)
from .tokens import Token, TokenizeError, tokenize

__all__ = ["SparqlParseError", "parse_query"]

_RDF_TYPE = RDF.type
_RDF_FIRST = RDF.first
_RDF_REST = RDF.rest
_RDF_NIL = RDF.nil

_AGGREGATES = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"})

_BUILTIN_FUNCTIONS = frozenset(
    {
        "STR", "LANG", "LANGMATCHES", "DATATYPE", "BOUND", "IRI", "URI",
        "BNODE", "RAND", "ABS", "CEIL", "FLOOR", "ROUND", "CONCAT", "STRLEN",
        "UCASE", "LCASE", "ENCODE_FOR_URI", "CONTAINS", "STRSTARTS",
        "STRENDS", "STRBEFORE", "STRAFTER", "YEAR", "MONTH", "DAY", "HOURS",
        "MINUTES", "SECONDS", "TIMEZONE", "TZ", "NOW", "UUID", "STRUUID",
        "MD5", "SHA1", "SHA256", "SHA384", "SHA512", "COALESCE", "IF",
        "STRLANG", "STRDT", "SAMETERM", "ISIRI", "ISURI", "ISBLANK",
        "ISLITERAL", "ISNUMERIC", "REGEX", "SUBSTR", "REPLACE",
    }
)


class SparqlParseError(ValueError):
    """Raised on syntactically invalid SPARQL."""


class _Parser:
    def __init__(self, text: str) -> None:
        try:
            self._tokens = tokenize(text)
        except TokenizeError as error:
            raise SparqlParseError(str(error)) from error
        self._pos = 0
        self._prefixes: dict[str, str] = {}
        self._base = ""
        self._bnode_counter = 0

    # ------------------------------------------------------------------
    # token utilities
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _at_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in keywords

    def _at_punct(self, *lexemes: str) -> bool:
        token = self._peek()
        return token.kind == "PUNCT" and token.value in lexemes

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        if self._at_keyword(*keywords):
            return self._next().value
        return None

    def _accept_punct(self, *lexemes: str) -> Optional[str]:
        if self._at_punct(*lexemes):
            return self._next().value
        return None

    def _expect_keyword(self, keyword: str) -> None:
        token = self._next()
        if token.kind != "KEYWORD" or token.value != keyword:
            self._fail(f"expected {keyword}", token)

    def _expect_punct(self, lexeme: str) -> None:
        token = self._next()
        if token.kind != "PUNCT" or token.value != lexeme:
            self._fail(f"expected {lexeme!r}", token)

    def _fail(self, message: str, token: Optional[Token] = None) -> None:
        token = token if token is not None else self._peek()
        raise SparqlParseError(
            f"{message}, found {token.kind}:{token.value!r} "
            f"(line {token.line}, column {token.column})"
        )

    def _fresh_bnode_var(self, hint: str = "") -> Variable:
        if hint:
            return Variable(f"__bn_{hint}")
        self._bnode_counter += 1
        return Variable(f"__bn{self._bnode_counter}")

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def parse(self) -> Query:
        self._parse_prologue()
        if self._at_keyword("SELECT"):
            query = self._parse_select()
        elif self._at_keyword("ASK"):
            query = self._parse_ask()
        elif self._at_keyword("CONSTRUCT"):
            query = self._parse_construct()
        elif self._at_keyword("DESCRIBE"):
            query = self._parse_describe()
        else:
            self._fail("expected SELECT, ASK, CONSTRUCT, or DESCRIBE")
            raise AssertionError
        token = self._peek()
        if token.kind != "EOF":
            self._fail("unexpected trailing input", token)
        return query

    def _parse_prologue(self) -> None:
        while True:
            if self._accept_keyword("PREFIX"):
                name_token = self._next()
                if name_token.kind != "PNAME" or not name_token.value.endswith(":"):
                    self._fail("expected prefix name ending with ':'", name_token)
                iri_token = self._next()
                if iri_token.kind != "IRIREF":
                    self._fail("expected IRI after prefix name", iri_token)
                self._prefixes[name_token.value[:-1]] = self._resolve_iri(iri_token.value)
            elif self._accept_keyword("BASE"):
                iri_token = self._next()
                if iri_token.kind != "IRIREF":
                    self._fail("expected IRI after BASE", iri_token)
                self._base = iri_token.value
            else:
                return

    def _resolve_iri(self, iri: str) -> str:
        if self._base and ":" not in iri.split("/")[0]:
            return urljoin(self._base, iri)
        return iri

    # ------------------------------------------------------------------
    # query forms
    # ------------------------------------------------------------------

    def _parse_select(self) -> Query:
        where = self._parse_select_body()
        return Query(
            form="SELECT",
            where=where,
            prefixes=tuple(self._prefixes.items()),
            base_iri=self._base,
        )

    def _parse_select_body(self) -> Operator:
        """Parse a SELECT clause + WHERE + modifiers into an algebra tree."""
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        reduced = bool(self._accept_keyword("REDUCED"))

        select_all = False
        projections: list[tuple[Variable, Optional[Expression]]] = []
        if self._accept_punct("*"):
            select_all = True
        else:
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    self._next()
                    projections.append((Variable(token.value), None))
                elif token.kind == "PUNCT" and token.value == "(":
                    self._next()
                    expression = self._parse_expression()
                    self._expect_keyword("AS")
                    var_token = self._next()
                    if var_token.kind != "VAR":
                        self._fail("expected variable after AS", var_token)
                    self._expect_punct(")")
                    projections.append((Variable(var_token.value), expression))
                else:
                    break
            if not projections:
                self._fail("expected projection variables or *")

        self._accept_keyword("WHERE")
        group = self._parse_group_graph_pattern()

        # -- solution modifiers -------------------------------------------
        group_keys: list[tuple[Expression, Optional[Variable]]] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    self._next()
                    group_keys.append((VariableExpr(Variable(token.value)), None))
                elif token.kind == "PUNCT" and token.value == "(":
                    self._next()
                    expression = self._parse_expression()
                    alias: Optional[Variable] = None
                    if self._accept_keyword("AS"):
                        var_token = self._next()
                        if var_token.kind != "VAR":
                            self._fail("expected variable after AS", var_token)
                        alias = Variable(var_token.value)
                    self._expect_punct(")")
                    group_keys.append((expression, alias))
                elif token.kind in ("IRIREF", "PNAME") or (
                    token.kind == "KEYWORD" and token.value in _BUILTIN_FUNCTIONS
                ):
                    group_keys.append((self._parse_primary_expression(), None))
                else:
                    break
            if not group_keys:
                self._fail("expected GROUP BY conditions")

        having: list[Expression] = []
        if self._accept_keyword("HAVING"):
            while self._at_punct("(") or (
                self._peek().kind == "KEYWORD"
                and self._peek().value in (_BUILTIN_FUNCTIONS | _AGGREGATES)
            ):
                having.append(self._parse_primary_expression())
            if not having:
                self._fail("expected HAVING conditions")

        order_conditions: list[OrderCondition] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                if self._accept_keyword("ASC"):
                    self._expect_punct("(")
                    expression = self._parse_expression()
                    self._expect_punct(")")
                    order_conditions.append(OrderCondition(expression, descending=False))
                elif self._accept_keyword("DESC"):
                    self._expect_punct("(")
                    expression = self._parse_expression()
                    self._expect_punct(")")
                    order_conditions.append(OrderCondition(expression, descending=True))
                elif self._peek().kind == "VAR":
                    token = self._next()
                    order_conditions.append(
                        OrderCondition(VariableExpr(Variable(token.value)))
                    )
                elif self._at_punct("(") or (
                    self._peek().kind == "KEYWORD"
                    and self._peek().value in (_BUILTIN_FUNCTIONS | _AGGREGATES)
                ):
                    order_conditions.append(OrderCondition(self._parse_primary_expression()))
                else:
                    break
            if not order_conditions:
                self._fail("expected ORDER BY conditions")

        limit: Optional[int] = None
        offset = 0
        while True:
            if self._accept_keyword("LIMIT"):
                token = self._next()
                if token.kind != "NUMBER":
                    self._fail("expected integer after LIMIT", token)
                limit = int(token.value)
            elif self._accept_keyword("OFFSET"):
                token = self._next()
                if token.kind != "NUMBER":
                    self._fail("expected integer after OFFSET", token)
                offset = int(token.value)
            else:
                break

        # -- assemble tree ---------------------------------------------------
        # Every aggregate becomes a hidden variable its GroupBy binds, so the
        # clauses that read aggregates are the same nodes as without them.
        lifted: dict[AggregateExpr, Variable] = {}
        projections = [
            (variable, None if expression is None else _lift_aggregates(expression, lifted))
            for variable, expression in projections
        ]
        having = [_lift_aggregates(condition, lifted) for condition in having]
        order_conditions = [
            dataclasses.replace(condition, expression=_lift_aggregates(condition.expression, lifted))
            for condition in order_conditions
        ]
        for key, _ in group_keys:
            _lift_aggregates(key, lifted, illegal_in="GROUP BY")

        node: Operator = group
        if group_keys or lifted:
            aggregates = tuple((variable, aggregate) for aggregate, variable in lifted.items())
            node = GroupBy(node, tuple(group_keys), aggregates)
        for variable, expression in projections:
            if expression is not None:
                node = Extend(node, variable, expression)
        for condition in having:
            node = Filter(condition, node)
        if order_conditions:
            node = OrderBy(node, tuple(order_conditions))

        if select_all:
            from .algebra import operator_variables

            variables = tuple(
                sorted(
                    (v for v in operator_variables(group) if not v.value.startswith("__bn")),
                    key=lambda v: v.value,
                )
            )
        else:
            variables = tuple(variable for variable, _ in projections)
        node = Project(node, variables)

        if distinct:
            node = Distinct(node)
        elif reduced:
            node = Reduced(node)
        if limit is not None or offset:
            node = Slice(node, offset=offset, limit=limit)
        return node

    def _parse_describe(self) -> Query:
        """``DESCRIBE (var | iri)+ [WHERE { ... }]`` or ``DESCRIBE *``."""
        self._expect_keyword("DESCRIBE")
        targets: list[Term] = []
        if self._accept_punct("*"):
            pass  # all in-scope variables; resolved at evaluation time
        else:
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    self._next()
                    targets.append(Variable(token.value))
                elif token.kind in ("IRIREF", "PNAME"):
                    targets.append(self._parse_iri())
                else:
                    break
            if not targets:
                self._fail("expected DESCRIBE targets or *")
        where: Operator = BGP((), ())
        if self._accept_keyword("WHERE") or self._at_punct("{"):
            where = self._parse_group_graph_pattern()
        return Query(
            form="DESCRIBE",
            where=where,
            describe_targets=tuple(targets),
            prefixes=tuple(self._prefixes.items()),
            base_iri=self._base,
        )

    def _parse_ask(self) -> Query:
        self._expect_keyword("ASK")
        self._accept_keyword("WHERE")
        group = self._parse_group_graph_pattern()
        return Query(
            form="ASK",
            where=group,
            prefixes=tuple(self._prefixes.items()),
            base_iri=self._base,
        )

    def _parse_construct(self) -> Query:
        self._expect_keyword("CONSTRUCT")
        template: list[TriplePattern] = []
        self._expect_punct("{")
        template_bgp = BGP((), ())
        patterns, path_patterns = self._parse_triples_block(stop_chars=("}",))
        if path_patterns:
            raise SparqlParseError("property paths are not allowed in CONSTRUCT templates")
        template = list(patterns)
        self._expect_punct("}")
        del template_bgp
        self._accept_keyword("WHERE")
        group = self._parse_group_graph_pattern()

        limit: Optional[int] = None
        offset = 0
        while True:
            if self._accept_keyword("LIMIT"):
                token = self._next()
                limit = int(token.value)
            elif self._accept_keyword("OFFSET"):
                token = self._next()
                offset = int(token.value)
            else:
                break
        node: Operator = group
        if limit is not None or offset:
            node = Slice(node, offset=offset, limit=limit)
        return Query(
            form="CONSTRUCT",
            where=node,
            construct_template=tuple(template),
            prefixes=tuple(self._prefixes.items()),
            base_iri=self._base,
        )

    # ------------------------------------------------------------------
    # group graph patterns
    # ------------------------------------------------------------------

    def _parse_group_graph_pattern(self) -> Operator:
        self._expect_punct("{")

        if self._at_keyword("SELECT"):
            sub = self._parse_select_body()
            self._expect_punct("}")
            return SubSelect(
                Query(form="SELECT", where=sub, prefixes=tuple(self._prefixes.items()))
            )

        current: Optional[Operator] = None
        filters: list[Expression] = []

        def join_with(op: Operator) -> None:
            nonlocal current
            current = op if current is None else Join(current, op)

        while True:
            if self._at_punct("}"):
                self._next()
                break

            if self._at_keyword("OPTIONAL"):
                self._next()
                inner = self._parse_group_graph_pattern()
                condition: Optional[Expression] = None
                if isinstance(inner, Filter):
                    condition = inner.expression
                    inner = inner.input
                left = current if current is not None else BGP((), ())
                current = LeftJoin(left, inner, condition)
                self._accept_punct(".")
                continue

            if self._at_keyword("MINUS"):
                self._next()
                inner = self._parse_group_graph_pattern()
                left = current if current is not None else BGP((), ())
                current = Minus(left, inner)
                self._accept_punct(".")
                continue

            if self._at_keyword("FILTER"):
                self._next()
                filters.append(self._parse_constraint())
                self._accept_punct(".")
                continue

            if self._at_keyword("BIND"):
                self._next()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_keyword("AS")
                var_token = self._next()
                if var_token.kind != "VAR":
                    self._fail("expected variable after AS", var_token)
                self._expect_punct(")")
                base = current if current is not None else BGP((), ())
                current = Extend(base, Variable(var_token.value), expression)
                self._accept_punct(".")
                continue

            if self._at_keyword("VALUES"):
                self._next()
                join_with(self._parse_values_clause())
                self._accept_punct(".")
                continue

            if self._at_keyword("GRAPH"):
                self._next()
                name = self._parse_var_or_iri()
                inner = self._parse_group_graph_pattern()
                join_with(GraphOp(name, inner))
                self._accept_punct(".")
                continue

            if self._at_punct("{"):
                # GroupOrUnionGraphPattern
                branch = self._parse_group_graph_pattern()
                while self._accept_keyword("UNION"):
                    right = self._parse_group_graph_pattern()
                    branch = Union(branch, right)
                join_with(branch)
                self._accept_punct(".")
                continue

            # Otherwise: a triples block.
            patterns, path_patterns = self._parse_triples_block(stop_chars=("}",))
            if patterns or path_patterns:
                join_with(BGP(tuple(patterns), tuple(path_patterns)))
                continue
            self._fail("expected graph pattern element")

        result: Operator = current if current is not None else BGP((), ())
        for expression in filters:
            result = Filter(expression, result)
        return result

    def _parse_constraint(self) -> Expression:
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        return self._parse_primary_expression()

    def _parse_values_clause(self) -> ValuesOp:
        variables: list[Variable] = []
        rows: list[tuple[Optional[Term], ...]] = []
        if self._peek().kind == "VAR":
            token = self._next()
            variables.append(Variable(token.value))
            self._expect_punct("{")
            while not self._at_punct("}"):
                rows.append((self._parse_data_value(),))
            self._next()
        else:
            if self._peek().kind == "NIL":
                self._next()
            else:
                self._expect_punct("(")
                while self._peek().kind == "VAR":
                    variables.append(Variable(self._next().value))
                self._expect_punct(")")
            self._expect_punct("{")
            while not self._at_punct("}"):
                row: list[Optional[Term]] = []
                if self._peek().kind == "NIL":
                    self._next()
                else:
                    self._expect_punct("(")
                    while not self._at_punct(")"):
                        row.append(self._parse_data_value())
                    self._next()
                if len(row) != len(variables):
                    self._fail("VALUES row arity mismatch")
                rows.append(tuple(row))
            self._next()
        return ValuesOp(tuple(variables), tuple(rows))

    def _parse_data_value(self) -> Optional[Term]:
        if self._accept_keyword("UNDEF"):
            return None
        term = self._parse_graph_term(allow_var=False)
        return term

    def _parse_var_or_iri(self) -> Term:
        token = self._peek()
        if token.kind == "VAR":
            self._next()
            return Variable(token.value)
        return self._parse_iri()

    # ------------------------------------------------------------------
    # triples blocks
    # ------------------------------------------------------------------

    def _parse_triples_block(
        self, stop_chars: tuple[str, ...]
    ) -> tuple[list[TriplePattern], list[PathPattern]]:
        patterns: list[TriplePattern] = []
        path_patterns: list[PathPattern] = []
        while True:
            token = self._peek()
            if token.kind == "EOF":
                break
            if token.kind == "PUNCT" and token.value in stop_chars:
                break
            if token.kind == "KEYWORD" and token.value in (
                "OPTIONAL", "MINUS", "FILTER", "BIND", "VALUES", "GRAPH", "SELECT",
            ):
                break
            if token.kind == "PUNCT" and token.value == "{":
                break
            subject = self._parse_term_or_bnode_list(patterns, path_patterns, as_subject=True)
            self._parse_property_list(subject, patterns, path_patterns, optional=False)
            if not self._accept_punct("."):
                break
        return patterns, path_patterns

    def _parse_term_or_bnode_list(
        self,
        patterns: list[TriplePattern],
        path_patterns: list[PathPattern],
        as_subject: bool,
    ) -> Term:
        token = self._peek()
        if token.kind == "ANON":
            self._next()
            return self._fresh_bnode_var()
        if token.kind == "PUNCT" and token.value == "[":
            self._next()
            node = self._fresh_bnode_var()
            self._parse_property_list(node, patterns, path_patterns, optional=False)
            self._expect_punct("]")
            return node
        if token.kind == "NIL":
            self._next()
            return _RDF_NIL
        if token.kind == "PUNCT" and token.value == "(":
            return self._parse_collection_pattern(patterns, path_patterns)
        return self._parse_graph_term(allow_var=True)

    def _parse_collection_pattern(
        self, patterns: list[TriplePattern], path_patterns: list[PathPattern]
    ) -> Term:
        self._expect_punct("(")
        items: list[Term] = []
        while not self._at_punct(")"):
            items.append(self._parse_term_or_bnode_list(patterns, path_patterns, as_subject=False))
        self._next()
        if not items:
            return _RDF_NIL
        head = self._fresh_bnode_var()
        current = head
        for index, item in enumerate(items):
            patterns.append(TriplePattern(current, _RDF_FIRST, item))
            if index + 1 < len(items):
                nxt = self._fresh_bnode_var()
                patterns.append(TriplePattern(current, _RDF_REST, nxt))
                current = nxt
            else:
                patterns.append(TriplePattern(current, _RDF_REST, _RDF_NIL))
        return head

    def _parse_property_list(
        self,
        subject: Term,
        patterns: list[TriplePattern],
        path_patterns: list[PathPattern],
        optional: bool,
    ) -> None:
        first = True
        while True:
            token = self._peek()
            if token.kind == "PUNCT" and token.value in (".", "]", "}"):
                if first and not optional:
                    self._fail("expected predicate")
                return
            if token.kind == "EOF":
                return
            if token.kind == "VAR":
                self._next()
                verb_var = Variable(token.value)
                first = False
                while True:
                    obj = self._parse_term_or_bnode_list(
                        patterns, path_patterns, as_subject=False
                    )
                    patterns.append(TriplePattern(subject, verb_var, obj))
                    if not self._accept_punct(","):
                        break
                if self._accept_punct(";"):
                    continue
                return
            path = self._parse_path()
            first = False
            while True:
                obj = self._parse_term_or_bnode_list(patterns, path_patterns, as_subject=False)
                self._emit_pattern(subject, path, obj, patterns, path_patterns)
                if not self._accept_punct(","):
                    break
            if self._accept_punct(";"):
                continue
            return

    def _emit_pattern(
        self,
        subject: Term,
        path: Path,
        obj: Term,
        patterns: list[TriplePattern],
        path_patterns: list[PathPattern],
    ) -> None:
        if isinstance(path, PredicatePath):
            patterns.append(TriplePattern(subject, path.predicate, obj))
        else:
            path_patterns.append(PathPattern(subject, path, obj))

    # ------------------------------------------------------------------
    # property paths
    # ------------------------------------------------------------------

    def _parse_path(self) -> Path:
        return self._parse_path_alternative()

    def _parse_path_alternative(self) -> Path:
        options = [self._parse_path_sequence()]
        while self._accept_punct("|"):
            options.append(self._parse_path_sequence())
        if len(options) == 1:
            return options[0]
        return AlternativePath(tuple(options))

    def _parse_path_sequence(self) -> Path:
        steps = [self._parse_path_elt_or_inverse()]
        while self._accept_punct("/"):
            steps.append(self._parse_path_elt_or_inverse())
        if len(steps) == 1:
            return steps[0]
        return SequencePath(tuple(steps))

    def _parse_path_elt_or_inverse(self) -> Path:
        if self._accept_punct("^"):
            return InversePath(self._parse_path_elt())
        return self._parse_path_elt()

    def _parse_path_elt(self) -> Path:
        primary = self._parse_path_primary()
        if self._accept_punct("*"):
            return ZeroOrMorePath(primary)
        if self._accept_punct("+"):
            return OneOrMorePath(primary)
        if self._accept_punct("?"):
            return ZeroOrOnePath(primary)
        return primary

    def _parse_path_primary(self) -> Path:
        token = self._peek()
        if token.kind == "PUNCT" and token.value == "(":
            self._next()
            inner = self._parse_path()
            self._expect_punct(")")
            return inner
        if token.kind == "PUNCT" and token.value == "!":
            self._next()
            return self._parse_negated_property_set()
        if token.kind == "KEYWORD" and token.value == "A":
            self._next()
            return PredicatePath(_RDF_TYPE)
        return PredicatePath(self._parse_iri())

    def _parse_negated_property_set(self) -> NegatedPropertySet:
        forward: list[NamedNode] = []
        inverse: list[NamedNode] = []

        def one() -> None:
            if self._accept_punct("^"):
                inverse.append(self._parse_iri_or_a())
            else:
                forward.append(self._parse_iri_or_a())

        if self._accept_punct("("):
            one()
            while self._accept_punct("|"):
                one()
            self._expect_punct(")")
        else:
            one()
        return NegatedPropertySet(tuple(forward), tuple(inverse))

    def _parse_iri_or_a(self) -> NamedNode:
        if self._accept_keyword("A"):
            return _RDF_TYPE
        return self._parse_iri()

    # ------------------------------------------------------------------
    # terms
    # ------------------------------------------------------------------

    def _parse_iri(self) -> NamedNode:
        token = self._next()
        if token.kind == "IRIREF":
            return NamedNode(self._resolve_iri(token.value))
        if token.kind == "PNAME":
            return self._expand_pname(token)
        self._fail("expected IRI", token)
        raise AssertionError

    def _expand_pname(self, token: Token) -> NamedNode:
        prefix, _, local = token.value.partition(":")
        if prefix not in self._prefixes:
            self._fail(f"undefined prefix {prefix!r}", token)
        return NamedNode(self._prefixes[prefix] + local)

    def _parse_graph_term(self, allow_var: bool) -> Term:
        token = self._next()
        if token.kind == "VAR":
            if not allow_var:
                self._fail("variable not allowed here", token)
            return Variable(token.value)
        if token.kind == "IRIREF":
            return NamedNode(self._resolve_iri(token.value))
        if token.kind == "PNAME":
            return self._expand_pname(token)
        if token.kind == "BLANK":
            return self._fresh_bnode_var(hint=token.value)
        if token.kind == "STRING":
            return self._finish_literal(token.value)
        if token.kind == "NUMBER":
            return _number_literal(token.value)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        if token.kind == "KEYWORD" and token.value == "A":
            return _RDF_TYPE
        self._fail("expected RDF term", token)
        raise AssertionError

    def _finish_literal(self, value: str) -> Literal:
        token = self._peek()
        if token.kind == "LANGTAG":
            self._next()
            return Literal(value, language=token.value)
        if token.kind == "PUNCT" and token.value == "^^":
            self._next()
            datatype = self._parse_iri()
            return Literal(value, datatype=datatype.value)
        return Literal(value)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or_expression()

    def _parse_or_expression(self) -> Expression:
        left = self._parse_and_expression()
        while self._accept_punct("||"):
            left = Or(left, self._parse_and_expression())
        return left

    def _parse_and_expression(self) -> Expression:
        left = self._parse_relational_expression()
        while self._accept_punct("&&"):
            left = And(left, self._parse_relational_expression())
        return left

    def _parse_relational_expression(self) -> Expression:
        left = self._parse_additive_expression()
        token = self._peek()
        if token.kind == "PUNCT" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            right = self._parse_additive_expression()
            return Compare(token.value, left, right)
        if self._at_keyword("IN"):
            self._next()
            return InExpr(left, self._parse_expression_list(), negated=False)
        if self._at_keyword("NOT") and self._peek(1).value == "IN":
            self._next()
            self._next()
            return InExpr(left, self._parse_expression_list(), negated=True)
        return left

    def _parse_expression_list(self) -> tuple[Expression, ...]:
        if self._peek().kind == "NIL":
            self._next()
            return ()
        self._expect_punct("(")
        items = [self._parse_expression()]
        while self._accept_punct(","):
            items.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(items)

    def _parse_additive_expression(self) -> Expression:
        left = self._parse_multiplicative_expression()
        while True:
            if self._accept_punct("+"):
                left = Arithmetic("+", left, self._parse_multiplicative_expression())
            elif self._accept_punct("-"):
                left = Arithmetic("-", left, self._parse_multiplicative_expression())
            else:
                return left

    def _parse_multiplicative_expression(self) -> Expression:
        left = self._parse_unary_expression()
        while True:
            if self._accept_punct("*"):
                left = Arithmetic("*", left, self._parse_unary_expression())
            elif self._accept_punct("/"):
                left = Arithmetic("/", left, self._parse_unary_expression())
            else:
                return left

    def _parse_unary_expression(self) -> Expression:
        if self._accept_punct("!"):
            return Not(self._parse_unary_expression())
        if self._accept_punct("-"):
            return UnaryMinus(self._parse_unary_expression())
        if self._accept_punct("+"):
            return UnaryPlus(self._parse_unary_expression())
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self._peek()
        if token.kind == "PUNCT" and token.value == "(":
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "VAR":
            self._next()
            return VariableExpr(Variable(token.value))
        if token.kind == "STRING":
            self._next()
            return TermExpr(self._finish_literal(token.value))
        if token.kind == "NUMBER":
            self._next()
            return TermExpr(_number_literal(token.value))
        if token.kind == "IRIREF" or token.kind == "PNAME":
            iri = self._parse_iri()
            if self._at_punct("(") or self._peek().kind == "NIL":
                args = self._parse_call_args()
                return FunctionCall(iri.value, args)
            return TermExpr(iri)
        if token.kind == "KEYWORD":
            if token.value in ("TRUE", "FALSE"):
                self._next()
                return TermExpr(Literal(token.value.lower(), datatype=XSD_BOOLEAN))
            if token.value == "NOT" and self._peek(1).value == "EXISTS":
                self._next()
                self._next()
                pattern = self._parse_group_graph_pattern()
                return ExistsExpr(pattern, negated=True)
            if token.value == "EXISTS":
                self._next()
                pattern = self._parse_group_graph_pattern()
                return ExistsExpr(pattern, negated=False)
            if token.value in _AGGREGATES:
                return self._parse_aggregate()
            if token.value in _BUILTIN_FUNCTIONS:
                self._next()
                args = self._parse_call_args()
                return FunctionCall(token.value, args)
        self._fail("expected expression", token)
        raise AssertionError

    def _parse_call_args(self) -> tuple[Expression, ...]:
        if self._peek().kind == "NIL":
            self._next()
            return ()
        self._expect_punct("(")
        if self._accept_punct(")"):
            return ()
        args = [self._parse_expression()]
        while self._accept_punct(","):
            args.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(args)

    def _parse_aggregate(self) -> AggregateExpr:
        name = self._next().value
        self._expect_punct("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        operand: Optional[Expression]
        if self._accept_punct("*"):
            operand = None
        else:
            operand = self._parse_expression()
        separator = " "
        if name == "GROUP_CONCAT" and self._accept_punct(";"):
            self._expect_keyword("SEPARATOR")
            self._expect_punct("=")
            sep_token = self._next()
            if sep_token.kind != "STRING":
                self._fail("expected string separator", sep_token)
            separator = sep_token.value
        self._expect_punct(")")
        return AggregateExpr(name, operand, distinct=distinct, separator=separator)


def _number_literal(lexical: str) -> Literal:
    if "e" in lexical or "E" in lexical:
        return Literal(lexical, datatype=XSD_DOUBLE)
    if "." in lexical:
        return Literal(lexical, datatype=XSD_DECIMAL)
    return Literal(lexical, datatype=XSD_INTEGER)


def _lift_aggregates(
    expression: Expression, lifted: dict[AggregateExpr, Variable], illegal_in: str = ""
) -> Expression:
    """``expression`` with each aggregate replaced by the hidden variable
    (``?__agg0``, …) ``lifted`` maps it to, one per distinct aggregate.

    An aggregate nested in another one, or anywhere ``illegal_in`` names,
    is a parse error.
    """
    if isinstance(expression, AggregateExpr):
        if illegal_in:
            raise SparqlParseError(f"aggregate {expression.name} not allowed in {illegal_in}")
        if expression.operand is not None:
            _lift_aggregates(expression.operand, lifted, illegal_in=f"{expression.name}(...)")
        variable = lifted.setdefault(expression, Variable(f"__agg{len(lifted)}"))
        return VariableExpr(variable)
    return map_children(expression, lambda child: _lift_aggregates(child, lifted, illegal_in))


def parse_query(text: str) -> Query:
    """Parse SPARQL query text into a :class:`repro.sparql.algebra.Query`.

    The returned query keeps its source text (``Query.text``) so
    front-ends that route on or re-transmit the original string — e.g.
    the sharded service — never need to reconstruct it.
    """
    return dataclasses.replace(_Parser(text).parse(), text=text)
