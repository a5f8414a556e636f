"""The per-execution side of source indexes, and query subject groups.

What a pod's source index says — and how it is read — lives in
:mod:`repro.solid.index`; :class:`CardinalityHints` only collects the
indexes one execution absorbs, keyed so that finding a link's pod costs
a few dict probes.

The consuming side is VoID-style source selection: the query's WHERE
clause decomposes into *subject groups* — per conjunctive scope, the set
of predicates and class constraints attached to each subject term.  A
summarized container is **relevant** iff some subject group could bind
entities from it: its class partition intersects the group's (declared or
range-derived) class constraints and its predicate set covers the group's
required predicates.  Irrelevant containers are pruned before
dereferencing — sound under subject-local fragmentation (all triples of
an entity live in its container's documents) and trusting summaries to be
accurate, the model of the distributed-subweb-specification line of work.
A pod's ranges bear on that pod's containers alone, so a pod that lies
about itself loses its own rows — attributed ``hint:*`` in
``completeness()`` — and nobody else's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ...rdf.document import ParsedDocument
from ...rdf.namespaces import RDF
from ...rdf.terms import NamedNode, Term
from ...rdf.triples import TriplePattern
from ...solid.index import ContainerSummary, SourceIndex, innermost
from ...sparql.algebra import (
    BGP,
    AlternativePath,
    Join,
    LeftJoin,
    Minus,
    Operator,
    PathPattern,
    PredicatePath,
    ValuesOp,
    exists_patterns,
    operator_children,
    operator_expressions,
)
from ...sparql.paths import path_reads

__all__ = [
    "CardinalityHints",
    "SubjectGroup",
    "QueryScope",
    "query_scopes",
    "container_relevant",
]


class CardinalityHints:
    """The source indexes one execution has absorbed, by pod base and by
    the URL each was read from."""

    def __init__(self) -> None:
        self._pods: dict[str, SourceIndex] = {}
        self._by_source: dict[str, SourceIndex] = {}
        #: Pod base → the URL its index was read from.
        self._sources: dict[str, str] = {}
        #: Declarations turned away because the index document lies outside
        #: the pod it claims to describe.
        self.rejected = 0

    @property
    def pod_count(self) -> int:
        return len(self._pods)

    def absorb_document(self, url: str, document: ParsedDocument) -> Optional[SourceIndex]:
        """Read a source-index document; returns the pod's index, or None
        when the document carries no ``subweb:pod`` declaration or declares
        a pod it is not served from (counted in :attr:`rejected`)."""
        try:
            pod = SourceIndex.from_document(url, document)
        except ValueError:
            self.rejected += 1
            return None
        if pod is not None:
            self._pods[pod.pod] = pod
            self._by_source[url.split("#", 1)[0]] = pod
            self._sources[pod.pod] = url.split("#", 1)[0]
        return pod

    def pod_by_source(self, url: str) -> Optional[SourceIndex]:
        """The index absorbed from exactly this source-index URL."""
        return self._by_source.get(url.split("#", 1)[0])

    def pod_for(self, url: str) -> Optional[SourceIndex]:
        """The absorbed pod ``url`` lies in — the innermost, when declared
        bases nest."""
        return innermost(self._pods, url)

    def source_for(self, url: str) -> Optional[str]:
        """The URL of the absorbed source index of the pod ``url`` lies in."""
        pod = self.pod_for(url)
        return None if pod is None else self._sources[pod.pod]


# -- query subject groups ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubjectGroup:
    """Constraints one conjunctive scope places on one subject term.

    ``predicates``: concrete predicate IRIs required of the subject.
    ``any_of``: per property-path alternation, a set of predicates of
    which at least one must be available.  ``classes``: declared
    ``rdf:type`` constraints.  ``object_of`` / ``object_of_any``: the
    predicates under which the subject appears in object position within
    the same scope — range declarations turn these into additional class
    constraints.
    """

    subject: str
    predicates: frozenset = frozenset()
    any_of: tuple = ()
    classes: frozenset = frozenset()
    object_of: frozenset = frozenset()
    object_of_any: tuple = ()


@dataclass(frozen=True, slots=True)
class QueryScope:
    """One conjunctive scope of the WHERE clause (one Union branch etc.)."""

    groups: tuple = ()


#: Safety valve for the Join cross-product of Union branches.
_MAX_SCOPES = 64


def query_scopes(where: Operator) -> tuple:
    """Decompose a WHERE tree into conjunctive scopes of subject groups.

    Union branches become separate scopes; Joins combine their children's
    scopes pairwise.  OPTIONAL and MINUS right-hand parts and EXISTS
    bodies are scopes of their own that no surrounding Join strengthens
    (conservative: each part is source-selected as if it were a query on
    its own, so no container such a part needs is ever pruned).
    """
    scopes = []
    required, apart = _conjunctions(where)
    for items in required + apart:
        groups = _build_groups(items)
        if groups:
            scopes.append(QueryScope(groups=tuple(groups)))
    return tuple(scopes)


def _conjunctions(op: Operator) -> tuple[list, list]:
    """``(required, apart)``: lists of pattern items, one list per
    conjunctive scope — those every solution of ``op`` joins, and those of
    the parts evaluated on their own (OPTIONAL / MINUS right-hand sides and
    the EXISTS bodies of every expression ``op`` evaluates).

    An item is ``("p", TriplePattern)``, ``("any", subject, predicates,
    object)`` for an alternation path with the given predicate options, or
    ``("path", predicates)`` for any other path (:func:`_path_item`).
    """
    if isinstance(op, BGP):
        items = [("p", pattern) for pattern in op.patterns]
        items.extend(_path_item(path_pattern) for path_pattern in op.path_patterns)
        return [items], []
    if isinstance(op, ValuesOp):
        return [[]], []
    if isinstance(op, Join):
        left, apart = _conjunctions(op.left)
        right, right_apart = _conjunctions(op.right)
        if len(left) * len(right) <= _MAX_SCOPES:
            required = [a + b for a in left for b in right]
        else:
            required = left + right
        apart = apart + right_apart
    elif isinstance(op, (LeftJoin, Minus)):
        required, apart = _conjunctions(op.left)
        right, right_apart = _conjunctions(op.right)
        apart = apart + right + right_apart
    else:
        required, apart = [], []
        for child in operator_children(op):
            child_required, child_apart = _conjunctions(child)
            required, apart = required + child_required, apart + child_apart
    for expression in operator_expressions(op):
        for body in exists_patterns(expression):
            body_required, body_apart = _conjunctions(body)
            apart = apart + body_required + body_apart
    return required, apart


def _path_item(pattern: PathPattern) -> tuple:
    """A path pattern's item.  A predicate or an alternation of predicates
    constrains the pattern's subject.  Any other path reads triples whose
    subjects are intermediate nodes, so it is a subject group of its own
    that needs one of the path's predicates — or nothing, when the path can
    match any quad (:func:`~repro.sparql.paths.path_reads` is ``None``)."""
    path = pattern.path
    if isinstance(path, PredicatePath):
        return ("p", TriplePattern(pattern.subject, path.predicate, pattern.object))
    if isinstance(path, AlternativePath) and all(
        isinstance(option, PredicatePath) for option in path.options
    ):
        predicates = frozenset(option.predicate.value for option in path.options)
        return ("any", pattern.subject, predicates, pattern.object)
    reads = path_reads(pattern)
    return ("path", frozenset() if reads is None else frozenset(p.value for p in reads))


def _build_groups(items: list) -> list:
    predicates: dict[Term, set] = {}
    any_of: dict[Term, list] = {}
    classes: dict[Term, set] = {}
    subjects: list[Term] = []

    def _bucket(store: dict, term: Term) -> set:
        if term not in predicates and term not in any_of:
            subjects.append(term)
        return store.setdefault(term, set() if store is not any_of else [])

    paths = []
    for item in items:
        if item[0] == "path":
            paths.append(SubjectGroup(subject="(path)", any_of=(item[1],) if item[1] else ()))
        elif item[0] == "p":
            pattern = item[1]
            subject = pattern.subject
            predicate = pattern.predicate
            if isinstance(predicate, NamedNode):
                _bucket(predicates, subject).add(predicate.value)
                if predicate == RDF.type and isinstance(pattern.object, NamedNode):
                    classes.setdefault(subject, set()).add(pattern.object.value)
            else:
                # Variable predicate: the subject is constrained, but by
                # nothing a summary can check.  Record the group with no
                # requirements so it matches every container (no pruning
                # from this group — conservative).
                _bucket(predicates, subject)
        else:
            _, subject, options, _obj = item
            bucket = _bucket(any_of, subject)
            bucket.append(options)
            predicates.setdefault(subject, set())
    # Object-position occurrences, for range-derived class constraints.
    object_of: dict[Term, set] = {}
    object_of_any: dict[Term, list] = {}
    known = set(predicates) | set(any_of)
    for item in items:
        if item[0] == "p":
            pattern = item[1]
            if pattern.object in known and isinstance(pattern.predicate, NamedNode):
                if pattern.predicate != RDF.type:
                    object_of.setdefault(pattern.object, set()).add(pattern.predicate.value)
        elif item[0] == "any":
            _, _subject, options, obj = item
            if obj in known:
                object_of_any.setdefault(obj, []).append(options)
    groups = []
    for subject in subjects:
        groups.append(
            SubjectGroup(
                subject=str(subject),
                predicates=frozenset(predicates.get(subject, ())),
                any_of=tuple(any_of.get(subject, ())),
                classes=frozenset(classes.get(subject, ())),
                object_of=frozenset(object_of.get(subject, ())),
                object_of_any=tuple(object_of_any.get(subject, ())),
            )
        )
    return groups + paths


def container_relevant(
    hint: ContainerSummary, scopes: tuple, ranges: Mapping[str, frozenset]
) -> bool:
    """Could any subject group bind entities out of this container?"""
    if not scopes:
        return True
    for scope in scopes:
        for group in scope.groups:
            if _group_matches(group, hint, ranges):
                return True
    return False


def _group_matches(group: SubjectGroup, hint: ContainerSummary, ranges) -> bool:
    # Class partition: every class constraint — declared rdf:type plus
    # range-derived ones — must intersect the container's classes.
    if hint.classes:
        constraints = []
        if group.classes:
            constraints.append(group.classes)
        for predicate in group.object_of:
            declared = ranges.get(predicate)
            if declared:
                constraints.append(declared)
        for options in group.object_of_any:
            declared_union: set = set()
            for predicate in options:
                declared = ranges.get(predicate)
                if not declared:
                    declared_union = set()
                    break
                declared_union |= declared
            if declared_union:
                constraints.append(frozenset(declared_union))
        for constraint in constraints:
            if not (constraint & hint.classes):
                return False
    # Predicate coverage: every required predicate must occur in the
    # container; alternations need at least one option.
    if hint.predicates:
        for predicate in group.predicates:
            if predicate not in hint.predicates:
                return False
        for options in group.any_of:
            if not (options & hint.predicates):
                return False
    return True
