"""Property-path evaluation over a :class:`repro.rdf.dataset.Graph`.

Used by the snapshot evaluator for all path forms, and by the incremental
pipeline for the transitive forms (``*``, ``+``) which it re-evaluates per
delta batch.  Non-transitive forms (predicate, inverse, sequence,
alternative, zero-or-one, negated sets) are compiled away by the pipeline
into ordinary scans/joins/unions.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..rdf.dataset import Graph
from ..rdf.terms import Term, Variable
from .algebra import (
    AlternativePath,
    InversePath,
    NegatedPropertySet,
    OneOrMorePath,
    Path,
    PathPattern,
    PredicatePath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)

__all__ = ["evaluate_path", "path_predicates", "path_reads"]


def _concrete(term: Optional[Term]) -> Optional[Term]:
    if term is None or isinstance(term, Variable):
        return None
    return term


def evaluate_path(
    graph: Graph,
    subject: Optional[Term],
    path: Path,
    object: Optional[Term],
) -> Iterator[tuple[Term, Term]]:
    """Yield ``(subject, object)`` pairs connected by ``path``.

    ``subject``/``object`` may be concrete terms (constraining the ends) or
    ``None``/variables (wildcards).  Duplicate pairs are suppressed, matching
    SPARQL's existential path semantics.
    """
    seen: set[tuple[Term, Term]] = set()
    for pair in _eval(graph, _concrete(subject), path, _concrete(object)):
        if pair not in seen:
            seen.add(pair)
            yield pair


def _eval(
    graph: Graph, subject: Optional[Term], path: Path, object: Optional[Term]
) -> Iterator[tuple[Term, Term]]:
    if isinstance(path, PredicatePath):
        for triple in graph.match(subject, path.predicate, object):
            yield triple.subject, triple.object
        return

    if isinstance(path, InversePath):
        for obj, subj in _eval(graph, object, path.path, subject):
            yield subj, obj
        return

    if isinstance(path, SequencePath):
        yield from _eval_sequence(graph, subject, path.steps, object)
        return

    if isinstance(path, AlternativePath):
        for option in path.options:
            yield from _eval(graph, subject, option, object)
        return

    if isinstance(path, ZeroOrOnePath):
        yield from _eval_zero_width(graph, subject, object)
        yield from _eval(graph, subject, path.path, object)
        return

    if isinstance(path, ZeroOrMorePath):
        yield from _eval_zero_width(graph, subject, object)
        yield from _eval_transitive(graph, subject, path.path, object)
        return

    if isinstance(path, OneOrMorePath):
        yield from _eval_transitive(graph, subject, path.path, object)
        return

    if isinstance(path, NegatedPropertySet):
        forward = set(path.forward)
        inverse = set(path.inverse)
        if forward or not inverse:
            for triple in graph.match(subject, None, object):
                if triple.predicate not in forward:
                    yield triple.subject, triple.object
        if inverse:
            for triple in graph.match(object, None, subject):
                if triple.predicate not in inverse:
                    yield triple.object, triple.subject
        return

    raise TypeError(f"unknown path: {path!r}")


def _eval_sequence(
    graph: Graph, subject: Optional[Term], steps: tuple[Path, ...], object: Optional[Term]
) -> Iterator[tuple[Term, Term]]:
    if len(steps) == 1:
        yield from _eval(graph, subject, steps[0], object)
        return
    first, rest = steps[0], steps[1:]
    # Evaluate the more-bound side first for efficiency.
    if subject is not None or object is None:
        for start, middle in _eval(graph, subject, first, None):
            for _, end in _eval_sequence(graph, middle, rest, object):
                yield start, end
    else:
        for middle, end in _eval_sequence(graph, None, rest, object):
            for start, _ in _eval(graph, subject, first, middle):
                yield start, end


def _eval_zero_width(
    graph: Graph, subject: Optional[Term], object: Optional[Term]
) -> Iterator[tuple[Term, Term]]:
    """The zero-length part of ``?``/``*``: every node relates to itself."""
    if subject is not None and object is not None:
        if subject == object:
            yield subject, object
        return
    if subject is not None:
        yield subject, subject
        return
    if object is not None:
        yield object, object
        return
    for node in _all_nodes(graph):
        yield node, node


def _all_nodes(graph: Graph) -> Iterator[Term]:
    seen: set[Term] = set()
    for triple in graph:
        for term in (triple.subject, triple.object):
            if term not in seen:
                seen.add(term)
                yield term


def _eval_transitive(
    graph: Graph, subject: Optional[Term], inner: Path, object: Optional[Term]
) -> Iterator[tuple[Term, Term]]:
    """One-or-more closure via BFS from the bound side (or every start node)."""
    if subject is not None:
        yield from ((subject, reached) for reached in _bfs_forward(graph, subject, inner, object))
        return
    if object is not None:
        yield from ((reached, object) for reached in _bfs_backward(graph, object, inner))
        return
    starts = {pair[0] for pair in _eval(graph, None, inner, None)}
    for start in starts:
        for reached in _bfs_forward(graph, start, inner, None):
            yield start, reached


def _bfs_forward(
    graph: Graph, start: Term, inner: Path, target: Optional[Term]
) -> Iterator[Term]:
    visited: set[Term] = set()
    frontier = [start]
    while frontier:
        next_frontier: list[Term] = []
        for node in frontier:
            for _, reached in _eval(graph, node, inner, None):
                if reached not in visited:
                    visited.add(reached)
                    next_frontier.append(reached)
                    if target is None or reached == target:
                        yield reached
        frontier = next_frontier


def _bfs_backward(graph: Graph, end: Term, inner: Path) -> Iterator[Term]:
    visited: set[Term] = set()
    frontier = [end]
    while frontier:
        next_frontier: list[Term] = []
        for node in frontier:
            for reached, _ in _eval(graph, None, inner, node):
                if reached not in visited:
                    visited.add(reached)
                    next_frontier.append(reached)
                    yield reached
        frontier = next_frontier


def path_predicates(path: Path) -> set:
    """All predicate IRIs mentioned in a path (for cMatch link extraction)."""
    if isinstance(path, PredicatePath):
        return {path.predicate}
    if isinstance(path, InversePath):
        return path_predicates(path.path)
    if isinstance(path, SequencePath):
        result: set = set()
        for step in path.steps:
            result |= path_predicates(step)
        return result
    if isinstance(path, AlternativePath):
        result = set()
        for option in path.options:
            result |= path_predicates(option)
        return result
    if isinstance(path, (ZeroOrMorePath, OneOrMorePath, ZeroOrOnePath)):
        return path_predicates(path.path)
    if isinstance(path, NegatedPropertySet):
        return set(path.forward) | set(path.inverse)
    raise TypeError(f"unknown path: {path!r}")


def _is_negated(path: Path) -> bool:
    if isinstance(path, NegatedPropertySet):
        return True
    if isinstance(path, (InversePath, ZeroOrMorePath, OneOrMorePath, ZeroOrOnePath)):
        return _is_negated(path.path)
    if isinstance(path, SequencePath):
        return any(_is_negated(step) for step in path.steps)
    if isinstance(path, AlternativePath):
        return any(_is_negated(option) for option in path.options)
    return False


def _matches_empty(path: Path) -> bool:
    """Whether the path admits the zero-length walk (``p*``, ``p?`` and
    whatever sequences / alternatives / closures reduce to them)."""
    if isinstance(path, (ZeroOrMorePath, ZeroOrOnePath)):
        return True
    if isinstance(path, (InversePath, OneOrMorePath)):
        return _matches_empty(path.path)
    if isinstance(path, SequencePath):
        return all(_matches_empty(step) for step in path.steps)
    if isinstance(path, AlternativePath):
        return any(_matches_empty(option) for option in path.options)
    return False


def path_reads(pattern: PathPattern) -> Optional[frozenset]:
    """The predicates of the quads a path pattern's answer depends on, or
    ``None`` when that is every quad.

    A negated property set matches any predicate outside it.  A path that
    admits the empty walk relates *every node of the graph* to itself
    unless an endpoint pins it (``<a> p* ?y`` starts at ``<a>`` whether or
    not the graph mentions it), so with two variable endpoints any quad —
    whatever its predicate — contributes its subject and object.
    """
    path = pattern.path
    pinned = any(
        end is not None and not isinstance(end, Variable)
        for end in (pattern.subject, pattern.object)
    )
    if _is_negated(path) or (_matches_empty(path) and not pinned):
        return None
    return frozenset(path_predicates(path))
