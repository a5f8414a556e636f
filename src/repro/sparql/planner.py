"""Zero-knowledge query planning (Hartig, ESWC 2011).

Link traversal engines have no cardinality statistics for the data they will
encounter, so join ordering must rely on the *shape* of the patterns alone.
This module implements the zero-knowledge heuristics used by the paper's
engine to order the triple patterns of a BGP:

1. **Seed filter**: patterns mentioning a seed IRI (or any IRI — IRIs are
   dereferenceable anchors) come first.
2. **Bound-term count**: patterns with more bound (non-variable) positions
   are more selective and are scheduled earlier; already-bound variables
   (those appearing in previously chosen patterns) count as bound.
3. **Position weighting**: a bound subject is worth more than a bound
   object, which is worth more than a bound predicate — mirroring the
   typical selectivity in Web data (subject pages enumerate few triples,
   predicates are near-universal).
4. **Connectedness**: among equals, prefer patterns sharing a variable with
   the already-ordered prefix, avoiding Cartesian products.

The output is a permutation of the input patterns; the physical pipeline
builds a left-deep join tree in that order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..rdf.terms import NamedNode, Term, Variable
from ..rdf.triples import TriplePattern
from .algebra import PathPattern

__all__ = ["plan_bgp_order", "pattern_score"]

_SUBJECT_WEIGHT = 4
_OBJECT_WEIGHT = 2
_PREDICATE_WEIGHT = 1


def pattern_score(
    pattern: TriplePattern | PathPattern,
    bound_variables: frozenset[Variable],
    seed_iris: frozenset[str],
) -> tuple[int, int, int]:
    """Score a pattern; higher sorts earlier.

    Returns ``(connected, weighted_boundness, seed_bonus)``.
    """
    if isinstance(pattern, PathPattern):
        positions: list[tuple[Optional[Term], int]] = [
            (pattern.subject, _SUBJECT_WEIGHT),
            (None, _PREDICATE_WEIGHT),
            (pattern.object, _OBJECT_WEIGHT),
        ]
    else:
        positions = [
            (pattern.subject, _SUBJECT_WEIGHT),
            (pattern.predicate, _PREDICATE_WEIGHT),
            (pattern.object, _OBJECT_WEIGHT),
        ]

    weighted = 0
    connected = 0
    seed_bonus = 0
    for term, weight in positions:
        if term is None:
            continue
        if isinstance(term, Variable):
            if term in bound_variables:
                weighted += weight
                connected = 1
        else:
            weighted += weight
            if isinstance(term, NamedNode) and term.value in seed_iris:
                seed_bonus += 1
    return connected, weighted, seed_bonus


def plan_bgp_order(
    patterns: Sequence[TriplePattern | PathPattern],
    seed_iris: Sequence[str] = (),
) -> list[TriplePattern | PathPattern]:
    """Order BGP patterns with the zero-knowledge heuristics.

    Greedy: repeatedly pick the highest-scoring remaining pattern given the
    variables bound so far.  Ties break on the original pattern order, which
    keeps plans stable and predictable for users.
    """
    remaining = list(patterns)
    seeds = frozenset(seed_iris)
    ordered: list[TriplePattern | PathPattern] = []
    bound: set[Variable] = set()

    while remaining:
        best_index = 0
        best_score: tuple[int, int, int] = (-1, -1, -1)
        frozen_bound = frozenset(bound)
        for index, pattern in enumerate(remaining):
            score = pattern_score(pattern, frozen_bound, seeds)
            # For the very first pattern connectedness is meaningless; treat
            # all patterns as connected so boundness dominates.
            if not ordered:
                score = (1, score[1], score[2])
            if score > best_score:
                best_score = score
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= chosen.variables()
    return ordered
