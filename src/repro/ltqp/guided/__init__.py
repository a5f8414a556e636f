"""Guided traversal: the source-selection subsystem (DESIGN.md §4g).

Zero-knowledge LTQP dereferences every reachable document; the guided
subsystem prunes instead, following two lines of work
cited in PAPERS.md: *Guided Link-Traversal-Based Query Processing*
(arXiv:2005.02239) and *Distributed Subweb Specifications for Traversing
the Web* (arXiv:2302.14411).

Three cooperating pieces:

* :class:`SubwebSpecification` — declarative per-origin allow/deny/depth
  rules, loadable from a JSON file (CLI ``--subweb``) or discovered as RDF
  documents inside pods.
* :class:`CardinalityHints` — the per-pod source indexes (class
  partitions, predicate sets, cardinalities per container; the format is
  :mod:`repro.solid.index`) an execution has absorbed; SolidBench pods
  publish one each.
* :class:`SourceSelector` — combines both with the query's subject groups
  to decide, per link, *follow*, *defer* (origin not yet admitted), or
  *prune* — before the link ever costs a dereference.  Every pruned link
  is attributed in ``ExecutionStats.completeness()``.

Pruning is the selector's job, not the queue's: the ``guided`` queue
policy only orders what survives, by a score of each link's
:class:`~repro.ltqp.links.LinkProvenance` taken once on admission (it
lives with the other disciplines in :mod:`repro.ltqp.links`).
"""

from .discovery import HintDiscoveryExtractor
from .hints import CardinalityHints, query_scopes
from .selector import LinkDecision, SourceSelector
from .subweb import SubwebRule, SubwebSpecification

__all__ = [
    "CardinalityHints",
    "query_scopes",
    "HintDiscoveryExtractor",
    "LinkDecision",
    "SourceSelector",
    "SubwebRule",
    "SubwebSpecification",
]
